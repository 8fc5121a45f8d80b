"""Minimal action over arbitrary horizons by broken geodesics.

A path is a chain of short-time orbit segments joined at interior nodes;
its action is the sum of the segments' generating values, and the chain
is critical exactly when the momenta agree at every node.  One solver
relaxes a batch of chains: damped Newton on the chain action, with the
tridiagonal Hessian assembled from each segment's monodromy blocks and an
Armijo line search on the summed action.  Every evaluation, for every
model family, is one warm-started ``generating_batch`` call that returns
value, end momenta and monodromy together; a time-forced model's segments
are rows with their own time slots.  A production step finer than
``KERNEL_STEP`` is reached by nested iteration: the chains are swept at
``KERNEL_STEP``, where a sweep costs fewer RK4 steps, and then evaluated
and corrected on the production grid, from which every returned value and
jump comes.  Over long horizons the chains start from a Bellman pass: grid
curves of least midpoint-rule action, forward and backward min-plus over
a band of node displacements, one start per unit cell of the lifted line
around the straight chain's middle node, so that each nearby route class
gets its own chain.  The Tonelli oracle is independent of this pipeline:
batched Newton on the midpoint-rule Lagrangian action of discrete curves,
whose Hessian is tridiagonal too, extrapolated to fourth order in the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, MultistartExhausted, SolverDiverged
from .flow import Trajectory, _steps_for, integrate_flow, resolve_sigma, write_csv
from .generating import KERNEL_STEP, TARGET_STEP, generating_batch
from .hamiltonian import HamiltonianModel, _point, legendre_batch

TOL_CRIT_BASE = 1e-6
# the Tonelli oracle's Newton: the gradient sup that stops a curve, a safety cap
TOL_ORACLE_GRAD = 1e-10
MAX_ORACLE_ITER = 200
# nodes per unit of q on the grid of the Bellman pass that picks chain starts
GRID_NODES = 64


@dataclass
class BrokenPath:
    """A broken-geodesic chain with its action and first-order diagnostics."""

    tau: float
    t: float
    q0: np.ndarray
    q1: np.ndarray
    nodes: np.ndarray
    n: int
    value: float
    momentum_jumps: np.ndarray
    rho0: np.ndarray
    p_minus: np.ndarray
    p_plus: np.ndarray

    def node_times(self) -> np.ndarray:
        return self.tau + (self.t - self.tau) * np.arange(1, self.n) / self.n

    def to_csv(self, path):
        write_csv(path, "t_i,theta_i,p_minus,p_plus",
                  np.column_stack([self.node_times(), self.nodes[:, 0],
                                   self.p_minus[:, 0], self.p_plus[:, 0]]))


def broken_action_value(model: HamiltonianModel, tau: float, t: float, q0, q1,
                        nodes, sigma_eff=None, step_target=None) -> float:
    """Total action of the chain through ``nodes`` (uniform time slots)."""
    pts = np.concatenate([np.asarray(x, float).reshape(-1, 1) for x in (q0, nodes, q1)])[None]
    return float(_segments(model, tau, t, pts, sigma_eff,
                           step_target or TARGET_STEP)[0].sum())


def _segments(model, tau, t, pts, sigma_eff, step_target, p_init=None):
    """Value, end momenta and monodromy of every segment of a batch of chains.

    ``pts`` is (B, n+1, 1) with endpoints included and ``p_init`` (B, n, 1)
    optional initial momenta to warm-start the shooting.  Every segment of
    every chain is a row of one ``generating_batch`` call: autonomous rows
    over ``(0, dt)``, non-autonomous rows over their own time slot
    ``(tau + i dt, tau + (i + 1) dt)``.  Returns ``(S, rho0, rho1, Mono)``
    shaped (B, n), (B, n, 1), (B, n, 1) and (B, n, 2, 2).
    """
    Bsz, n = pts.shape[0], pts.shape[1] - 1
    dt = (t - tau) / n
    ta, tb = 0.0, dt
    if not model.autonomous:
        slot = np.tile(np.arange(n), Bsz)
        ta, tb = tau + slot * dt, tau + (slot + 1) * dt
    S, r0, r1, _, Mono = generating_batch(
        model, ta, tb, pts[:, :-1].reshape(-1, 1), pts[:, 1:].reshape(-1, 1), sigma_eff=sigma_eff,
        p_init=None if p_init is None else p_init.reshape(-1, 1), step_target=step_target)
    return tuple(x.reshape((Bsz, n) + x.shape[1:]) for x in (S, r0, r1, Mono))


def _thomas_batch(diag, off, rhs):
    """Solve symmetric tridiagonal systems, vectorized over the batch axis.

    ``diag``: (B, m), ``off``: (B, m-1) couples j and j+1, ``rhs``: (B, m).
    Also returns a mask that is False where a pivot is nonpositive
    (indefinite Hessian).
    """
    B, m = diag.shape
    dvec = np.empty((B, m))
    x = np.empty((B, m))
    piv = diag[:, 0].copy()
    ok = piv > 1e-14
    dvec[:, 0] = rhs[:, 0]
    pivs = [piv]
    for j in range(1, m):
        w = off[:, j - 1] / pivs[j - 1]
        piv = diag[:, j] - w * off[:, j - 1]
        ok &= piv > 1e-14
        pivs.append(piv)
        dvec[:, j] = rhs[:, j] - w * dvec[:, j - 1]
    x[:, m - 1] = dvec[:, m - 1] / pivs[m - 1]
    for j in range(m - 2, -1, -1):
        x[:, j] = (dvec[:, j] - off[:, j] * x[:, j + 1]) / pivs[j]
    return x, ok


def _newton_direction(Mono, g):
    """Newton step of the chain action from the segments' monodromy.

    Segment j contributes ``d11 = dpP / dpQ`` to node j, ``d00 = dqQ / dpQ``
    to node j-1 and ``-1 / dpQ`` to the coupling between them.  Returns the
    direction (B, n-1, 1) and a mask of chains whose Hessian is positive
    definite after regularization.
    """
    b = Mono[..., 0, 1]
    diag = Mono[:, :-1, 1, 1] / b[:, :-1] + Mono[:, 1:, 0, 0] / b[:, 1:]
    off = -1.0 / b[:, 1:-1]
    shift = np.zeros(len(g))
    for _reg in range(4):
        delta, ok = _thomas_batch(diag + shift[:, None], off, g[..., 0])
        if ok.all():
            break
        shift = np.where(ok, shift, np.maximum(2 * shift, 1.0))
    return delta[..., None], ok


def _relax_chain(model, tau, t, pts, sigma_eff, step_target, max_sweeps, tol_crit):
    """Damped Newton on the action of a batch of chains.

    ``pts`` is (B, n+1, 1) with endpoints included; it is updated in place.
    A ``step_target`` finer than ``KERNEL_STEP`` is reached in two steps:
    the sweeps run at ``KERNEL_STEP`` first, then every chain is evaluated
    once at ``step_target``, warm-started from its coarse momenta, and only
    the chains whose coarse jumps met ``tol_crit`` are swept there again;
    the others are left where the coarse sweeps put them.  On each step,
    only chains whose largest momentum jump exceeds ``tol_crit`` are
    iterated.  Where the regularized Hessian stays indefinite, or the Newton
    direction is not a descent direction, the chain steps along the
    gradient instead.  A step is damped by halving, ``lam = 1, 1/2, ...,
    1/512``, and taken at the first ``lam`` whose summed chain action meets
    the Armijo condition; a chain with none is left where it is.  Each
    halving is one ``_segments`` solve of the chains still without a step,
    warm-started from their current momenta.  Returns
    ``(pts, jumps, S, rho0, rho1)``: the momentum-jump norms (B, n-1) and
    the per-segment values and momenta of the last evaluation, all at
    ``step_target``.
    """
    steps = (KERNEL_STEP, step_target) if step_target < KERNEL_STEP else (step_target,)
    stalled = np.zeros(len(pts), bool)
    r0 = None
    for step in steps:
        S, r0, r1, Mono = _segments(model, tau, t, pts, sigma_eff, step, p_init=r0)
        for _ in range(max_sweeps):
            g = r1[:, :-1] - r0[:, 1:]
            gmax = np.linalg.norm(g, axis=-1).max(axis=1, initial=0.0)
            act = np.flatnonzero((gmax > tol_crit) & ~stalled)
            if len(act) == 0:
                break
            ga = g[act]
            delta, ok = _newton_direction(Mono[act], ga)
            slope = np.sum(ga * delta, axis=(1, 2))
            ascent = ~ok | ~(slope > 0)
            delta[ascent] = ga[ascent]
            slope[ascent] = np.sum(ga[ascent] ** 2, axis=(1, 2))
            S_act = S[act].sum(axis=1)
            todo = np.arange(len(act))   # active chains without a step yet
            lam = 1.0
            for _ in range(10):   # lam = 1, 1/2, ..., 1/512
                trial = pts[act[todo]]
                trial[:, 1:-1] -= lam * delta[todo]
                St, r0t, r1t, Mt = _segments(model, tau, t, trial, sigma_eff, step,
                                             p_init=r0[act[todo]])
                good = St.sum(axis=1) <= S_act[todo] - 1e-4 * lam * slope[todo]
                i = act[todo[good]]
                pts[i], S[i], r0[i], r1[i], Mono[i] = (trial[good], St[good], r0t[good],
                                                      r1t[good], Mt[good])
                todo = todo[~good]
                if not len(todo):
                    break
                lam *= 0.5
            stalled[act[todo]] = True
        jumps = np.linalg.norm(r1[:, :-1] - r0[:, 1:], axis=-1)
        # a chain that the coarse sweeps left above tol_crit is not swept again
        stalled = jumps.max(axis=1, initial=0.0) > tol_crit
    return pts, jumps, S, r0, r1


def _check_count(value, least, name):
    """Raise ConfigError unless ``value`` is an integer of at least ``least``."""
    if not hasattr(type(value), "__index__") or value < least:  # the test of operator.index
        raise ConfigError(f"need an integer {name} >= {least}, got {value!r}")


def _straight_chains(model, tau, t, Q0, Q1, sigma_eff, n):
    """The set-up of every chain solve: the checked horizon, window,
    endpoints and segment count ``n``, the straight chains (B, n+1, 1) from
    ``Q0`` to ``Q1`` and their jump criteria ``tol_crit`` (B,), one per
    chain, so that a chain's result does not depend on its batch."""
    if t <= tau:
        raise ConfigError(f"minimal action requires t > tau, got tau = {tau}, t = {t}")
    sig = resolve_sigma(model, sigma_eff)
    Q0 = np.asarray(Q0, float).reshape(-1, 1)
    Q1 = np.asarray(Q1, float).reshape(-1, 1)
    if not (np.isfinite(Q0).all() and np.isfinite(Q1).all()):
        raise ConfigError("chain endpoints must be finite")
    if n is None:   # the fewest segments inside half the twist window
        n = _steps_for(t - tau, sig / 2)
    _check_count(n, 1, "segment count n")
    lam = np.linspace(0, 1, n + 1)
    pts = Q0[:, None, :] + lam[None, :, None] * (Q1 - Q0)[:, None, :]
    tol_crit = TOL_CRIT_BASE * (1.0 + np.linalg.norm(Q1 - Q0, axis=1) / max(t - tau, 1e-12))
    return sig, n, pts, tol_crit


def _grid_starts(model, tau, t, q0, q1, n):
    """Chain starts (K, n+1, 1) from a min-plus pass over a grid of nodes.

    Interior node ``s`` of an ``n``-segment chain from ``q0`` to ``q1``
    lies on the lifted line at ``k / GRID_NODES``, over ``[min(q0, q1) - 1,
    max(q0, q1) + 1]`` and within 2 of the straight chain's node: a window
    of at most ``4 GRID_NODES + 1`` nodes per slice, so that the pass does
    not grow with the distance.  A segment costs its midpoint-rule action,
    the rule of ``_midpoint_action``.  The first and last segments are
    tabulated from ``q0`` and to ``q1`` exactly, the others in a band of
    ``D`` nodes about the straight chain's displacement ``c``,
    ``|k' - k - c| <= D``: a periodic model's table has one row per residue
    class, another model's one per window node and segment, and a
    non-autonomous model's one plane per segment.  A forward and a backward
    pass give every middle node's least through-cost; in each unit cell of
    the middle node's lift within one cell of the straight chain's, the
    best node is backtracked into one start.  A start that reaches the
    band's edge in a segment doubles the band, which tabulates only its new
    columns, and the pass runs again.  The starts come in ascending
    through-cost.
    """
    G = GRID_NODES
    line = q0 + (q1 - q0) * np.arange(1, n) / n   # the straight chain's interior nodes
    a = np.ceil(np.maximum(min(q0, q1) - 1.0, line - 2.0) * G).astype(int)
    size = np.floor(np.minimum(max(q0, q1) + 1.0, line + 2.0) * G).astype(int) + 1 - a
    W, j = size.max(), np.arange(size.max())
    K = a[:, None] + j   # slice s - 1 holds interior node s: its window's node numbers
    live = j < size[:, None]
    times = np.linspace(tau, t, n + 1)
    ends = np.stack([np.stack(np.broadcast_arrays(q0, K[0] / G), -1),
                     np.stack(np.broadcast_arrays(K[-1] / G, q1), -1)])
    first, last = np.where(live[[0, -1]], _midpoint_action(
        model, np.stack([times[:2], times[-2:]])[:, None], ends), np.inf)
    # segment s runs from slice s - 1 to slice s; its table rows start from
    # the residue classes of a periodic model, from slice s - 1 otherwise
    src, rows = (np.arange(G)[None], K[:-1] % G) if model.periodic else (K[:-1], None)
    slots = times[:2] if model.autonomous else np.stack([times[1:-2], times[2:-1]], -1)
    slots = slots.reshape(-1, 1, 1, 2)
    c = round(G * (q1 - q0) / n)
    # node j of slice s reaches node j' of slice s + 1 by c + j' - j + shift[s]
    shift = np.diff(a) - c
    m = n // 2   # the middle node, in slice m - 1
    D = -(-2 * G // n)   # first band: the two margins crossed once over the horizon
    D_max = W - 1 + np.abs(shift).max(initial=0)

    def inside(index):   # a window index, or -1 (the appended infinity) outside the window
        return np.where((index >= 0) & (index < W), index, -1)

    def least(cand, s):   # the least candidate of each node of slice s, and its column
        arg = cand.argmin(axis=1)
        return np.where(live[s], cand[j, arg], np.inf), arg

    def cost(s):   # segment s from each node of slice s - 1 by each band column
        plane = table[(s - 1) % len(table)]
        return plane if rows is None else plane[rows[s - 1]]

    def tabulate(cols):   # the segment costs (planes, rows, len(cols)) of band columns cols
        seg = np.stack(np.broadcast_arrays(src[..., None], src[..., None] + c + cols), -1) / G
        return _midpoint_action(model, slots, np.broadcast_to(
            seg, (max(len(slots), len(seg)),) + seg.shape[1:]))

    table = tabulate(np.arange(-D, D + 1))
    while True:
        e = np.arange(-D, D + 1)
        fwd, bwd, f_arg, b_arg = first, last, {}, {}
        for s in range(1, m):   # the least cost from q0 to each node of slice s
            J = inside(j[:, None] + shift[s - 1] - e)
            fwd, f_arg[s] = least(np.append(fwd, np.inf)[J] + cost(s)[J, e + D], s)
        for s in range(n - 2, m - 1, -1):   # from each node of slice s - 1 to q1
            J = inside(j[:, None] - shift[s - 1] + e)
            bwd, b_arg[s] = least(cost(s) + np.append(bwd, np.inf)[J], s - 1)
        through = fwd + bwd
        cell = K[m - 1] // G - np.floor(line[m - 1])
        best = []
        for k in (-1, 0, 1):   # the cells within one of the straight chain's middle node
            i = np.flatnonzero((cell == k) & np.isfinite(through))
            if len(i):
                best.append(i[np.argmin(through[i])])
        path = np.empty((len(best), n - 1), int)   # window indices, slice by slice
        path[:, m - 1] = sorted(best, key=through.__getitem__)
        for s in range(m - 1, 0, -1):
            path[:, s - 1] = path[:, s] + shift[s - 1] - e[f_arg[s][path[:, s]]]
        for s in range(m, n - 1):
            path[:, s] = path[:, s - 1] - shift[s - 1] + e[b_arg[s][path[:, s - 1]]]
        nodes = K[np.arange(n - 1), path]
        if D >= D_max or np.abs(np.diff(nodes, axis=1) - c).max(initial=0) < D:
            break
        # the grown band keeps its columns and tabulates only D_old < |e| <= D
        D_old, D = D, min(2 * D, D_max)
        grown = tabulate(np.r_[-D:-D_old, D_old + 1:D + 1])
        table = np.concatenate([grown[..., :D - D_old], table, grown[..., D - D_old:]], axis=-1)
    chains = np.empty((len(best), n + 1, 1))
    chains[:, 0], chains[:, -1], chains[:, 1:-1, 0] = q0, q1, nodes / G
    return chains


def minimal_action_batch(model: HamiltonianModel, tau: float, t: float, Q0, Q1,
                         sigma_eff=None, n: Optional[int] = None,
                         init_nodes: Optional[np.ndarray] = None,
                         step_target: float = KERNEL_STEP, max_sweeps: int = 12):
    """Relax one chain per batch entry from a single start.

    Returns ``(values, pts, jumps, rho0)`` where ``pts`` includes endpoints.
    """
    sig, n, pts, tol_crit = _straight_chains(model, tau, t, Q0, Q1, sigma_eff, n)
    if init_nodes is not None and n > 1:
        pts[:, 1:-1, :] = init_nodes
    pts, jumps, S, rho0, _ = _relax_chain(model, tau, t, pts, sig, step_target,
                                          max_sweeps, tol_crit)
    return S.sum(axis=1), pts, jumps, rho0[:, 0]


def minimal_action(model: HamiltonianModel, tau: float, t: float, q0, q1,
                   sigma_eff=None, n: Optional[int] = None, restarts: int = 1,
                   seed: int = 0, max_sweeps: int = 25):
    """Minimal action ``A_tau^t(q0, q1)`` with its reconstructed chain.

    Starts: the straight line first; on horizons past twice the window
    with more than three segments, the grid starts of ``_grid_starts``, one
    per unit cell of the middle node's lift within one cell of the straight
    chain's, in ascending grid cost; then ``restarts - 1`` seeded random
    perturbations of the straight line (``restarts`` is an integer of at
    least 1; ConfigError otherwise).  All starts relax in one batch, at
    ``KERNEL_STEP`` first and then at the production step ``TARGET_STEP``
    (see ``_relax_chain``); the values, chain and jumps returned, and the
    jump criterion, are those of ``TARGET_STEP``.  The least value among the
    starts that meet the momentum-jump criterion is returned, the first
    start deciding ties.  When none does, the starts relax for another
    ``max_sweeps`` from where they stopped; when none does then either,
    MultistartExhausted is raised with the worst jump.
    """
    _check_count(restarts, 1, "restarts")
    q0, q1 = _point(q0), _point(q1)
    sig, n, chains, tol_crit = _straight_chains(model, tau, t, q0, q1, sigma_eff, n)
    straight, tol_crit = chains[0], tol_crit[0]
    lam = np.linspace(0, 1, n + 1)

    starts = [straight]
    if n > 3 and t - tau > 2 * sig:
        starts += list(_grid_starts(model, tau, t, q0[0], q1[0], n))
    rng = np.random.default_rng(seed)
    amp = 0.25 * (1.0 + float(np.linalg.norm(q1 - q0)))
    taper = np.sin(np.pi * lam[1:-1])[:, None]
    for _ in range(restarts - 1):
        pert = straight.copy()
        pert[1:-1] += rng.normal(0.0, amp, (n - 1, 1)) * taper
        starts.append(pert)
    pts = np.stack(starts)
    # a transit between two near-equal hill tops can shift in time almost
    # for free, and its chains relax slowly: when no start meets the
    # criterion, every start sweeps once more from where it stopped
    for _ in range(2):
        pts, jumps, S, rho0, rho1 = _relax_chain(model, tau, t, pts, sig, TARGET_STEP,
                                                 max_sweeps, tol_crit)
        ok = jumps.max(axis=1, initial=0.0) <= tol_crit
        if ok.any():
            break
    values = S.sum(axis=1)
    if not ok.any():
        worst = float(jumps.max())
        raise MultistartExhausted(f"no start meets the jump criterion (worst jump {worst:.3e})",
                                  residual=worst)
    # mirror-image minimizers tie up to solver noise: among the starts within
    # a relative 1e-9 of the least value, the first start decides
    cand = np.where(ok, values, np.inf)
    low = cand.min()
    best = int(np.flatnonzero(cand <= low + 1e-9 * (1.0 + abs(low)))[0])
    path = BrokenPath(tau=tau, t=t, q0=q0, q1=q1, nodes=pts[best, 1:-1].copy(), n=n,
                      value=float(values[best]), momentum_jumps=jumps[best],
                      rho0=rho0[best, 0], p_minus=rho1[best, :-1], p_plus=rho0[best, 1:])
    return float(values[best]), path


def reconstruct_trajectory(model: HamiltonianModel, path: BrokenPath,
                           step: float = 1e-3):
    """Stitch the chain's orbit segments into one sampled trajectory.

    Each segment integrates from its own stored initial momentum, so the
    reconstruction stays accurate over horizons where a single shot from
    ``rho0`` would be destroyed by hyperbolic error growth.
    """
    n = path.n
    dt = (path.t - path.tau) / n
    pts = np.concatenate([path.q0[None], path.nodes.reshape(-1, 1),
                          path.q1[None]])
    starts = [path.rho0] + [path.p_plus[i] for i in range(n - 1)]
    times, Q, P = [], [], []
    for i in range(n):
        seg = integrate_flow(model, (pts[i], starts[i]), path.tau + i * dt,
                             path.tau + (i + 1) * dt, step=step)
        s = 0 if i == 0 else 1
        times.append(seg.times[s:])
        Q.append(seg.Q[s:])
        P.append(seg.P[s:])
    times = np.concatenate(times)
    Q = np.concatenate(Q)
    P = np.concatenate(P)
    energy = np.asarray(model.value(times, Q, P), float)
    return Trajectory(times=times, Q=Q, P=P, energy=energy)


def action_bounds(model: HamiltonianModel, tau: float, t: float, q0, q1):
    """A-priori bracket ``[|dq|^2/(2 M dt) - M dt, |dq|^2/(2 m dt) + M dt]``."""
    dq = float(np.linalg.norm(np.atleast_1d(np.asarray(q1, float))
                              - np.atleast_1d(np.asarray(q0, float))))
    dt = t - tau
    return (dq * dq / (2 * model.M * dt) - model.M * dt,
            dq * dq / (2 * model.m * dt) + model.M * dt)


def lagrangian_action(model: HamiltonianModel, times, curve) -> float:
    """Midpoint-rule Lagrangian action of a piecewise-linear curve."""
    times = np.asarray(times, float)
    curve = np.asarray(curve, float).reshape(1, -1)
    if len(times) != curve.shape[1]:
        raise ConfigError("times and curve must have equal length")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("times must be increasing")
    return float(_midpoint_action(model, times, curve)[0])


def _midpoint_action(model, times, X, derivs=False):
    """Midpoint-rule action (B,) of the curves ``X`` (B, n+1) at ``times``.

    ``times`` (n+1,) may carry leading axes that broadcast against ``X``'s:
    the Bellman tables of ``_grid_starts`` are (..., 2) curves of one segment.

    With ``derivs``, also the gradient (B, n-1) in the interior nodes and the
    tridiagonal Hessian's diagonal and off-diagonal, from the jet's blocks
    at the Legendre point: ``L_vv = 1/H_pp``, ``L_qv = -H_qp/H_pp``,
    ``L_qq = -H_qq + H_qp^2/H_pp``.
    """
    h = np.diff(times)
    tt = 0.0 if model.autonomous else times[..., :-1] + h / 2
    mid = ((X[..., 1:] + X[..., :-1]) / 2)[..., None]
    L, p = legendre_batch(model, tt, mid, (np.diff(X) / h)[..., None])
    value = np.sum(L * h, axis=-1)
    if not derivs:
        return value
    Hq, _, _, (Hqq, Hqp, Hpp) = model.jet(tt, mid, p, hessian=True)
    Lvv = np.broadcast_to(1.0 / Hpp, L.shape)
    Lqv = -Hqp * Lvv
    Lqq = -Hqq - Hqp * Lqv
    half = -h * Hq[..., 0] / 2        # h L_q / 2 on every segment
    grad = half[:, :-1] + half[:, 1:] + p[:, :-1, 0] - p[:, 1:, 0]
    a = h * Lqq / 4 + Lvv / h
    diag = (a + Lqv)[:, :-1] + (a - Lqv)[:, 1:]
    off = (h * Lqq / 4 - Lvv / h)[:, 1:-1]
    return value, grad, diag, off


def _tonelli_newton(model, tau, t, X):
    """Damped Newton on the midpoint-rule action of the curves ``X`` (B, n+1).

    ``X`` is updated in place, its endpoints fixed.  Where a pivot is not
    positive, the row's Hessian diagonal is shifted, doubling from 1e-6 of
    its largest entry until every pivot is.  Steps halve until the action
    decreases strictly by the Armijo margin.  A row stops at the gradient
    sup ``TOL_ORACLE_GRAD``, or when its predicted decrease falls below the
    value's rounding.  Returns the values and final gradient sups (B,).
    A row that has not converged is returned as it stands when another row
    holds a lower value; SolverDiverged is raised, with its gradient sup,
    only when the least value is its own.
    """
    times = np.linspace(tau, t, X.shape[1])
    A, g, diag, off = _midpoint_action(model, times, X, derivs=True)
    done = np.abs(g).max(axis=1) <= TOL_ORACLE_GRAD
    for _ in range(MAX_ORACLE_ITER):
        act = np.flatnonzero(~done)
        if not len(act):
            break
        shift, ok = np.zeros(len(act)), np.zeros(len(act), bool)
        while not ok.all():
            d, ok = _thomas_batch(diag[act] + shift[:, None], off[act], g[act])
            shift = np.where(ok, shift, np.maximum(2 * shift, 1e-6 * np.abs(diag[act]).max(1)))
        slope = np.sum(g[act] * d, axis=1)
        lam = np.ones(len(act))
        todo = np.arange(len(act))
        while len(todo):
            rows = act[todo]
            trial = X[rows]
            trial[:, 1:-1] -= lam[todo, None] * d[todo]
            At, gt, dt, ot = _midpoint_action(model, times, trial, derivs=True)
            good = At < A[rows] - 1e-4 * lam[todo] * slope[todo]
            i = rows[good]
            X[i], A[i], g[i], diag[i], off[i] = trial[good], At[good], gt[good], dt[good], ot[good]
            lam[todo] /= 2
            floored = lam[todo] * slope[todo] <= np.finfo(float).eps * (1.0 + np.abs(A[rows]))
            done[rows] = np.where(good, np.abs(gt).max(axis=1) <= TOL_ORACLE_GRAD, floored)
            todo = todo[~good & ~floored]
    least = np.argmin(A)
    if not done[least]:
        raise SolverDiverged("tonelli oracle: Newton did not converge",
                             residual=float(np.abs(g[least]).max()))
    return A, np.abs(g).max(axis=1)


def waypoint_curves(q0, q1, lam, waypoints):
    """Travel-hold-travel initial curves through each waypoint."""
    curves = []
    for w in waypoints:
        c = np.empty(len(lam))
        leg1 = lam <= 0.25
        hold = (lam > 0.25) & (lam < 0.75)
        leg2 = lam >= 0.75
        c[leg1] = q0 + (lam[leg1] / 0.25) * (w - q0)
        c[hold] = w
        c[leg2] = w + ((lam[leg2] - 0.75) / 0.25) * (q1 - w)
        curves.append(c)
    return curves


def tonelli_oracle(model: HamiltonianModel, tau: float, t: float, q0, q1,
                   n_segments: int = 200, restarts: int = 3) -> float:
    """Brute-force minimal Lagrangian action over discrete Lipschitz curves.

    Deliberately independent of the generating/action pipeline: Newton on
    the midpoint-rule action of piecewise-linear curves on a uniform grid,
    over all starts in one batch.  Starts cover the straight line,
    travel-hold-travel curves through a spread of waypoints (long horizons
    reward parking in cheap regions), and seeded random perturbations.  The
    rule is second order, so the best start gives ``T_n``, its linear
    interpolation ``T_2n``, and ``(4 T_2n - T_n) / 3`` is returned.
    """
    if t <= tau:
        raise ConfigError("tonelli oracle requires t > tau")
    n = n_segments
    _check_count(n, 2, "n_segments")
    _check_count(restarts, 1, "restarts")
    q0, q1 = (float(np.ravel(q)[0]) for q in (q0, q1))
    lam = np.linspace(0, 1, n + 1)
    straight = q0 + lam * (q1 - q0)
    rng = np.random.default_rng(0)
    X = np.stack([straight]
                 + waypoint_curves(q0, q1, lam, np.linspace(min(q0, q1) - 1, max(q0, q1) + 1, 9))
                 + [straight + rng.normal(0.0, 0.3 * (1 + abs(q1 - q0)), n + 1)
                    * np.sin(np.pi * lam) for _ in range(restarts - 1)])
    X[:, 0], X[:, -1] = q0, q1
    T_n, _ = _tonelli_newton(model, tau, t, X)
    fine = np.interp(np.linspace(0, 1, 2 * n + 1), lam, X[np.argmin(T_n)])[None]
    T_2n, _ = _tonelli_newton(model, tau, t, fine)
    return float((4 * T_2n[0] - T_n.min()) / 3)


def triangle_check(model: HamiltonianModel, t0: float, t1: float, t2: float,
                   q0, q2, scan_grid, sigma_eff=None):
    """Evaluate both sides of the concatenation identity on a scan grid.

    Returns ``(lhs, rhs_min, rhs_values)`` for
    ``A_{t0}^{t2}(q0, q2)`` versus ``min_q A_{t0}^{t1}(q0, q) + A_{t1}^{t2}(q, q2)``.
    """
    if not (t0 < t1 < t2):
        raise ConfigError("need t0 < t1 < t2")
    q0 = np.atleast_1d(np.asarray(q0, float))
    q2 = np.atleast_1d(np.asarray(q2, float))
    grid = np.asarray(scan_grid, float).reshape(-1, 1)
    lhs, _ = minimal_action(model, t0, t2, q0, q2, sigma_eff=sigma_eff)
    v1, _, _, _ = minimal_action_batch(model, t0, t1, np.broadcast_to(q0, grid.shape),
                                       grid, sigma_eff=sigma_eff)
    v2, _, _, _ = minimal_action_batch(model, t1, t2, grid,
                                       np.broadcast_to(q2, grid.shape),
                                       sigma_eff=sigma_eff)
    rhs = v1 + v2
    return float(lhs), float(np.min(rhs)), rhs
