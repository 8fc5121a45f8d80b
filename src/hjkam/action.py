"""Minimal action over arbitrary horizons by broken geodesics.

A path is a chain of short-time orbit segments joined at interior nodes;
its action is the sum of the segments' generating values, and the chain
is critical exactly when the momenta agree at every node.  One solver
relaxes a batch of chains: damped Newton on the chain action, with the
tridiagonal Hessian assembled from each segment's monodromy blocks and an
Armijo line search on the summed action.  Every evaluation is one
warm-started ``generating_batch`` call that returns value, end momenta and
monodromy together.  The Lagrangian-side Tonelli minimizer is kept fully
independent of this pipeline and serves as the designated brute-force
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, MultistartExhausted
from .flow import resolve_sigma
from .generating import KERNEL_STEP, TARGET_STEP, generating_batch
from .hamiltonian import HamiltonianModel, legendre_batch

TOL_CRIT_BASE = 1e-6
TOL_A_BASE = 1e-6


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
        rows = ["t_i,theta_i,p_minus,p_plus"]
        times = self.node_times()
        for i in range(self.n - 1):
            rows.append(f"{times[i]:.17g},{self.nodes[i, 0]:.17g},"
                        f"{self.p_minus[i, 0]:.17g},{self.p_plus[i, 0]:.17g}")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(rows) + "\n")


def default_segments(tau: float, t: float, sigma: float) -> int:
    """Smallest segment count keeping horizons inside half the twist window."""
    return max(1, int(np.ceil((t - tau) / (sigma / 2) - 1e-12)))


def broken_action_value(model: HamiltonianModel, tau: float, t: float, q0, q1,
                        nodes, sigma_eff=None, step_target=None) -> float:
    """Total action of the chain through ``nodes`` (uniform time slots)."""
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    nodes = np.asarray(nodes, float).reshape(-1, model.d)
    pts = np.concatenate([q0[None], nodes, q1[None]])[None]
    return float(_segments(model, tau, t, pts, sigma_eff,
                           step_target or TARGET_STEP)[0].sum())


def _segments(model, tau, t, pts, sigma_eff, step_target, p_init=None,
              want_monodromy=False):
    """Value, end momenta and monodromy of every segment of a batch of chains.

    ``pts`` is (B, n+1, d) with endpoints included and ``p_init`` (B, n, d)
    optional initial momenta to warm-start the shooting.  Returns
    ``(S, rho0, rho1, Mono)`` shaped (B, n), (B, n, d), (B, n, d) and
    (B, n, 2d, 2d); ``Mono`` is None unless requested.
    """
    Bsz, n_plus, d = pts.shape
    n = n_plus - 1
    dt = (t - tau) / n

    def solve(ta, tb, a, b, p0):
        S, r0, r1, _, Mono = generating_batch(
            model, ta, tb, a, b, sigma_eff=sigma_eff, check_sigma=False, p_init=p0,
            want_monodromy=want_monodromy, step_target=step_target)
        return S, r0, r1, Mono

    if model.autonomous:
        def flat(x):
            return None if x is None else x.reshape((Bsz * n,) + x.shape[2:])
        out = solve(0.0, dt, flat(pts[:, :-1]), flat(pts[:, 1:]), flat(p_init))
        return tuple(None if x is None else x.reshape((Bsz, n) + x.shape[1:])
                     for x in out)
    # non-autonomous segments live in distinct time slots: one call per slot
    outs = [solve(tau + i * dt, tau + (i + 1) * dt, pts[:, i], pts[:, i + 1],
                  None if p_init is None else p_init[:, i]) for i in range(n)]
    return tuple(None if col[0] is None else np.stack(col, axis=1)
                 for col in zip(*outs))


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

    Segment j contributes ``d11 = dpP dpQ^-1`` to node j, ``d00 = dpQ^-1 dqQ``
    to node j-1 and ``-dpQ^-1`` to the coupling between them.  Returns the
    direction (B, n-1, d) and a mask of chains whose Hessian is positive
    definite after regularization.
    """
    Bsz, m, d = g.shape
    A = Mono[..., :d, :d]
    Bm = Mono[..., :d, d:]
    D = Mono[..., d:, d:]
    if d == 1:
        b = Bm[..., 0, 0]
        b = np.where(np.abs(b) < 1e-14, 1e-14, b)
        diag = D[:, :-1, 0, 0] / b[:, :-1] + A[:, 1:, 0, 0] / b[:, 1:]
        off = -1.0 / b[:, 1:-1]
        shift = np.zeros(Bsz)
        for _reg in range(4):
            delta, ok = _thomas_batch(diag + shift[:, None], off, g[..., 0])
            if ok.all():
                break
            shift = np.where(ok, shift, np.maximum(2 * shift, 1.0))
        return delta[..., None], ok
    # d > 1: dense block-tridiagonal Hessian, lifted to positive definite
    Binv = np.linalg.inv(Bm)
    blocks = D[:, :-1] @ Binv[:, :-1] + Binv[:, 1:] @ A[:, 1:]
    H = np.zeros((Bsz, m * d, m * d))
    for j in range(m):
        H[:, j * d:(j + 1) * d, j * d:(j + 1) * d] = blocks[:, j]
        if j < m - 1:
            H[:, j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = -Binv[:, j + 1]
            H[:, (j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = \
                -np.swapaxes(Binv[:, j + 1], -1, -2)
    H = (H + np.swapaxes(H, -1, -2)) / 2
    w = np.linalg.eigvalsh(H)[:, 0]
    H += np.maximum(1e-10 - w, 0.0)[:, None, None] * np.eye(m * d)
    delta = np.linalg.solve(H, g.reshape(Bsz, m * d, 1))
    return delta.reshape(Bsz, m, d), np.ones(Bsz, bool)


def _relax_chain(model, tau, t, pts, sigma_eff, step_target, max_sweeps, tol_crit):
    """Damped Newton on the action of a batch of chains.

    ``pts`` is (B, n+1, d) with endpoints included; it is updated in place.
    Only chains whose largest momentum jump exceeds ``tol_crit`` are
    iterated.  Where the regularized Hessian stays indefinite, or the Newton
    direction is not a descent direction, the chain steps along the
    gradient instead.  Steps are backtracked until the summed chain action
    meets the Armijo condition; a chain whose line search fails is left
    where it is.  Returns ``(pts, jumps, S, rho0, rho1)``: the momentum-jump
    norms (B, n-1) and the per-segment values and momenta of the last
    evaluation.
    """
    n = pts.shape[1] - 1
    S, r0, r1, Mono = _segments(model, tau, t, pts, sigma_eff, step_target,
                                want_monodromy=n > 1)
    stalled = np.zeros(len(pts), bool)
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
        lam = np.ones(len(act))
        todo = np.ones(len(act), bool)
        for _bt in range(10):
            k = np.flatnonzero(todo)
            trial = pts[act[k]]
            trial[:, 1:-1] -= lam[k, None, None] * delta[k]
            St, r0t, r1t, Mt = _segments(model, tau, t, trial, sigma_eff, step_target,
                                         p_init=r0[act[k]], want_monodromy=True)
            good = St.sum(axis=1) <= S_act[k] - 1e-4 * lam[k] * slope[k]
            i = act[k[good]]
            pts[i], S[i], r0[i], r1[i], Mono[i] = (trial[good], St[good], r0t[good],
                                                  r1t[good], Mt[good])
            todo[k[good]] = False
            if not todo.any():
                break
            lam[todo] *= 0.5
        stalled[act[todo]] = True
    jumps = np.linalg.norm(r1[:, :-1] - r0[:, 1:], axis=-1)
    return pts, jumps, S, r0, r1


def minimal_action_batch(model: HamiltonianModel, tau: float, t: float, Q0, Q1,
                         sigma_eff=None, n: Optional[int] = None,
                         init_nodes: Optional[np.ndarray] = None,
                         step_target: float = KERNEL_STEP, max_sweeps: int = 12,
                         tol_crit: Optional[float] = None):
    """Relax one chain per batch entry from a single start.

    Returns ``(values, pts, jumps, rho0)`` where ``pts`` includes endpoints.
    """
    sig = resolve_sigma(model, sigma_eff)
    Q0 = np.asarray(Q0, float).reshape(-1, model.d)
    Q1 = np.asarray(Q1, float).reshape(-1, model.d)
    if n is None:
        n = default_segments(tau, t, sig)
    lam = np.linspace(0, 1, n + 1)
    pts = Q0[:, None, :] + lam[None, :, None] * (Q1 - Q0)[:, None, :]
    if init_nodes is not None and n > 1:
        pts[:, 1:-1, :] = init_nodes
    if tol_crit is None:
        # per chain, so that a chain's result does not depend on its batch
        scale = 1.0 + np.linalg.norm(Q1 - Q0, axis=1) / max(t - tau, 1e-12)
        tol_crit = TOL_CRIT_BASE * scale
    pts, jumps, S, rho0, _ = _relax_chain(model, tau, t, pts, sig, step_target,
                                          max_sweeps, tol_crit)
    return S.sum(axis=1), pts, jumps, rho0[:, 0]


def minimal_action(model: HamiltonianModel, tau: float, t: float, q0, q1,
                   sigma_eff=None, n: Optional[int] = None, restarts: int = 5,
                   warm_start: Optional[np.ndarray] = None, seed: int = 0,
                   step_target: float = 2e-3, max_sweeps: int = 25):
    """Minimal action ``A_tau^t(q0, q1)`` with its reconstructed chain.

    Multistarts: straight-line interpolation, an optional warm start from a
    neighboring problem, and seeded random perturbations.  Raises
    MultistartExhausted when the restarts disagree beyond tolerance and
    none meets the momentum-jump criterion.
    """
    if t <= tau:
        raise ConfigError("minimal_action requires t > tau")
    sig = resolve_sigma(model, sigma_eff)
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    if n is None:
        n = default_segments(tau, t, sig)
    d = model.d
    lam = np.linspace(0, 1, n + 1)
    straight = q0[None, :] + lam[:, None] * (q1 - q0)[None, :]

    starts = [straight]
    if warm_start is not None and n > 1:
        w = np.asarray(warm_start, float).reshape(-1, d)
        if len(w) == n - 1:
            starts.append(np.concatenate([q0[None], w, q1[None]]))
    if d == 1 and n > 3 and t - tau > 2 * sig:
        lo = min(q0[0], q1[0]) - 1.0
        hi = max(q0[0], q1[0]) + 1.0
        for c in waypoint_curves(q0[0], q1[0], np.linspace(0, 1, n + 1),
                                 np.linspace(lo, hi, 7)):
            starts.append(c[:, None])
    rng = np.random.default_rng(seed)
    amp = 0.25 * (1.0 + float(np.linalg.norm(q1 - q0)))
    n_random = max(0, restarts - 1)
    for _ in range(n_random):
        pert = straight.copy()
        if n > 1:
            bump = rng.normal(0.0, amp, (n - 1, d))
            taper = np.sin(np.pi * lam[1:-1])[:, None]
            pert[1:-1] += bump * taper
        starts.append(pert)
    pts = np.stack(starts)

    scale = 1.0 + float(np.linalg.norm(q1 - q0)) / max(t - tau, 1e-12)
    tol_crit = TOL_CRIT_BASE * scale
    pts, jumps, S, rho0, rho1 = _relax_chain(model, tau, t, pts, sig, step_target,
                                             max_sweeps, tol_crit)
    values = S.sum(axis=1)
    ok = jumps.max(axis=1, initial=0.0) <= tol_crit
    tol_A = TOL_A_BASE * (1.0 + float(np.abs(values).max()))
    if not ok.any():
        if values.max() - values.min() > tol_A:
            raise MultistartExhausted(
                f"restarts disagree by {values.max() - values.min():.3e} and none "
                f"meets the jump criterion (worst jump {jumps.max():.3e})")
        ok = np.ones(len(pts), bool)
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
    from .flow import integrate_flow
    n = path.n
    dt = (path.t - path.tau) / n
    pts = np.concatenate([path.q0[None], path.nodes.reshape(-1, model.d),
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
    from .flow import Trajectory
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
    curve = np.asarray(curve, float)
    if curve.ndim == 1:
        curve = curve[:, None]
    if len(times) != len(curve):
        raise ConfigError("times and curve must have equal length")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("times must be increasing")
    dt = np.diff(times)
    mid_t = times[:-1] + dt / 2
    mid_q = (curve[1:] + curve[:-1]) / 2
    v = (curve[1:] - curve[:-1]) / dt[:, None]
    L, _ = legendre_batch(model, mid_t if not model.autonomous else 0.0, mid_q, v)
    return float(np.sum(L * dt))


def _discrete_action_and_grad(model, tau, t, q0, q1, theta, n):
    d = model.d
    h = (t - tau) / n
    pts = np.concatenate([q0[None], theta.reshape(n - 1, d), q1[None]])
    mid_t = tau + h * (np.arange(n) + 0.5)
    mid_q = (pts[1:] + pts[:-1]) / 2
    v = (pts[1:] - pts[:-1]) / h
    tt = mid_t if not model.autonomous else 0.0
    L, p_star = legendre_batch(model, tt, mid_q, v)
    Hq, _ = model.grad(tt, mid_q, p_star)
    Lq = -Hq
    value = float(np.sum(L) * h)
    # d/d theta_k: h/2 (Lq_k-1 + Lq_k) + (p*_{k-1} - p*_k)
    grad = 0.5 * h * (Lq[:-1] + Lq[1:]) + (p_star[:-1] - p_star[1:])
    return value, grad.ravel()


def waypoint_curves(q0, q1, lam, waypoints):
    """Travel-hold-travel initial curves through each waypoint (d = 1)."""
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
                   n_segments: int = 200, restarts: int = 3, seed: int = 0,
                   maxiter: int = 200) -> float:
    """Brute-force minimal Lagrangian action over discrete Lipschitz curves.

    Deliberately independent of the generating/action pipeline: uniform
    time grid, forward-difference velocities, limited-memory quasi-Newton.
    Starts cover the straight line, travel-hold-travel curves through a
    spread of waypoints (long horizons reward parking in cheap regions),
    and seeded random perturbations.
    """
    if n_segments < 2:
        raise ConfigError("tonelli oracle needs n_segments >= 2")
    d = model.d
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    n = n_segments
    lam = np.linspace(0, 1, n + 1)[1:-1]
    straight = (q0[None, :] + lam[:, None] * (q1 - q0)[None, :]).ravel()
    starts = [straight]
    if d == 1:
        lo = min(q0[0], q1[0]) - 1.0
        hi = max(q0[0], q1[0]) + 1.0
        for c in waypoint_curves(q0[0], q1[0], lam, np.linspace(lo, hi, 9)):
            starts.append(c)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts - 1)):
        taper = np.sin(np.pi * lam)
        starts.append(straight + (rng.normal(0.0, 0.3 * (1 + np.linalg.norm(q1 - q0)),
                                             (n - 1, d)) * taper[:, None]).ravel())
    best = np.inf
    for x0 in starts:
        out = minimize(lambda x: _discrete_action_and_grad(model, tau, t, q0, q1, x, n),
                       x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-12})
        best = min(best, float(out.fun))
    return best


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
    grid = np.asarray(scan_grid, float).reshape(-1, model.d)
    lhs, _ = minimal_action(model, t0, t2, q0, q2, sigma_eff=sigma_eff)
    v1, _, _, _ = minimal_action_batch(model, t0, t1, np.broadcast_to(q0, grid.shape),
                                       grid, sigma_eff=sigma_eff)
    v2, _, _, _ = minimal_action_batch(model, t1, t2, grid,
                                       np.broadcast_to(q2, grid.shape),
                                       sigma_eff=sigma_eff)
    rhs = v1 + v2
    return float(lhs), float(np.min(rhs)), rhs
