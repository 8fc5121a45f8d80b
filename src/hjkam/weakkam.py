"""Critical value, weak KAM solutions, Mane potential, and Aubry sets.

On the grid ``T^t`` is min-plus linear in its action kernel K, so iterating
it from any start makes the increment ``T^t v - v`` constant after finitely
many steps: the constant is the min-plus eigenvalue of K (its minimum cycle
mean, which is ``-alpha t``) and v is an eigenvector, a discrete weak KAM
solution.  One loop, ``_eigen_iterate``, runs that iteration for the
critical value (from zero), for weak KAM solutions (from the critical
value's eigenvector, zero, or a given operand) and for the Aubry mask,
which marks the critical graph: the nodes on cycles of the converged argmin
map.  With several static classes the eigenvector is not unique; the one
returned is the one the iteration reaches from its start.  Pair actions
come from the grid layer's ``_pair_actions`` and every operator step from
``apply_T``.  The Mane potential is a shortest path on the kernel graph:
the nodes are the grid, the edges are kernel entries ``A^h + a h`` over a
few horizons h, and its all-pairs distances are the graph's min-plus
closure (Floyd's algorithm), whose negative cycles mark the sub-critical
levels.  Invariant sets prune backward-flowed graph seeds against the graph
neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .action import minimal_action, reconstruct_trajectory
from .errors import ConfigError, LevelBelowCritical, NonConvergence, SolverDiverged
from .flow import Trajectory, _steps_for, integrate_batch, integrate_flow, resolve_sigma
from .hamiltonian import (MAX_NEWTON_ITER, TOL_NEWTON, HamiltonianModel, check_hypotheses,
                          legendre_batch)
from .laxoleinik import (GridFunction, _grad_sups, _min_plus, _pair_actions, action_kernel,
                         apply_T, velocity_radius)

TOL_ALPHA = 1e-2
TOL_WK = 5e-3
TOL_ITER = 1e-9
TOL_LEVEL_QUAD = 1e-13
MANE_HORIZONS = 8
# rounding allowance on a cycle of the kernel graph at the critical level
LOOP_TOL = 1e-12


@dataclass
class WeakKamResult:
    """Critical value with the weak KAM fixed point that produced it."""

    alpha: float
    u: Optional[GridFunction]
    residual: Optional[float]
    t_probe: Optional[float]
    history: list
    converged: bool = True
    u_raw: Optional[GridFunction] = None

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "residual": self.residual,
            "t_probe": self.t_probe,
            "converged": self.converged,
            "history": [[float(a), float(b), float(c)] for a, b, c in self.history],
        }


def _require_torus(model):
    if not (model.periodic and model.autonomous):
        raise ConfigError("periodic autonomous model required")


def _require_steps(t_step, t_max):
    if not (0 < t_step < np.inf and 0 < t_max < np.inf):
        raise ConfigError(f"need finite t_step > 0 and t_max > 0, "
                          f"got t_step = {t_step!r}, t_max = {t_max!r}")


def _eigen_iterate(model, v, t, shift, t_max, sigma_eff, tol):
    """Iterate ``v <- T^t v + shift`` until the increment is constant.

    Returns the last iterate, the last increment, the ``(time, max, min)``
    history and whether ``ptp(increment) <= tol`` was reached within
    ``t_max``; it takes at least one step.  The shift is added in place to
    the fresh image of ``apply_T``, and every iterate must stay finite.
    """
    history = []
    for k in range(1, max(1, int(np.ceil(t_max / t - 1e-9))) + 1):
        nxt = apply_T(model, v, 0.0, t, sigma_eff=sigma_eff)
        nxt.values += shift
        inc = nxt.values - v.values
        v = nxt
        hi, lo = float(v.values.max()), float(v.values.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ConfigError("grid function has non-finite values")
        history.append((k * t, hi, lo))
        if inc.max() - inc.min() <= tol:
            return v, inc, history, True
    return v, inc, history, False


def critical_value(model: HamiltonianModel, grid_n: int = 128, t_step: float = 0.2,
                   t_max: float = 8.0, sigma_eff=None,
                   tol_alpha: float = TOL_ALPHA) -> WeakKamResult:
    """Periodic critical value: the min-plus eigenvalue of ``T^t`` on the grid.

    Iterates ``T^t`` from zero until the increment ``T^t v - v`` is constant
    and reads ``alpha = -mean(increment) / t``, which is ``-lambda / t`` for
    the minimum cycle mean ``lambda`` of the kernel.  The result carries the
    eigenvector reached from zero in ``u_raw`` (and min-normalised in ``u``).
    The step is ``t_step`` cut to the twist window, so that every kernel
    holds short-time generating values; ``t_probe`` records it.  ``t_max``
    caps the iteration: NonConvergence, with the partial result, when the
    increment still spreads there, or when alpha leaves ``[-M, M]``;
    ConfigError unless ``t_step`` and ``t_max`` are positive and finite.
    """
    _require_torus(model)
    _require_steps(t_step, t_max)
    t_step = min(t_step, resolve_sigma(model, sigma_eff))
    zero = GridFunction(1, grid_n, np.zeros(grid_n))
    v, inc, history, converged = _eigen_iterate(model, zero, t_step, 0.0, t_max,
                                                sigma_eff, TOL_ITER)
    alpha = -float(np.mean(inc)) / t_step
    u_norm = GridFunction(1, grid_n, v.values - v.values.min())
    result = WeakKamResult(alpha=alpha, u=u_norm, residual=None, t_probe=t_step,
                           history=history, converged=converged, u_raw=v)
    if not converged:
        raise NonConvergence(f"increment of T^t still spreads {np.ptp(inc):.3e} "
                             f"at t = {history[-1][0]:.6g}", result=result)
    report = check_hypotheses(model, n_samples=64)
    if not (-report.M_emp - tol_alpha <= alpha <= report.M_emp + tol_alpha):
        result.converged = False
        raise NonConvergence(f"alpha {alpha:.6g} outside [-M, M]", result=result)
    return result


def _slopes(u: GridFunction):
    """Forward, backward and centred differences of ``u``, and the mask of
    nodes where the one-sided ones agree (nodes off the kinks)."""
    n = u.n_per_dim
    du_f = (np.roll(u.values, -1) - u.values) * n
    du_b = (u.values - np.roll(u.values, 1)) * n
    consistent = np.abs(du_f - du_b) <= 0.1 * (1.0 + u.lip_estimate)
    return du_f, du_b, (du_f + du_b) / 2, consistent


def is_subsolution(model: HamiltonianModel, u: GridFunction, a: float,
                   n_pairs: int = 200, slack: float = 1e-3, seed: int = 0,
                   sigma_eff=None):
    """Sampled sub-solution test at level ``a``.

    Checks ``u(q1) - u(q0) <= A^t(q0, q1) + a t`` on random node pairs at
    the horizons ``sigma / 4``, ``5 sigma / 8`` and ``sigma``, plus
    ``H(q, du) <= a`` at nodes whose one-sided differences agree (kinks are
    excluded).  Returns ``(passed, worst_violation)``.
    """
    _require_torus(model)
    sig = resolve_sigma(model, sigma_eff)
    n = u.n_per_dim
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, n_pairs)
    j = rng.integers(0, n, n_pairs)
    worst = -np.inf
    horizons = sig * np.array([0.25, 0.625, 1.0])
    # A^t between torus points: minimum over the winding representatives
    # w = -1, 0, 1, stacked as three row blocks of one batch per horizon
    Q0 = np.tile(i / n, 3)[:, None]
    Q1 = np.concatenate([j / n + w for w in (-1.0, 0.0, 1.0)])[:, None]
    for t in horizons:
        act = _pair_actions(model, 0.0, float(t), Q0, Q1, sig).reshape(3, -1).min(axis=0)
        excess = u.values[j] - u.values[i] - act - a * t
        worst = max(worst, float(excess.max()))
    _, _, du_c, consistent = _slopes(u)
    if consistent.any():
        qs = u.nodes[consistent][:, None]
        Hvals = model.value(0.0, qs, du_c[consistent][:, None])
        worst = max(worst, float((Hvals - a).max()))
    return worst <= slack, worst


def weak_kam_solve(model: HamiltonianModel, grid_n: int = 128,
                   alpha: Optional[float] = None, t_step: float = 0.1,
                   t_max: float = 40.0, sigma_eff=None, u0: Optional[GridFunction] = None,
                   tol_wk: float = TOL_WK) -> WeakKamResult:
    """Weak KAM solution as the limit of ``T^t u + t alpha`` from a seed.

    The seed is ``u0`` when given.  Otherwise, when ``alpha`` is None, alpha
    and the seed are the critical value at ``t_step`` and the eigenvector
    ``critical_value`` reached, so the iteration is not run a second time;
    when ``alpha`` is given, the seed is zero.  The iteration stops once the
    increment is constant, which is a min-plus eigenvector of ``T^t``; with
    several static classes it is the one reached from the seed.  The
    fixed-point residual decides the result: off the critical level the
    increment settles at ``t (alpha - alpha_c)`` and the residual keeps it.
    The step is cut to the twist window, as in ``critical_value``.  Raises
    NonConvergence, with the partial result, when the residual exceeds
    ``tol_wk`` or the cap ``t_max`` is hit; ConfigError unless ``t_step``
    and ``t_max`` are positive and finite.
    """
    _require_torus(model)
    _require_steps(t_step, t_max)
    t_step = min(t_step, resolve_sigma(model, sigma_eff))
    if u0 is not None and u0.n_per_dim != grid_n:
        raise ConfigError(f"u0 has {u0.n_per_dim} nodes, grid_n is {grid_n}")
    if alpha is None:
        crit = critical_value(model, grid_n=grid_n, t_step=t_step, sigma_eff=sigma_eff)
        alpha, seed = crit.alpha, crit.u_raw
    else:
        seed = GridFunction(1, grid_n, np.zeros(grid_n))
    u = seed if u0 is None else u0
    u, _, history, converged = _eigen_iterate(model, u, t_step, t_step * alpha, t_max,
                                              sigma_eff, TOL_ITER)
    residual = fixed_point_residual(model, u, alpha, t_step, sigma_eff=sigma_eff)
    u_norm = GridFunction(1, grid_n, u.values - u.values.min())
    result = WeakKamResult(alpha=alpha, u=u_norm, residual=residual, t_probe=t_step,
                           history=history, converged=converged and residual <= tol_wk,
                           u_raw=u)
    if residual > tol_wk:
        raise NonConvergence(f"fixed-point residual {residual:.3e} > {tol_wk:.1e}",
                             result=result)
    if not converged:
        raise NonConvergence(f"increment still spreads at t = {history[-1][0]:.6g}",
                             result=result)
    return result


def fixed_point_residual(model: HamiltonianModel, u: GridFunction, alpha: float,
                         t: float, sigma_eff=None) -> float:
    """Sup-norm defect of ``T^t u + t alpha = u``."""
    Tu = apply_T(model, u, 0.0, t, sigma_eff=sigma_eff)
    return float(np.max(np.abs(Tu.values + t * alpha - u.values)))


@dataclass
class ManeField:
    """Mane potential from a base point, with the horizons of its paths."""

    a: float
    q_base: float
    phi: GridFunction
    t_argmin: np.ndarray


def _mane_horizons(model, a, n, sig):
    """Horizons of the kernel graph at level ``a``, geometric from the time
    the level's top speed takes for one cell up to ``sig``, and the radius
    in cells at each.  On ``{H <= a}``, ``|p| <= band`` by the convexity
    bound ``H(q, p) >= H(q, 0) + H_p(q, 0) p + m p^2 / 2``; the top speed
    is ``sup |H_p|`` on that band.  ``velocity_radius`` bounds the travel
    from that band as start momentum: for the built-in families by the
    momentum envelope, whose energy cap binds at the longer horizons of the
    autonomous ones."""
    q, zero = np.arange(64)[:, None] / 64, np.zeros((64, 1))
    h0 = float(np.min(model.value(0.0, q, zero)))
    g0 = float(np.max(np.abs(model.jet(0.0, q, zero)[1])))
    band = (g0 + np.sqrt(g0 ** 2 + 2 * model.m * max(a - h0, 0.0))) / model.m
    speed = _grad_sups(model, [0.0], band)[1]
    hs = np.geomspace(sig / max(1.0, n * speed * sig), sig, MANE_HORIZONS)
    Ds = [min(n // 2, int(np.ceil(velocity_radius(model, 0.0, h, band, n) * n)))
          for h in hs]
    return hs, Ds


def _kernel_graph(model, a, n, sig):
    """Cheapest edge ``A^h(x_i, x_j) + a h`` per (i, j) over the
    ``action_kernel`` entries at the horizons and radii of ``_mane_horizons``,
    and the horizon it takes.  A path costs the action of a broken orbit
    plus ``a`` times its duration."""
    hs, Ds = _mane_horizons(model, a, n, sig)
    i = np.arange(n)[:, None]
    E = np.full((len(hs), n, n), np.inf)
    for E_h, h, D in zip(E, hs, Ds):
        j = (i + np.arange(-D, D + 1)) % n
        K = action_kernel(model, 0.0, h, n, D, sigma_eff=sig) + a * h
        # |dd| = n/2 reaches the same node both ways round: keep the cheaper
        np.minimum.at(E_h, (np.broadcast_to(i, j.shape), j), np.broadcast_to(K, j.shape))
    k = np.argmin(E, axis=0)
    return np.min(E, axis=0), hs[k]


_MANE_CACHE: dict = {}


def _mane_star(model, a, n, sigma_eff):
    """All-pairs shortest paths ``S`` of the kernel graph, and the summed
    edge horizons ``T`` along them.

    ``S[i, j]`` is the grid Mane potential from ``x_i`` to ``x_j``, by
    Floyd's min-plus closure; ``T`` follows each improvement.  Before pivot
    ``k``, ``S[k, k]`` is the cheapest cycle through ``k`` over the earlier
    pivots (or its self-loop): below ``-LOOP_TOL`` the level is sub-critical
    and the closure stops there, before the cycle can grow; otherwise it is
    dropped, since at or above the critical level a cycle costs zero up to
    rounding.  Cached read-only per (model, a, n, sigma).
    """
    if not np.isfinite(a):
        raise ConfigError(f"energy level must be finite, got a = {a}")
    sig = resolve_sigma(model, sigma_eff)
    key = (model.cache_key(), round(a, 12), n, round(sig, 12))
    if key in _MANE_CACHE:
        return _MANE_CACHE[key]
    S, T = _kernel_graph(model, a, n, sig)
    for k in range(n):
        if S[k, k] < -LOOP_TOL:
            raise LevelBelowCritical(f"cycle of cost {S[k, k]:.3e} through q = {k / n:.6g} "
                                     f"at level a = {a:.6g}: the level is sub-critical")
        S[k, k] = np.inf
        via = S[:, k, None] + S[k]
        better = via < S
        np.copyto(S, via, where=better)
        np.copyto(T, T[:, k, None] + T[k], where=better)
    np.fill_diagonal(S, 0.0)
    np.fill_diagonal(T, 0.0)
    S.flags.writeable = T.flags.writeable = False
    if len(_MANE_CACHE) >= 16:
        _MANE_CACHE.pop(next(iter(_MANE_CACHE)))
    _MANE_CACHE[key] = S, T
    return S, T


def _cell(q, n):
    """The two grid nodes around ``q`` and their linear interpolation weights,
    applied as explicit two-term sums: a BLAS product rounds by its kernel.
    ConfigError for a non-finite ``q``."""
    if not np.isfinite(q):
        raise ConfigError(f"point must be finite, got q = {q}")
    x = (float(q) % 1.0) * n
    i = int(np.floor(x))
    return np.array([i % n, (i + 1) % n]), np.array([1.0 - (x - i), x - i])


def mane_potential(model: HamiltonianModel, a: float, q_base: float,
                   grid_n: int = 128, sigma_eff=None) -> ManeField:
    """Mane potential ``inf_t (A^t(q_base, .) + a t)`` on the grid.

    It is the base node's row of the kernel graph's shortest-path matrix
    (``_mane_star``); an off-grid base interpolates linearly between its two
    neighbouring nodes' rows.  ``t_argmin`` sums the edge horizons along each
    shortest path.  Raises LevelBelowCritical below the critical value and
    ConfigError for a non-finite level or base point.
    """
    _require_torus(model)
    i, w = _cell(q_base, grid_n)
    S, T = _mane_star(model, a, grid_n, sigma_eff)
    phi = GridFunction(1, grid_n, w[0] * S[i[0]] + w[1] * S[i[1]])
    return ManeField(a=a, q_base=float(q_base), phi=phi,
                     t_argmin=w[0] * T[i[0]] + w[1] * T[i[1]])


def mane_pair(model: HamiltonianModel, a: float, q0: float, q1: float,
              grid_n: int = 128, sigma_eff=None) -> float:
    """Mane potential between torus points: a bilinear read of the grid's
    shortest-path matrix, the rows around ``q0`` first; ConfigError for a
    non-finite level or endpoint."""
    _require_torus(model)
    i, w = _cell(q0, grid_n)
    j, v = _cell(q1, grid_n)
    S, _ = _mane_star(model, a, grid_n, sigma_eff)
    row = w[0] * S[i[0], j] + w[1] * S[i[1], j]
    return float(v[0] * row[0] + v[1] * row[1])


def _level_momentum(model, a, q, sign):
    """Root ``p_a(q)`` of ``H(q, .) = a`` where ``sign H_p > 0``, at ``q`` of shape (1,).

    Newton from the zero-velocity Legendre point plus ``sign sqrt(2 (a - min_p H)
    / m)``, on or past the root by ``H_pp >= m``, stops on a step under TOL_NEWTON
    or one that turns back.  LevelBelowCritical where ``min_p H(q, .) >= a``.
    """
    L0, p = legendre_batch(model, 0.0, q, np.zeros(1))
    gap = a + float(L0)
    if gap <= 0:
        raise LevelBelowCritical(f"min_p H({q[0]:.6g}, .) = {-float(L0):.6g} >= a = {a:.6g}")
    p = p + sign * np.sqrt(2 * gap / model.m)
    for _ in range(MAX_NEWTON_ITER):
        dp = (model.value(0.0, q, p) - a) / model.jet(0.0, q, p)[1]
        p = p - dp
        if sign * dp[0] <= TOL_NEWTON * (1 + abs(p[0])):
            return p
    raise SolverDiverged("level-momentum Newton iteration failed", residual=abs(dp[0]))


def calibrated_curve(model: HamiltonianModel, a: float, q0: float, q1: float,
                     horizon_cap: float = 4.0, sigma_eff=None) -> Trajectory:
    """Minimizing orbit of ``inf_t (A^t(q0, q1) + a t)`` on the energy level a.

    Endpoints are positions on the universal cover.  Such a minimizer moves
    on ``H = a`` (Carneiro) with the momentum ``p_a(q)``, the root of
    ``H(q, .) = a`` on the branch of the sign of ``q1 - q0``, over the time
    ``t* = int_q0^q1 dq / |H_p(q, p_a(q))|`` (adaptive quadrature, absolute
    and relative tolerance TOL_LEVEL_QUAD); the orbit is the flow of
    ``(q0, p_a(q0))`` over ``t*`` at step 1e-3.  ``t*`` is infinite where
    ``min_p H >= a`` on the way (a hilltop at the critical level); then, and
    when ``t* >= horizon_cap``, the orbit is the minimal-action chain at the
    cap, whose energy approaches ``a``.  ConfigError for a non-finite level,
    equal endpoints or a non-autonomous model (no energy level);
    NonConvergence if q1 is missed.
    """
    from scipy.integrate import quad
    if not np.isfinite(a):
        raise ConfigError(f"energy level must be finite, got a = {a}")
    if not model.autonomous:
        raise ConfigError("energy level undefined: calibrated_curve needs an autonomous model")
    if abs(float(q1) - float(q0)) < 1e-14:
        raise ConfigError("calibrated_curve needs distinct endpoints")
    target = float(q1)
    sign = 1.0 if target > q0 else -1.0

    def time_rate(x):
        q = np.array([x])
        return 1.0 / abs(float(model.jet(0.0, q, _level_momentum(model, a, q, sign))[1][0]))
    try:
        p0 = _level_momentum(model, a, np.array([float(q0)]), sign)
        t_star = sign * quad(time_rate, q0, target, epsabs=TOL_LEVEL_QUAD,
                             epsrel=TOL_LEVEL_QUAD)[0]
    except LevelBelowCritical:
        t_star = np.inf
    if t_star < horizon_cap:
        traj = integrate_flow(model, (q0, p0), 0.0, t_star)
    else:
        _, path = minimal_action(model, 0.0, horizon_cap, [q0], [target],
                                 sigma_eff=resolve_sigma(model, sigma_eff))
        traj = reconstruct_trajectory(model, path)
    miss = abs(float(traj.Q[-1, 0]) - target)
    if miss > 1e-5 * (1 + abs(target)):
        raise NonConvergence(f"calibrated orbit misses target by {miss:.2e}")
    return traj


@dataclass
class AubryResult:
    """Numerical Aubry mask with the eigenvector that produced it."""

    mask: np.ndarray
    alpha: float
    u_limit: GridFunction

    def marked_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def aubry_set(model: HamiltonianModel, grid_n: int = 128, sigma_eff=None,
              t_step: float = 0.1) -> AubryResult:
    """Aubry mask: the critical graph of ``T^t`` on the grid.

    ``alpha`` and the eigenvector ``u_limit`` come from one ``critical_value``
    call at ``t_step`` cut to the twist window, its ``t_probe``.  The mask
    marks the nodes on cycles of the argmin map of ``T^t`` at ``u_limit``;
    each such cycle is a cycle of minimum mean ``-alpha t`` in the kernel.  With several static classes the eigenvector
    reached from zero decides which critical cycles the argmin map keeps.
    """
    _require_torus(model)
    res = critical_value(model, grid_n=grid_n, t_step=t_step, sigma_eff=sigma_eff)
    _, dd = _min_plus(model, res.u_raw, 0.0, res.t_probe, sigma_eff, dual=False)
    src = (np.arange(grid_n) - dd) % grid_n
    # after n steps every node sits on a cycle, and f^n maps onto the cycles
    for _ in range(int(np.ceil(np.log2(grid_n)))):
        src = src[src]
    mask = np.zeros(grid_n, bool)
    mask[src] = True
    return AubryResult(mask=mask, alpha=res.alpha, u_limit=res.u_raw)


@dataclass
class InvariantSetResult:
    """Backward-flowed graph survivors approximating the invariant set."""

    points: np.ndarray
    seeds: np.ndarray
    survivor_seeds: np.ndarray
    t_step: float
    n_steps: int
    tol_graph: float
    stable: bool


def _graph_distance(points, graph, n):
    dq = points[:, None, 0] - graph[None, :, 0]
    dq = dq - np.round(dq)
    dp = points[:, None, 1] - graph[None, :, 1]
    return np.sqrt(dq * dq + dp * dp).min(axis=1)


def invariant_set(model: HamiltonianModel, u: GridFunction, t_step: float = 0.2,
                  n_steps: int = 40, tol_graph: Optional[float] = None) -> InvariantSetResult:
    """Prune backward-flowed graph seeds against the graph neighborhood.

    Seeds are ``(q, du(q))`` at nodes; each backward step discards points
    that left the ``tol_graph`` neighborhood of the sampled graph, and the
    surviving flowed points are returned (their accumulation approximates
    the invariant set inside the graph).
    """
    _require_torus(model)
    n = u.n_per_dim
    # seeds only where the one-sided slopes agree; at kinks the closure of
    # the graph contains both one-sided limits, so keep those as reference
    du_f, du_b, du, consistent = _slopes(u)
    seeds = np.stack([u.nodes[consistent], du[consistent]], axis=1)
    kinks = ~consistent
    graph = np.concatenate([
        seeds,
        np.stack([u.nodes[kinks], du_f[kinks]], axis=1),
        np.stack([u.nodes[kinks], du_b[kinks]], axis=1),
    ])
    if tol_graph is None:
        lip_du = float(np.max(np.abs(np.diff(du))) * n)
        tol_graph = float(np.clip(6.0 * (1.0 + lip_du) / n, 0.02, 0.3))
    pts = seeds.copy()
    alive = np.ones(len(pts), bool)
    n_sub = _steps_for(t_step)
    for _ in range(n_steps):
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            break
        Q, P, _, _ = integrate_batch(model, 0.0, -t_step, pts[idx, 0:1],
                                     pts[idx, 1:2], n_sub)
        pts[idx, 0] = Q[:, 0]
        pts[idx, 1] = P[:, 0]
        dist = _graph_distance(pts[idx], graph, n)
        alive[idx[dist > tol_graph]] = False
    survivors = pts[alive]
    seed_survivors = seeds[alive]
    stable = True
    if alive.any():
        for sgn in (+1.0, -1.0):
            Q, P, _, _ = integrate_batch(model, 0.0, sgn * t_step,
                                         survivors[:, 0:1], survivors[:, 1:2], n_sub)
            moved = np.stack([Q[:, 0], P[:, 0]], axis=1)
            dmin = _graph_distance(moved, survivors, n)
            stable = stable and bool(np.all(dmin <= tol_graph))
    survivors = survivors.copy()
    survivors[:, 0] = np.mod(survivors[:, 0], 1.0)
    return InvariantSetResult(points=survivors, seeds=graph,
                              survivor_seeds=seed_survivors, t_step=t_step,
                              n_steps=n_steps, tol_graph=float(tol_graph),
                              stable=stable)
