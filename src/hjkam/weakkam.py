"""Critical value, weak KAM solutions, Mane potential, and Aubry sets.

On the grid ``T^t`` is min-plus linear in its action kernel K, so iterating
it from any start makes the increment ``T^t v - v`` constant after finitely
many steps: the constant is the min-plus eigenvalue of K (its minimum cycle
mean, which is ``-alpha t``) and v is an eigenvector, a discrete weak KAM
solution.  One loop, ``_eigen_iterate``, runs that iteration for the
critical value (from zero), for weak KAM solutions (from a certified
sub-solution seed or a given operand) and for the Aubry mask, which marks
the critical graph: the nodes on cycles of the converged argmin map.  With
several static classes the eigenvector is not unique; the one returned is
the one the iteration reaches from its start.  Pair actions come from the
grid layer's ``_pair_actions`` and every operator step from ``apply_T``.
The Mane potential scans horizons on a log grid and continues past the
twist window by ``apply_T``; invariant sets prune backward-flowed graph
seeds against the graph neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .action import minimal_action, reconstruct_trajectory
from .errors import ConfigError, LevelBelowCritical, NonConvergence
from .flow import Trajectory, integrate_batch, resolve_sigma
from .hamiltonian import HamiltonianModel, check_hypotheses
from .laxoleinik import GridFunction, _min_plus, _pair_actions, apply_T, regularize_R

TOL_ALPHA = 1e-2
TOL_WK = 5e-3
TOL_ITER = 1e-9


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
    if model.d != 1:
        raise ConfigError("weak KAM grid computations are implemented for d = 1")


def _eigen_iterate(model, v, t, shift, t_max, sigma_eff, tol):
    """Iterate ``v <- T^t v + shift`` until the increment is constant.

    Returns the last iterate, the last increment, the ``(time, max, min)``
    history and whether ``ptp(increment) <= tol`` was reached within
    ``t_max``.
    """
    history = []
    for k in range(1, int(np.ceil(t_max / t - 1e-9)) + 1):
        nxt = apply_T(model, v, 0.0, t, sigma_eff=sigma_eff).shifted(shift)
        inc = nxt.values - v.values
        v = nxt
        history.append((k * t, float(v.values.max()), float(v.values.min())))
        if np.ptp(inc) <= tol:
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
    ``t_max`` caps the iteration: NonConvergence, with the partial result,
    when the increment still spreads there, or when alpha leaves ``[-M, M]``.
    """
    _require_torus(model)
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


def _torus_pair_actions(model, t, Q0, Q1, sigma_eff):
    """A^t between torus points: minimum over winding representatives."""
    sig = resolve_sigma(model, sigma_eff)
    Q0 = np.asarray(Q0, float).reshape(-1, 1)
    Q1 = np.asarray(Q1, float).reshape(-1, 1)
    return np.min([_pair_actions(model, 0.0, t, Q0, Q1 + w, sig)
                   for w in (-1.0, 0.0, 1.0)], axis=0)


def _slopes(u: GridFunction):
    """Forward, backward and centred differences of ``u``, and the mask of
    nodes where the one-sided ones agree (nodes off the kinks)."""
    n = u.n_per_dim
    du_f = (np.roll(u.values, -1) - u.values) * n
    du_b = (u.values - np.roll(u.values, 1)) * n
    consistent = np.abs(du_f - du_b) <= 0.1 * (1.0 + u.lip_estimate)
    return du_f, du_b, (du_f + du_b) / 2, consistent


def is_subsolution(model: HamiltonianModel, u: GridFunction, a: float,
                   n_pairs: int = 200, n_times: int = 3, slack: float = 1e-3,
                   seed: int = 0, sigma_eff=None):
    """Sampled sub-solution test at level ``a``.

    Checks ``u(q1) - u(q0) <= A^t(q0, q1) + a t`` on random node pairs and
    horizons, plus ``H(q, du) <= a`` at nodes whose one-sided differences
    agree (kinks are excluded).  Returns ``(passed, worst_violation)``.
    """
    _require_torus(model)
    sig = resolve_sigma(model, sigma_eff)
    n = u.n_per_dim
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, n_pairs)
    j = rng.integers(0, n, n_pairs)
    worst = -np.inf
    horizons = sig * (0.25 + 0.75 * np.arange(n_times) / max(n_times - 1, 1))
    for t in horizons:
        act = _torus_pair_actions(model, float(t), i / n, j / n, sig)
        excess = u.values[j] - u.values[i] - act - a * t
        worst = max(worst, float(excess.max()))
    _, _, du_c, consistent = _slopes(u)
    if consistent.any():
        qs = u.nodes[consistent][:, None]
        Hvals = model.value(0.0, qs, du_c[consistent][:, None])
        worst = max(worst, float((Hvals - a).max()))
    return worst <= slack, worst


def _subsolution_seed(model, alpha, grid_n, sigma_eff):
    """Certified sub-solution at level ``alpha``: the zero function when it
    certifies, else the regularized Mane potential just above the level."""
    zero = GridFunction(1, grid_n, np.zeros(grid_n))
    ok, _ = is_subsolution(model, zero, alpha + 1e-6, n_pairs=64, slack=1e-9,
                           sigma_eff=sigma_eff)
    if ok:
        return zero
    u0 = mane_potential(model, alpha + 1e-3, 0.0, grid_n, sigma_eff=sigma_eff).phi
    return regularize_R(model, u0, 0.0, min(0.5, 2 * resolve_sigma(model, sigma_eff)),
                        sigma_eff=sigma_eff)


def weak_kam_solve(model: HamiltonianModel, grid_n: int = 128,
                   alpha: Optional[float] = None, t_step: float = 0.1,
                   t_max: float = 40.0, sigma_eff=None, u0: Optional[GridFunction] = None,
                   tol_wk: float = TOL_WK, tol_iter: float = TOL_ITER) -> WeakKamResult:
    """Weak KAM solution as the limit of ``T^t u + t alpha`` from a seed.

    The seed is ``u0`` or, by default, a certified sub-solution (the zero
    function when it certifies, else a regularized Mane potential).  The
    iteration stops once the increment is constant, which is a min-plus
    eigenvector of ``T^t``; with several static classes it is the one
    reached from the seed.  When ``alpha`` is None it is the critical value
    at ``t_step``.  The fixed-point residual decides the result: off the
    critical level the increment settles at ``t (alpha - alpha_c)`` and the
    residual keeps it.  Raises NonConvergence, with the partial result,
    when the residual exceeds ``tol_wk`` or the cap ``t_max`` is hit.
    """
    _require_torus(model)
    if u0 is not None and u0.n_per_dim != grid_n:
        raise ConfigError(f"u0 has {u0.n_per_dim} nodes, grid_n is {grid_n}")
    if alpha is None:
        alpha = critical_value(model, grid_n=grid_n, t_step=t_step,
                               sigma_eff=sigma_eff).alpha
    u = _subsolution_seed(model, alpha, grid_n, sigma_eff) if u0 is None else u0
    u, _, history, converged = _eigen_iterate(model, u, t_step, t_step * alpha, t_max,
                                              sigma_eff, tol_iter)
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
    """Mane potential from a base point, with minimizing horizons."""

    a: float
    q_base: float
    phi: GridFunction
    t_argmin: np.ndarray
    t_grid: np.ndarray
    action_rows: np.ndarray = None


def _action_rows_from_base(model, q_base, grid_n, t_short, n_long, delta,
                           sigma_eff):
    """Rows ``A^t(q_base, x_j)`` (torus minimum over windings).

    Short horizons are evaluated directly by batched shooting; horizons
    past the twist window continue the last row by ``apply_T`` over
    ``delta`` (the discrete concatenation identity).
    """
    targets = np.arange(grid_n) / grid_n
    base = np.full(grid_n, float(q_base))
    ts = [float(t) for t in t_short]
    rows = [_torus_pair_actions(model, t, base, targets, sigma_eff) for t in ts]
    for _ in range(n_long):
        rows.append(apply_T(model, GridFunction(1, grid_n, rows[-1]), 0.0, delta,
                            sigma_eff=sigma_eff).values)
        ts.append(ts[-1] + delta)
    return np.asarray(ts), np.stack(rows)


def _parabolic_min(ts, rows, k):
    """Value at the parabola through three bracketing samples per column."""
    j = np.arange(rows.shape[1])
    k0 = np.clip(k, 1, len(ts) - 2)
    f0, f1, f2 = rows[k0 - 1, j], rows[k0, j], rows[k0 + 1, j]
    t0, t1, t2 = ts[k0 - 1], ts[k0], ts[k0 + 1]
    denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
    aa = (t2 * (f1 - f0) + t1 * (f0 - f2) + t0 * (f2 - f1)) / denom
    bb = (t2 * t2 * (f0 - f1) + t1 * t1 * (f2 - f0) + t0 * t0 * (f1 - f2)) / denom
    t_star = np.where(aa > 1e-12, -bb / (2 * np.maximum(aa, 1e-12)), t1)
    t_star = np.clip(t_star, t0, t2)
    cc = f1 - aa * t1 * t1 - bb * t1
    val = aa * t_star * t_star + bb * t_star + cc
    interior = (k > 0) & (k < len(ts) - 1) & (aa > 1e-12)
    raw = rows[k, j]
    return np.where(interior, np.minimum(val, raw), raw), np.where(interior, t_star, ts[k])


def _mane_scan(model, a, q_base, grid_n, t_max, sigma_eff):
    sig = resolve_sigma(model, sigma_eff)
    if model.q_homogeneous:
        # direct rows over a dense log grid: segments are exact here
        t_all = np.geomspace(0.1 / grid_n, t_max, 80)
        ts, act = _action_rows_from_base(model, q_base, grid_n, t_all, 0,
                                         sig / 2, sigma_eff)
    else:
        delta = sig / 2
        t_short = np.geomspace(0.1 / grid_n, sig, 25)
        n_long = max(0, int(np.ceil((t_max - sig) / delta)))
        ts, act = _action_rows_from_base(model, q_base, grid_n, t_short, n_long,
                                         delta, sigma_eff)
    rows = act + a * ts[:, None]
    return ts, rows, act


def mane_potential(model: HamiltonianModel, a: float, q_base: float,
                   grid_n: int = 128, t_max: float = 6.0,
                   sigma_eff=None) -> ManeField:
    """Mane potential ``inf_t (A^t(q_base, .) + a t)`` on the grid.

    The horizon scan is log-spaced inside the twist window and continues
    by kernel composition beyond it; the discrete argmin is refined by a
    parabolic fit through its bracket.  Raises LevelBelowCritical when the
    infimum keeps descending at the largest horizons.
    """
    _require_torus(model)
    ts, rows, _ = _mane_scan(model, a, q_base, grid_n, t_max, sigma_eff)
    k = np.argmin(rows, axis=0)
    tail_drop = rows[-2] - rows[-1]
    span = ts[-1] - ts[-2]
    if np.any((k == len(ts) - 1) & (tail_drop > 0.01 * span * (1 + abs(a)))):
        raise LevelBelowCritical(f"potential still descending at t = {ts[-1]:.3g}; "
                                 f"level a = {a:.6g} appears sub-critical")
    phi, t_star = _parabolic_min(ts, rows, k)
    return ManeField(a=a, q_base=float(q_base), phi=GridFunction(1, grid_n, phi),
                     t_argmin=t_star, t_grid=ts, action_rows=rows)


_MANE_FIELD_CACHE: dict = {}


def mane_pair(model: HamiltonianModel, a: float, q0: float, q1: float,
              grid_n: int = 128, t_max: float = 6.0, sigma_eff=None) -> float:
    """Mane potential between torus points (fields cached per base point)."""
    key = (model.cache_key(), round(a, 12), round(float(q0) % 1.0, 12), grid_n,
           round(t_max, 12), round(resolve_sigma(model, sigma_eff), 12))
    field = _MANE_FIELD_CACHE.get(key)
    if field is None:
        field = mane_potential(model, a, float(q0) % 1.0, grid_n, t_max=t_max,
                               sigma_eff=sigma_eff)
        if len(_MANE_FIELD_CACHE) > 64:
            _MANE_FIELD_CACHE.pop(next(iter(_MANE_FIELD_CACHE)))
        _MANE_FIELD_CACHE[key] = field
    x = (float(q1) % 1.0) * grid_n
    i = int(np.floor(x)) % grid_n
    frac = x - np.floor(x)
    vals = field.phi.values
    return float((1 - frac) * vals[i] + frac * vals[(i + 1) % grid_n])


def calibrated_curve(model: HamiltonianModel, a: float, q0: float, q1: float,
                     horizon_cap: float = 4.0, sigma_eff=None,
                     energy_tol: float = 1e-6, step: float = 1e-3) -> Trajectory:
    """Minimizing orbit of ``inf_t (A^t(q0, q1) + a t)`` on the energy level a.

    Endpoints are positions on the universal cover.  The optimal horizon
    satisfies ``H(orbit) = a``; the sign change of ``a - H(t)`` is
    bracketed by doubling the horizon and polished by a secant iteration.
    When no finite horizon attains the infimum below the cap, the best
    capped-horizon orbit is returned (its energy approaches ``a``).
    """
    if model.d != 1:
        raise ConfigError("calibrated curves are implemented for d = 1")
    if abs(float(q1) - float(q0)) < 1e-14:
        raise ConfigError("calibrated_curve needs distinct endpoints")
    sig = resolve_sigma(model, sigma_eff)
    target = float(q1)

    def energy_at(t, warm=None):
        _, path = minimal_action(model, 0.0, t, [q0], [target], sigma_eff=sig,
                                 warm_start=warm, restarts=2)
        return float(model.value(0.0, np.atleast_1d(q0), path.rho0)), path

    t_lo = min(max(sig / 4, 1e-3), horizon_cap / 4)
    e_lo, path = energy_at(t_lo)
    for _ in range(4):
        # fast connections carry energy above the level; shrink if not
        if a - e_lo < 0 or t_lo < 1e-6:
            break
        t_lo /= 4
        e_lo, path = energy_at(t_lo)
    g_lo = a - e_lo
    t_hi, g_hi, capped = t_lo, g_lo, True
    while t_hi < horizon_cap * (1 - 1e-12):
        t_hi = min(2 * t_hi, horizon_cap)
        e_hi, path = energy_at(t_hi, warm=None)
        g_hi = a - e_hi
        if g_hi >= 0:
            capped = False
            break
        t_lo, g_lo = t_hi, g_hi
    if capped:
        t_star = horizon_cap
        _, path = energy_at(t_star)
    else:
        # secant with bisection safeguard inside the bracket
        t_a, g_a, t_b, g_b = t_lo, g_lo, t_hi, g_hi
        t_star = t_b
        for _ in range(40):
            if abs(g_b) <= energy_tol or (t_b - t_a) < 1e-12:
                break
            t_next = t_b - g_b * (t_b - t_a) / (g_b - g_a) if g_b != g_a else 0.5 * (t_a + t_b)
            if not (min(t_a, t_b) < t_next < max(t_a, t_b)):
                t_next = 0.5 * (t_a + t_b)
            e_next, path = energy_at(t_next, warm=None)
            g_next = a - e_next
            if g_next < 0:
                t_a, g_a = t_next, g_next
            else:
                t_b, g_b = t_next, g_next
            t_star = t_next if abs(g_next) < abs(g_b) or g_next >= 0 else t_b
        _, path = energy_at(t_star)
    traj = reconstruct_trajectory(model, path, step=step)
    if abs(float(traj.Q[-1, 0]) - target) > 1e-5 * (1 + abs(target)):
        raise NonConvergence(f"calibrated orbit misses target by "
                             f"{abs(float(traj.Q[-1, 0]) - target):.2e}")
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
    call at ``t_step``.  The mask marks the nodes on cycles of the argmin
    map of ``T^t`` at ``u_limit``; each such cycle is a cycle of minimum mean
    ``-alpha t`` in the kernel.  With several static classes the eigenvector
    reached from zero decides which critical cycles the argmin map keeps.
    """
    _require_torus(model)
    t_step = min(t_step, resolve_sigma(model, sigma_eff))
    res = critical_value(model, grid_n=grid_n, t_step=t_step, sigma_eff=sigma_eff)
    _, src = _min_plus(model, res.u_raw, 0.0, t_step, sigma_eff, dual=False)
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
    for _ in range(n_steps):
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            break
        Q, P, _, _, _ = integrate_batch(model, 0.0, -t_step, pts[idx, 0:1],
                                        pts[idx, 1:2], max(1, int(t_step / 2e-3)))
        pts[idx, 0] = Q[:, 0]
        pts[idx, 1] = P[:, 0]
        dist = _graph_distance(pts[idx], graph, n)
        alive[idx[dist > tol_graph]] = False
    survivors = pts[alive]
    seed_survivors = seeds[alive]
    stable = True
    if alive.any():
        for sgn in (+1.0, -1.0):
            Q, P, _, _, _ = integrate_batch(model, 0.0, sgn * t_step,
                                            survivors[:, 0:1], survivors[:, 1:2],
                                            max(1, int(t_step / 2e-3)))
            moved = np.stack([Q[:, 0], P[:, 0]], axis=1)
            dq = moved[:, None, 0] - survivors[None, :, 0]
            dq = dq - np.round(dq)
            dp = moved[:, None, 1] - survivors[None, :, 1]
            dmin = np.sqrt(dq * dq + dp * dp).min(axis=1)
            stable = stable and bool(np.all(dmin <= tol_graph))
    survivors = survivors.copy()
    survivors[:, 0] = np.mod(survivors[:, 0], 1.0)
    return InvariantSetResult(points=survivors, seeds=graph,
                              survivor_seeds=seed_survivors, t_step=t_step,
                              n_steps=n_steps, tol_graph=float(tol_graph),
                              stable=stable)
