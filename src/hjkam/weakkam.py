"""Critical value, weak KAM solutions, Mane potential, and Aubry sets.

The periodic critical value comes from the linear drift of the evolved
zero function; weak KAM solutions and the Aubry mask from the monotone
fixed-point iteration, both seeded by the one certified sub-solution of
``_subsolution_seed``.  Pair actions come from the grid layer's
``_pair_actions`` and every operator step from ``apply_T``.  The Mane
potential scans horizons on a log grid and continues past the twist window
by ``apply_T``; invariant sets prune backward-flowed graph seeds against
the graph neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .action import minimal_action, reconstruct_trajectory
from .errors import ConfigError, LevelBelowCritical, NonConvergence
from .flow import Trajectory, integrate_batch, resolve_sigma
from .hamiltonian import HamiltonianModel, check_hypotheses
from .laxoleinik import (GridFunction, _pair_actions, apply_T, regularize_R,
                         semiconcavity_constant)

TOL_ALPHA = 1e-2
TOL_WK = 5e-3
TOL_ITER = 1e-9


@dataclass
class WeakKamResult:
    """Critical-value estimate and (optionally) a weak KAM fixed point."""

    alpha: float
    u: Optional[GridFunction]
    residual: Optional[float]
    t_probe: Optional[float]
    history: list
    converged: bool = True
    step_defects: list = field(default_factory=list)
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


def critical_value(model: HamiltonianModel, grid_n: int = 128, t_step: float = 0.2,
                   t_max: float = 8.0, sigma_eff=None,
                   tol_alpha: float = TOL_ALPHA) -> WeakKamResult:
    """Estimate the periodic critical value from the drift of ``T^t 0``.

    Fits ``max_q T^t 0 = c - alpha t`` over the recorded tail and
    cross-checks against the minimum; the two drifts must agree within
    ``tol_alpha`` and honor the sandwich at the largest horizon.
    """
    _require_torus(model)
    v = GridFunction(1, grid_n, np.zeros(grid_n))
    history = []
    k_max = int(np.ceil(t_max / t_step - 1e-9))
    for k in range(1, k_max + 1):
        v = apply_T(model, v, 0.0, t_step, sigma_eff=sigma_eff)
        history.append((k * t_step, float(v.values.max()), float(v.values.min())))
    ts = np.array([h[0] for h in history])
    a_plus = np.array([h[1] for h in history])
    a_minus = np.array([h[2] for h in history])
    tail = ts >= ts[-1] / 2
    design = np.stack([np.ones(tail.sum()), ts[tail]], axis=1)
    coef_p = np.linalg.lstsq(design, a_plus[tail], rcond=None)[0]
    coef_m = np.linalg.lstsq(design, a_minus[tail], rcond=None)[0]
    alpha = -float(coef_p[1])
    alpha_minus = -float(coef_m[1])
    result = WeakKamResult(alpha=alpha, u=None, residual=None, t_probe=t_step,
                           history=history, converged=True)
    if abs(alpha - alpha_minus) > tol_alpha:
        result.converged = False
        raise NonConvergence(f"drift estimates disagree: {alpha:.6g} vs "
                             f"{alpha_minus:.6g}", result=result)
    T = ts[-1]
    if not (a_minus[-1] / T - tol_alpha <= -alpha <= a_plus[-1] / T + tol_alpha):
        result.converged = False
        raise NonConvergence("alpha escapes the a^±(t)/t sandwich", result=result)
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
        gap = u.values[j] - u.values[i] - act - a * t
        worst = max(worst, float(gap.max()))
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
    """Weak KAM solution as the monotone limit of ``T^t u0 + t alpha``.

    The seed is a certified sub-solution (the zero function when it
    certifies, else a regularized Mane potential), which makes the iterates
    nondecreasing; iteration stops at stationarity.  Raises NonConvergence
    with the partial result attached when the defect plateaus above
    ``tol_wk`` (as it does off the critical level).
    """
    _require_torus(model)
    if alpha is None:
        sig = resolve_sigma(model, sigma_eff)
        alpha = critical_value(model, grid_n=grid_n,
                               t_step=min(max(t_step, 0.1), sig),
                               sigma_eff=sigma_eff).alpha
    u = _subsolution_seed(model, alpha, grid_n, sigma_eff) if u0 is None else u0
    history = []
    defects = []
    k_max = int(np.ceil(t_max / t_step - 1e-9))
    converged = False
    for k in range(1, k_max + 1):
        nxt = apply_T(model, u, 0.0, t_step, sigma_eff=sigma_eff)
        nxt = nxt.shifted(t_step * alpha)
        defect = float(np.max(np.abs(nxt.values - u.values)))
        defects.append(defect)
        u = nxt
        history.append((k * t_step, float(u.values.max()), float(u.values.min())))
        if defect <= tol_iter:
            converged = True
            break
        if len(defects) >= 6 and defect > 0.1 * tol_wk:
            recent = defects[-5:]
            if max(recent) - min(recent) < 0.01 * defect:
                break
    residual = fixed_point_residual(model, u, alpha, t_step, sigma_eff=sigma_eff)
    u_norm = GridFunction(1, grid_n, u.values - u.values.min())
    result = WeakKamResult(alpha=alpha, u=u_norm, residual=residual, t_probe=t_step,
                           history=history, converged=converged and residual <= tol_wk,
                           step_defects=defects, u_raw=u)
    if residual > tol_wk:
        raise NonConvergence(f"fixed-point residual {residual:.3e} > {tol_wk:.1e}",
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
    """Numerical Aubry mask with the data that produced it."""

    mask: np.ndarray
    alpha: float
    gap: np.ndarray
    eps: float
    u_start: GridFunction
    u_limit: GridFunction

    def marked_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def aubry_set(model: HamiltonianModel, grid_n: int = 128,
              eps: Optional[float] = None, sigma_eff=None,
              alpha: Optional[float] = None, t_step: float = 0.1) -> AubryResult:
    """Aubry mask: nodes where the monotone limit does not move off the seed.

    The seed is a certified sub-solution u0; the limit of ``T^t u0 + t
    alpha`` strictly exceeds u0 off the Aubry set, so small relative gap
    marks the set.  The threshold scales with the limit's curvature times
    the squared mesh (the gap grows quadratically off a nondegenerate
    Aubry point); the minimizing node is always marked.
    """
    _require_torus(model)
    sig = resolve_sigma(model, sigma_eff)
    t_step = min(t_step, sig)
    if alpha is None:
        alpha = critical_value(model, grid_n=grid_n, t_step=min(0.2, sig),
                               sigma_eff=sigma_eff).alpha
    u0 = _subsolution_seed(model, alpha, grid_n, sigma_eff)
    try:
        res = weak_kam_solve(model, grid_n=grid_n, alpha=alpha, t_step=t_step,
                             sigma_eff=sigma_eff, u0=u0)
    except NonConvergence as exc:
        if exc.result is None or exc.result.u_raw is None:
            raise
        res = exc.result
    gap = res.u_raw.values - u0.values
    rel = gap - gap.min()
    if eps is None:
        curv = max(semiconcavity_constant(res.u_raw), 0.0)
        eps = max(50 * TOL_ITER, 0.75 * curv / grid_n ** 2)
    mask = rel <= eps
    mask[int(np.argmin(rel))] = True
    return AubryResult(mask=mask, alpha=alpha, gap=gap, eps=float(eps),
                       u_start=u0, u_limit=res.u_raw)


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
