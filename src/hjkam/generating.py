"""Short-time two-point boundary solver and the generating function.

Within the twist window the map ``p -> Q_tau^t(q0, p)`` is strongly
monotone, with ``dQ/dp >= m t / 2``, so a damped Newton iteration with the
``dQ/dp`` monodromy block as Jacobian converges globally: every shot,
``shoot_batch``'s too, takes one pipeline and no fallback.  The generating
value is an extra quadrature component of the same RK4 discretization.  A
shot lands near its target, not on it; ``generating_batch`` corrects the
value and both momenta to first order in that landing error, through
``dS/dq1 = rho1`` and the monodromy.  They are then those of the discrete
orbit that lands exactly, to about 1e-13, and the derivative identities
``dS/dq1 = rho1``, ``dS/dq0 = -rho0`` hold to integrator accuracy.  So a
landing within ``LANDING_SLACK`` shooting tolerances suffices, and the
coarse pre-solve stops at a tenth of that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ExistenceHorizonExceeded, FoldDetected,
                     SigmaExceeded, SolverDiverged)
from .flow import TARGET_STEP, _escaped, _steps_for, integrate_batch, resolve_sigma, write_csv
from .hamiltonian import HamiltonianModel, legendre_batch

# coarser step of the tabulated grid kernels and their batched pair actions,
# and the step at which chains relax before a finer production step
KERNEL_STEP = 5e-3
MAX_SHOOT_ITER = 50
# a generating row that lands within this many shooting tolerances after the
# pre-solve is corrected with no further pass: the first-order correction
# leaves about |M11 / M01| e^2 / 2 in S, near 1e-13 at t = 0.1
LANDING_SLACK = 100
# the generating pre-solve stops at a tenth of the slack, in shooting
# tolerances: its coarse orbit lands on the fine grid only to quadrature
# order, so a tighter stop brings hardly a row more within the slack
PRESOLVE_SLACK = LANDING_SLACK / 10


def shoot_tol(q0, q1) -> np.ndarray:
    return 1e-9 * (1.0 + np.linalg.norm(np.asarray(q1, float) - np.asarray(q0, float), axis=-1))


def _times(tau, t, rows):
    """``(tau, t)`` at ``rows``: a per-row array's entries, a number as it is."""
    return tuple(x[rows] if getattr(x, "ndim", 0) else x for x in (tau, t))


def _jacobian(model, tau, t, Q0, p, n_steps):
    """End positions and the ``dQ/dp`` monodromy entry, shaped like ``p``."""
    Q, _, Mono, _ = integrate_batch(model, tau, t, Q0, p, n_steps, want_monodromy=True)
    # a copy: a view would keep the whole monodromy alive with the chord
    return Q, Mono[..., 0, 1:].copy()


def _newton_shoot(model, tau, t, Q0, Q1, p, n_steps, tol):
    """Damped chord-Newton on ``Q_tau^t(q0, p) = q1`` for a batch.

    Residual evaluations integrate the state only; the ``dQ/dp`` Jacobian
    block is refreshed every three iterations and after a rejected step (it
    varies slowly in p within the twist window).  Each row keeps its own
    refresh count and stall test, only rows still above ``tol`` are
    refreshed, and the line search integrates only the rows still
    backtracking, each subset at its rows' own ``tau`` and ``t`` (numbers or
    per-row arrays), so a row's result does not depend on the other rows of
    its batch.  Returns the momenta and their residuals.
    """
    Q, J = _jacobian(model, tau, t, Q0, p, n_steps)
    F = Q - Q1
    res = np.linalg.norm(F, axis=-1)
    since_refresh = np.zeros(res.shape, int)
    for _ in range(MAX_SHOOT_ITER):
        active = res > tol
        if not active.any():
            break
        step = -F / J
        lam = np.ones_like(res)
        p_try, Ft, rt = p.copy(), F.copy(), res.copy()
        # only the rows still backtracking are integrated on each trial
        trying = np.flatnonzero(active)
        for _bt in range(12):
            p_try[trying] = p[trying] + lam[trying, None] * step[trying]
            Ft[trying] = integrate_batch(model, *_times(tau, t, trying), Q0[trying],
                                         p_try[trying], n_steps)[0] - Q1[trying]
            rt[trying] = np.linalg.norm(Ft[trying], axis=-1)
            trying = trying[~(rt[trying] <= (1 - 0.25 * lam[trying]) * res[trying])]
            if not len(trying):
                break
            lam[trying] *= 0.5
        accept = (rt < res) & active
        p = np.where(accept[..., None], p_try, p)
        F = np.where(accept[..., None], Ft, F)
        res = np.where(accept, rt, res)
        since_refresh += 1
        stale = (res > tol) & ((active & ~accept) | (since_refresh >= 3))
        if stale.any():
            J = J.copy()
            J[stale] = _jacobian(model, *_times(tau, t, stale), Q0[stale], p[stale], n_steps)[1]
            since_refresh[stale] = 0
    return p, res


def _prepared(model, tau, t, Q0, Q1, sigma_eff, p_init):
    """Checked horizons, ``(B, 1)`` endpoints, their tolerance and start momenta."""
    span = np.asarray(t - tau)[..., None]
    sig = resolve_sigma(model, sigma_eff)
    lo, hi = span.min(), span.max()
    if not (0 < lo and hi <= sig * (1 + 1e-12)):
        raise SigmaExceeded(f"horizon {hi if lo > 0 else lo:.6g} outside (0, {sig:.6g}]")
    Q0 = np.atleast_2d(np.asarray(Q0, float))
    Q1 = np.atleast_2d(np.asarray(Q1, float))
    if not (np.isfinite(Q0).all() and np.isfinite(Q1).all()):
        raise ConfigError("shooting endpoints must be finite")
    if p_init is None:
        _, p_init = legendre_batch(model, tau, (Q0 + Q1) / 2, (Q1 - Q0) / span)
    # a copy: the caller's p_init is never written to
    return Q0, Q1, shoot_tol(Q0, Q1), np.array(p_init, float, ndmin=2)


def shoot_batch(model: HamiltonianModel, tau: float, t: float, Q0, Q1,
                sigma_eff=None, p_init=None, step_target: float = TARGET_STEP):
    """Initial momenta joining ``Q0[i] -> Q1[i]`` over ``[tau, t]`` (batch).

    Returns ``(rho0, residual)`` of ``generating_batch``: momenta corrected
    for the landing error, whose orbits land on the production grid to about
    1e-15, and the landing error corrected for.  Raises SigmaExceeded when
    the horizon leaves the working twist window and SolverDiverged when a
    row does not land.
    """
    _, rho0, _, res, _ = generating_batch(model, tau, t, Q0, Q1, sigma_eff=sigma_eff,
                                          p_init=p_init, step_target=step_target)
    return rho0, res


@dataclass
class GeneratingSample:
    """One evaluation of the generating function with its diagnostics.

    ``shoot_residual`` is the landing error ``|q1 - Q|`` that ``S`` and the
    momenta were corrected for (see ``generating_batch``).
    """

    tau: float
    t: float
    q0: np.ndarray
    q1: np.ndarray
    S: float
    rho0: np.ndarray
    rho1: np.ndarray
    shoot_residual: float


def generating_batch(model: HamiltonianModel, tau: float, t: float, Q0, Q1,
                     sigma_eff=None, p_init=None, step_target: float = TARGET_STEP):
    """Batched generating values; returns ``(S, rho0, rho1, residual, Mono)``.

    ``tau`` and ``t`` are numbers or per-row arrays, a time slot per row;
    every row takes the step count of the longest span, so a row's bits are
    those of its own call where its span needs as many.  The coarse
    pre-solve, stopped at ``PRESOLVE_SLACK`` shooting tolerances (the
    correction below is exact to about 1e-13 within the slack), then one
    pass on the production grid with action and monodromy, whose orbit from
    ``rho0`` lands at ``Q``.  With the landing error ``e = q1 - Q`` and
    ``dp = e / M01``, the values are corrected to first order:
    ``S = W + P e``, ``rho0 = p0 + dp`` and ``rho1 = P + M11 dp``
    (``dS/dq1 = rho1``); the error left is about ``|M11 / M01| e^2 / 2`` in
    ``S``.  Rows landing farther than ``LANDING_SLACK * shoot_tol`` take the
    Newton step ``p0 + dp`` and one more pass, at most ``MAX_SHOOT_ITER``
    times; a row still that far raises SolverDiverged with the worst landing
    error.  ``residual`` is ``|e|``, the landing error that was corrected
    for; ``Mono`` is the flow's differential, (..., 2, 2).
    """
    single = np.ndim(Q0) == 1
    # before the window check: a non-finite horizon is a config error
    n_fine = _steps_for(np.asarray(t - tau).max(), step_target)
    Q0, Q1, tol, p = _prepared(model, tau, t, Q0, Q1, sigma_eff, p_init)
    # the pre-solve runs on a coarse grid, or on the fine one when it has at
    # most 16 steps; the two grids' solutions differ at quadrature order only
    n_pre = max(8, n_fine // 8) if n_fine > 16 else n_fine
    p = _newton_shoot(model, tau, t, Q0, Q1, p, n_pre, PRESOLVE_SLACK * tol)[0]
    Q, P, Mono, W = integrate_batch(model, tau, t, Q0, p, n_fine,
                                    want_monodromy=True, want_action=True)
    # a pass carries its own Newton step: a far row takes p0 + dp and one
    # more pass, which lands nearly every one of them
    far = np.arange(len(Q0))
    for passes in range(MAX_SHOOT_ITER + 1):
        miss = np.linalg.norm(Q1[far] - Q[far], axis=-1)
        far = far[miss > LANDING_SLACK * tol[far]]
        if not len(far):
            break
        if passes == MAX_SHOOT_ITER:
            raise SolverDiverged(f"{len(far)} shots off target after {passes} Newton passes",
                                 residual=float(np.max(miss)))
        p[far] += (Q1[far] - Q[far]) / Mono[far, 0, 1:]
        Q[far], P[far], Mono[far], W[far] = integrate_batch(
            model, *_times(tau, t, far), Q0[far], p[far], n_fine, want_monodromy=True,
            want_action=True)
    e = Q1 - Q
    dp = e / Mono[..., 0, 1:]
    out = (W + np.sum(P * e, axis=-1), p + dp, P + Mono[..., 1, 1:] * dp,
           np.linalg.norm(e, axis=-1), Mono)
    return tuple(x[0] for x in out) if single else out


def shoot_rho0(model: HamiltonianModel, tau: float, t: float, q0, q1,
               sigma_eff=None) -> np.ndarray:
    """Unique initial momentum whose orbit reaches ``q1`` at time ``t`` (to ~1e-15)."""
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    p, _ = shoot_batch(model, tau, t, q0, q1, sigma_eff=sigma_eff)
    return p


def generating_S(model: HamiltonianModel, tau: float, t: float, q0, q1,
                 sigma_eff=None) -> GeneratingSample:
    """Generating function ``S_tau^t(q0, q1)`` with momenta and residual."""
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    S, rho0, rho1, res, _ = generating_batch(model, tau, t, q0, q1, sigma_eff=sigma_eff)
    return GeneratingSample(tau=tau, t=t, q0=q0, q1=q1, S=float(S),
                            rho0=np.asarray(rho0, float), rho1=np.asarray(rho1, float),
                            shoot_residual=float(res))


def second_diff_probe(model: HamiltonianModel, tau: float, t: float, q0, q1,
                      sigma_eff=None):
    """Second derivatives ``(d00 S, d11 S, d01 S)`` as three floats.

    With ``dqQ, dpQ, dpP`` the entries of the flow's differential at
    ``rho0``: ``d00 = dqQ / dpQ``, ``d11 = dpP / dpQ`` and ``d01 = -1 / dpQ``.
    """
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    *_, Mono = generating_batch(model, tau, t, q0, q1, sigma_eff=sigma_eff)
    (dqQ, dpQ), (_, dpP) = Mono
    inv = 1.0 / dpQ
    return float(inv * dqQ), float(dpP * inv), float(-inv)


@dataclass
class GeometricFront:
    """Flow image of an initial graph with accumulated action values."""

    t: float
    q: np.ndarray
    p: np.ndarray
    w: np.ndarray
    fold_flag: bool
    dropped: int
    seeds: np.ndarray

    def to_csv(self, path):
        write_csv(path, "q,p,w", np.column_stack([self.q, self.p, self.w]))


def _check_graph_consistency(q0, du0, u0):
    """Path-integrated du0 must reproduce u0 up to its own quadrature error."""
    integral = np.concatenate([[0.0], np.cumsum((du0[1:] + du0[:-1]) / 2 * np.diff(q0))])
    defect = np.max(np.abs(integral - (u0 - u0[0])))
    # trapezoid-rule headroom: dq * total variation of du0, plus a floor
    tol = 1e-8 + 0.25 * float(np.max(np.diff(q0)) * (np.sum(np.abs(np.diff(du0))) + 1e-6))
    if defect > tol:
        raise ConfigError(f"inconsistent initial graph: integral defect {defect:.3e} > {tol:.3e}")


def propagate_front(model: HamiltonianModel, initial_graph, t: float) -> GeometricFront:
    """Transport a sampled initial graph ``(q, du0, u0)`` by the flow.

    Action values are accumulated with the flow; ``fold_flag`` reports loss
    of q-injectivity (transported positions no longer strictly ordered).
    Escaped samples (see ``flow``) are dropped silently and counted.
    """
    q0, du0, u0 = (np.asarray(a, float) for a in initial_graph)
    if q0.ndim != 1:
        raise ConfigError("front propagation takes 1-d arrays of samples")
    order = np.argsort(q0)
    q0, du0, u0 = q0[order], du0[order], u0[order]
    _check_graph_consistency(q0, du0, u0)
    with np.errstate(over="ignore", invalid="ignore"):
        Q, P, _, W = integrate_batch(model, 0.0, t, q0[:, None], du0[:, None],
                                     _steps_for(t), want_action=True)
    keep = ~_escaped(Q, P)
    qt = Q[keep, 0]
    pt = P[keep, 0]
    wt = u0[keep] + W[keep]
    fold = bool(np.any(np.diff(qt) <= 1e-12 * (1 + np.abs(qt[:-1]))))
    return GeometricFront(t=t, q=qt, p=pt, w=wt, fold_flag=fold,
                          dropped=int(np.sum(~keep)), seeds=q0[keep])


def lip_of_samples(x: np.ndarray, y: np.ndarray) -> float:
    """Largest slope between adjacent samples."""
    return float(np.max(np.abs(np.diff(y) / np.diff(x))))


def classical_cauchy(model: HamiltonianModel, u0_samples, t: float, query_grid,
                     allow_past_horizon: bool = False):
    """Classical solution of the Cauchy problem by characteristic inversion.

    ``u0_samples`` is a tuple ``(q, u0, du0)`` sampling a C^{1,1} initial
    condition on a window.  Refuses ``|t|`` at or past the guaranteed
    horizon ``1 / (4 M (1 + Lip(du0)))`` unless ``allow_past_horizon`` is
    set, in which case the front must still be fold-free.  Query points
    must sit at least one in-flow margin inside the sampled window.
    """
    from scipy.interpolate import PchipInterpolator
    q0, u0, du0 = (np.asarray(a, float) for a in u0_samples)
    order = np.argsort(q0)
    q0, u0, du0 = q0[order], u0[order], du0[order]
    if len(q0) < 2 or not np.all(np.diff(q0) > 0):
        raise ConfigError("Cauchy samples need two or more distinct positions")
    ell = lip_of_samples(q0, du0)
    horizon = 1.0 / (4.0 * model.M * (1.0 + ell))
    if abs(t) >= horizon and not allow_past_horizon:
        raise ExistenceHorizonExceeded(
            f"|t|={abs(t):.6g} >= T={horizon:.6g} for Lip(du0)={ell:.6g}")
    front = propagate_front(model, (q0, du0, u0), t)
    if front.fold_flag:
        raise FoldDetected(f"front folded at t={t:.6g}")
    qt, pt, wt = front.q, front.p, front.w
    query = np.atleast_1d(np.asarray(query_grid, float))
    Hp = model.jet(t, qt[:, None], pt[:, None])[1]
    margin = float(np.max(np.abs(Hp)) * abs(t))
    lo, hi = q0[0] + margin, q0[-1] - margin
    if np.any(query < lo - 1e-12) or np.any(query > hi + 1e-12):
        raise ConfigError(f"query points outside in-flow window [{lo:.6g}, {hi:.6g}]")
    u_interp = PchipInterpolator(qt, wt)
    du_interp = PchipInterpolator(qt, pt)
    return u_interp(query), du_interp(query)
