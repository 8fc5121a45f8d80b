"""Short-time two-point boundary solver and the generating function.

Within the twist window the map ``p -> Q_tau^t(q0, p)`` is strongly
monotone, so a damped Newton iteration with the ``dQ/dp`` monodromy block
as Jacobian converges globally.  The generating value is accumulated as an
extra quadrature component of the same RK4 discretization, which keeps the
derivative identities ``dS/dq1 = rho1``, ``dS/dq0 = -rho0`` consistent to
integrator accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ExistenceHorizonExceeded, FoldDetected,
                     SigmaExceeded, SolverDiverged)
from .flow import TARGET_STEP, _escaped, _steps_for, integrate_batch, resolve_sigma, write_csv
from .hamiltonian import HamiltonianModel, legendre_batch

# coarser step of the tabulated grid kernels and their batched pair actions
KERNEL_STEP = 5e-3
MAX_SHOOT_ITER = 50


def shoot_tol(q0, q1) -> np.ndarray:
    return 1e-9 * (1.0 + np.linalg.norm(np.asarray(q1, float) - np.asarray(q0, float), axis=-1))


def _jacobian(model, tau, t, Q0, p, n_steps):
    """End positions and the ``dQ/dp`` monodromy entry, shaped like ``p``."""
    Q, _, Mono, _ = integrate_batch(model, tau, t, Q0, p, n_steps, want_monodromy=True)
    J = Mono[..., 0, 1:]
    bad = np.abs(J) < 1e-14
    if bad.any():
        J = J + np.where(bad, 1e-10, 0.0)
    return Q, J


def _newton_shoot(model, tau, t, Q0, Q1, p, n_steps, tol, J=None):
    """Damped chord-Newton on ``Q_tau^t(q0, p) = q1`` for a batch.

    Residual evaluations integrate the state only; the ``dQ/dp`` Jacobian
    block is refreshed every three iterations and after a rejected step (it
    varies slowly in p within the twist window).  A warm Jacobian from a
    coarser grid can be passed in via ``J``.  Each row keeps its own refresh count and stall
    test, only rows still above ``tol`` are refreshed, and the line search
    integrates only the rows still backtracking, so a row's result does not
    depend on the other rows of its batch.
    """
    if J is None:
        Q, J = _jacobian(model, tau, t, Q0, p, n_steps)
    else:
        Q = integrate_batch(model, tau, t, Q0, p, n_steps)[0]
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
            Ft[trying] = integrate_batch(model, tau, t, Q0[trying], p_try[trying],
                                         n_steps)[0] - Q1[trying]
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
            J[stale] = _jacobian(model, tau, t, Q0[stale], p[stale], n_steps)[1]
            since_refresh[stale] = 0
    return p, res, J


def shoot_batch(model: HamiltonianModel, tau: float, t: float, Q0, Q1,
                sigma_eff=None, p_init=None, step_target: float = TARGET_STEP):
    """Initial momenta joining ``Q0[i] -> Q1[i]`` over ``[tau, t]`` (batch).

    Raises SigmaExceeded when the horizon leaves the working twist window
    and SolverDiverged when Newton plus horizon continuation both fail.
    """
    span = t - tau
    sig = resolve_sigma(model, sigma_eff)
    if not (0 < span <= sig * (1 + 1e-12)):
        raise SigmaExceeded(f"horizon {span:.6g} outside (0, {sig:.6g}]")
    Q0 = np.asarray(Q0, float)
    Q1 = np.asarray(Q1, float)
    single = Q0.ndim == 1
    if single:
        Q0 = Q0[None, :]
        Q1 = Q1[None, :]
    tol = shoot_tol(Q0, Q1)
    if p_init is None:
        v = (Q1 - Q0) / span
        _, p_init = legendre_batch(model, tau, (Q0 + Q1) / 2, v)
    n_fine = _steps_for(span, step_target)
    # coarse pre-solve (the solutions differ at quadrature order only),
    # then polish on the production grid with the coarse Jacobian
    J = None
    if n_fine > 16:
        p_init, _, J = _newton_shoot(model, tau, t, Q0, Q1, p_init,
                                     max(8, n_fine // 8), tol)
    p, res, _ = _newton_shoot(model, tau, t, Q0, Q1, p_init, n_fine, tol, J=J)
    if np.any(res > tol):
        bad = res > tol
        idx = np.where(bad)
        p_bad = None
        # continuation in the horizon: tau + span/4, tau + span/2, then t
        for frac_prev, frac in ((None, 0.25), (0.25, 0.5), (0.5, 1.0)):
            t_sub = tau + frac * span
            if p_bad is None:
                v = (Q1[idx] - Q0[idx]) / (frac * span)
                _, p_sub = legendre_batch(model, tau, (Q0[idx] + Q1[idx]) / 2, v)
            else:
                p_sub = p_bad * (frac_prev / frac)
            p_bad, res_bad, _ = _newton_shoot(model, tau, t_sub, Q0[idx], Q1[idx],
                                              p_sub, _steps_for(frac * span, step_target),
                                              tol[idx])
        if np.any(res_bad > tol[idx]):
            raise SolverDiverged("shooting failed after horizon continuation",
                                 residual=float(np.max(res_bad)))
        p = np.array(p, copy=True)
        p[idx] = p_bad
        res = np.array(res, copy=True)
        res[idx] = res_bad
    if single:
        return p[0], res[0]
    return p, res


@dataclass
class GeneratingSample:
    """One evaluation of the generating function with its diagnostics."""

    tau: float
    t: float
    q0: np.ndarray
    q1: np.ndarray
    S: float
    rho0: np.ndarray
    rho1: np.ndarray
    shoot_residual: float


def generating_batch(model: HamiltonianModel, tau: float, t: float, Q0, Q1,
                     sigma_eff=None, p_init=None, want_monodromy: bool = False,
                     step_target: float = TARGET_STEP):
    """Batched generating values; returns (S, rho0, rho1, residual, monodromy)."""
    Q0 = np.asarray(Q0, float)
    Q1 = np.asarray(Q1, float)
    p0, res = shoot_batch(model, tau, t, Q0, Q1, sigma_eff=sigma_eff,
                          p_init=p_init, step_target=step_target)
    Q, P, Mono, W = integrate_batch(model, tau, t, Q0, p0,
                                    _steps_for(t - tau, step_target),
                                    want_monodromy=want_monodromy, want_action=True)
    return W, p0, P, res, Mono


def shoot_rho0(model: HamiltonianModel, tau: float, t: float, q0, q1,
               sigma_eff=None) -> np.ndarray:
    """Unique initial momentum whose orbit reaches ``q1`` at time ``t``."""
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
    *_, Mono = generating_batch(model, tau, t, q0, q1, sigma_eff=sigma_eff,
                                want_monodromy=True)
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
