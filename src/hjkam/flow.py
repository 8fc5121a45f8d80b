"""Hamiltonian flow, variational (monodromy) equation, and twist checks.

The integrator is a classical explicit 4th-order one-step method applied
jointly to the state, the 2 x 2 monodromy matrix, and the running
Hamiltonian action, so derivative and action estimates share the state's
discretization.  Each stage takes the vector field, the Hessian blocks of
the variational equation and the action rate from one evaluation of the
model's jet, asking only for the terms it integrates.  The integrated
components are packed into one component-major array, so that a stage
input or the step's weighted sum is one numpy operation on the whole state
whatever the batch size.  All internals are vectorized over the batch
axes; the public API wraps single trajectories.  No row is guarded: its
callers judge escapes from the result, by the one test ``_escaped``, and
``integrate_flow`` and ``monodromy`` raise ``TrajectoryEscape`` on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, TrajectoryEscape
from .hamiltonian import HamiltonianModel, check_hypotheses

DEFAULT_STEP = 1e-3
# default step of the shooting and generating-function layer
TARGET_STEP = 2e-3
TOL_ENERGY = 1e-8
TOL_SYMP = 1e-7
TOL_ODE = 1e-6
OVERFLOW_GUARD = 1e8


@dataclass(frozen=True)
class PhaseState:
    """A point ``(q, p)`` of phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ConfigError("phase state has non-finite components")


@dataclass
class Trajectory:
    """Sampled orbit with the Hamiltonian recorded along it."""

    times: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    energy: np.ndarray

    @property
    def terminal(self) -> PhaseState:
        return PhaseState(self.Q[-1], self.P[-1])

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy - self.energy[0])))

    def to_csv(self, path):
        write_csv(path, "t,q_0,p_0,H", np.column_stack([self.times, self.Q, self.P, self.energy]))


def write_csv(path, header: str, rows):
    """Write ``rows`` of numbers under the ``header`` line, each at ``.17g``."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class MonodromyResult:
    """Blocks of the flow differential and its distance from the identity."""

    dqQ: np.ndarray
    dpQ: np.ndarray
    dqP: np.ndarray
    dpP: np.ndarray
    deviation: float

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.dqQ, self.dpQ], [self.dqP, self.dpP]])

    def symplectic_defect(self) -> float:
        """``||M^T J M - J||_2``: for a 2 x 2 ``M``, ``M^T J M = det(M) J``,
        so it is ``|det M - 1|``, with no BLAS or LAPACK call."""
        (a, b), (c, d) = self.matrix
        return abs(float(a * d - b * c) - 1.0)


def _spectral_norm_2x2(m) -> float:
    """Largest singular value of a 2 x 2 matrix in closed form, no LAPACK call."""
    (a, b), (c, d) = m
    return 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))


def _stage(model, t, Y, K, mono, action, work):
    """Write the RK4 stage at the packed state ``Y`` into ``K`` from one jet.

    ``Y`` and ``K`` are component-major, ``(C, ..., 1)``: ``q``, ``p``, then
    the monodromy entries ``m00, m01, m10, m11`` when ``mono``, then the
    action ``W`` when ``action``.  ``K`` gets ``H_p``, ``-H_q``, the two row
    pairs of ``[[H_qp, H_pp], [-H_qq, -H_qp]] M`` and the action rate ``L``,
    each update running along the batch; ``work`` holds one row pair.
    """
    Hq, Hp, L, blocks = model.jet(t, Y[0], Y[1], action=action, hessian=mono)
    K[0] = Hp
    np.negative(Hq, out=K[1])
    if mono:
        hqq, hqp, hpp = blocks
        top, bottom = Y[2:4, ..., 0], Y[4:6, ..., 0]
        dtop, dbottom = K[2:4, ..., 0], K[4:6, ..., 0]
        np.multiply(hpp, bottom, out=dtop)
        np.multiply(-hqq, top, out=dbottom)
        # a number 0.0 block (every built-in family) only adds signed zeros
        if not (isinstance(hqp, float) and hqp == 0.0):
            dtop += np.multiply(hqp, top, out=work)
            dbottom -= np.multiply(hqp, bottom, out=work)
    if action:
        K[-1, ..., 0] = L


def _exact_quadratic_flow(model, tau, t, Q0, P0, want_monodromy, want_action):
    """Closed-form flow for ``H = a p^2 / 2``: straight lines."""
    a = model.params[0]
    span = np.asarray(t - tau, float)
    Q = np.asarray(Q0, float) + (span * a)[..., None] * np.asarray(P0, float)
    P = np.array(P0, float, copy=True)
    Mono = None
    if want_monodromy:
        Mono = np.zeros(Q.shape[:-1] + (2, 2))
        Mono[..., 0, 0] = Mono[..., 1, 1] = 1.0
        Mono[..., 0, 1] = span * a
    W = 0.5 * a * span * np.sum(P * P, axis=-1) if want_action else None
    return Q, P, Mono, W


def integrate_batch(model: HamiltonianModel, tau: float, t: float, Q0, P0,
                    n_steps: int, want_monodromy: bool = False,
                    want_action: bool = False):
    """Integrate a batch of initial conditions from ``tau`` to ``t``.

    ``Q0`` and ``P0`` are ``(..., 1)``; ``tau`` and ``t`` are numbers, or
    arrays of shape ``(...)`` that give every row its own ``n_steps`` steps.
    Returns ``(Q, P, Mono, W)``: ``Q`` and ``P`` shaped like ``Q0``;
    ``Mono`` of shape ``(..., 2, 2)`` and ``W`` the accumulated action, of
    shape ``(...)``, when requested, else None.  No row is guarded: one that
    blows up runs on to inf or NaN and leaves the other rows' bits alone.
    The state is integrated packed (see ``_stage``), with the stage buffers
    allocated once per call and every step updated in place; the
    per-element arithmetic is the plain RK4 of each component, so a row's
    bits are those of a call with its own times as numbers.
    """
    if model.family in ("free", "quadratic"):
        return _exact_quadratic_flow(model, tau, t, Q0, P0, want_monodromy, want_action)
    Q0 = np.asarray(Q0, float)
    shape = Q0.shape[:-1]
    C = 2 + 4 * want_monodromy + want_action
    Y = np.empty((C,) + Q0.shape)
    Y[0] = Q0
    Y[1] = P0
    if want_monodromy:
        Y[2:6] = np.reshape([1.0, 0.0, 0.0, 1.0], (4,) + (1,) * Q0.ndim)
    if want_action:
        Y[-1] = 0.0
    # the stage input, the four stages and one monodromy row pair, reused
    # by every step; the stages are summed in place in K2
    Z, K1, K2, K3, K4 = (np.empty_like(Y) for _ in range(5))
    work = np.empty((2,) + shape) if want_monodromy else None

    h = (t - tau) / n_steps
    hk = h[..., None] if getattr(h, "ndim", 0) else h   # scales the packed components
    s = tau
    for _ in range(n_steps):
        _stage(model, s, Y, K1, want_monodromy, want_action, work)
        np.add(Y, np.multiply(hk / 2, K1, out=Z), out=Z)
        _stage(model, s + h / 2, Z, K2, want_monodromy, want_action, work)
        np.add(Y, np.multiply(hk / 2, K2, out=Z), out=Z)
        _stage(model, s + h / 2, Z, K3, want_monodromy, want_action, work)
        np.add(Y, np.multiply(hk, K3, out=Z), out=Z)
        _stage(model, s + h, Z, K4, want_monodromy, want_action, work)
        # (K1 + 2 K2 + 2 K3 + K4) h / 6, summed left to right
        np.add(K1, np.multiply(2, K2, out=K2), out=K2)
        K2 += np.multiply(2, K3, out=K3)
        K2 += K4
        K2 *= hk / 6
        Y += K2
        s = s + h   # not in place: an array tau is the caller's
    Mono = None
    if want_monodromy:
        Mono = np.ascontiguousarray(
            np.moveaxis(Y[2:6, ..., 0].reshape((2, 2) + shape), (0, 1), (-2, -1)))
    W = Y[-1, ..., 0] if want_action else None
    return Y[0], Y[1], Mono, W


def _escaped(Q, P) -> np.ndarray:
    """Rows whose ``q`` or ``p`` is non-finite or beyond ``OVERFLOW_GUARD``."""
    inside = (np.abs(Q) <= OVERFLOW_GUARD) & (np.abs(P) <= OVERFLOW_GUARD)
    return ~inside.all(axis=-1)


def _checked_positive(value: float, name: str) -> float:
    if not 0 < value < np.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")
    return value


def _steps_for(span: float, target: float = TARGET_STEP) -> int:
    """Fewest uniform steps of at most ``target`` over ``|span|``; one at zero."""
    if not np.isfinite(span):
        raise ConfigError(f"time span must be finite, got {span}")
    return max(1, int(np.ceil(abs(span) / _checked_positive(target, "step") - 1e-12)))


def integrate_flow(model: HamiltonianModel, x0, tau: float, t: float,
                   step: Optional[float] = None) -> Trajectory:
    """Flow ``x0`` from time ``tau`` to ``t`` (backward when ``t < tau``)."""
    if not isinstance(x0, PhaseState):
        x0 = PhaseState(*x0)
    n = _steps_for(t - tau, DEFAULT_STEP if step is None else step)
    h = (t - tau) / n
    times = tau + h * np.arange(n + 1)
    Q = np.empty((n + 1, 1))
    P = np.empty((n + 1, 1))
    Q[0], P[0] = x0.q, x0.p
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            Q[i + 1], P[i + 1] = integrate_batch(model, times[i], times[i + 1],
                                                 Q[i], P[i], 1)[:2]
            if _escaped(Q[i + 1], P[i + 1]):
                raise TrajectoryEscape(f"trajectory escaped at t={times[i + 1]:.6g}",
                                       exit_time=float(times[i + 1]))
    energy = np.asarray(model.value(times, Q, P), float)
    return Trajectory(times=times, Q=Q, P=P, energy=energy)


def monodromy(model: HamiltonianModel, x0, tau: float, t: float,
              step: Optional[float] = None) -> MonodromyResult:
    """Differential of the flow map along the orbit of ``x0``; an escaped
    orbit raises ``TrajectoryEscape``, with no floating-point warning."""
    if not isinstance(x0, PhaseState):
        x0 = PhaseState(*x0)
    n = _steps_for(t - tau, DEFAULT_STEP if step is None else step)
    with np.errstate(over="ignore", invalid="ignore"):
        Q, P, Mono, _ = integrate_batch(model, tau, t, x0.q, x0.p, n, want_monodromy=True)
    if _escaped(Q, P):
        raise TrajectoryEscape("trajectory escaped during monodromy integration")
    dev = _spectral_norm_2x2(Mono - np.eye(2))
    return MonodromyResult(dqQ=Mono[:1, :1].copy(), dpQ=Mono[:1, 1:].copy(),
                           dqP=Mono[1:, :1].copy(), dpP=Mono[1:, 1:].copy(),
                           deviation=dev)


def sigma_bound(model: HamiltonianModel) -> float:
    """Guaranteed twist window ``m / (4 M^2)`` from the declared constants."""
    m, M = model.m, model.M
    if m <= 0 or M <= 0:
        raise ConfigError("sigma bound needs positive constants")
    return m / (4.0 * M * M)


def check_twist(model: HamiltonianModel, q, t: float, p_box=(-4.0, 4.0),
                n_samples: int = 1000, seed: int = 0,
                step: Optional[float] = None) -> float:
    """Sampled margin of the ``(m t / 2)``-monotonicity of ``p -> Q_0^t(q, p)``.

    Nonnegative margin certifies the twist estimate on the sample; it is
    never a proof.
    """
    if t <= 0:
        raise ConfigError("twist check needs t > 0")
    q = np.broadcast_to(np.atleast_1d(np.asarray(q, float)), (1,))
    rng = np.random.default_rng(seed)
    lo, hi = p_box
    pa = rng.uniform(lo, hi, (n_samples, 1))
    pb = rng.uniform(lo, hi, (n_samples, 1))
    # half the pairs probe locally: p' = p + small increment
    half = n_samples // 2
    pb[:half] = pa[:half] + rng.uniform(-0.05, 0.05, (half, 1))
    keep = np.linalg.norm(pb - pa, axis=1) > 1e-12
    pa, pb = pa[keep], pb[keep]
    Q0 = np.broadcast_to(q, pa.shape)
    n = _steps_for(t, DEFAULT_STEP * 5 if step is None else step)
    Qa = integrate_batch(model, 0.0, t, Q0, pa, n)[0]
    Qb = integrate_batch(model, 0.0, t, Q0, pb, n)[0]
    dp = pb - pa
    quot = np.sum((Qb - Qa) * dp, axis=1) / np.sum(dp * dp, axis=1)
    return float(np.min(quot) - model.m * t / 2.0)


@dataclass(frozen=True)
class TwistWindow:
    """A twist window verified by sampling, usable as sigma_eff downstream."""

    t: float
    margin: float
    p_box: tuple
    n_samples: int
    seed: int

    def __float__(self):
        return self.t

    def to_dict(self):
        return {"t": self.t, "margin": self.margin, "p_box": list(self.p_box),
                "n_samples": self.n_samples, "seed": self.seed}


def certify_sigma(model: HamiltonianModel, t: float, q=None, p_box=(-4.0, 4.0),
                  n_samples: int = 1000, seed: int = 0) -> TwistWindow:
    """Run a twist scan at horizon ``t``; raise if the margin is negative."""
    _checked_positive(t, "twist window")
    if q is None:
        q = np.zeros(1)
    margins = []
    qs = [q] if np.ndim(q) <= 1 else list(q)
    for qq in qs:
        margins.append(check_twist(model, qq, t, p_box=p_box,
                                   n_samples=n_samples, seed=seed))
    margin = float(min(margins))
    if margin < 0:
        raise ConfigError(f"twist margin {margin:.3e} < 0 at t={t}; window not certified")
    return TwistWindow(t=float(t), margin=margin, p_box=tuple(p_box),
                       n_samples=n_samples, seed=seed)


def default_sigma_eff(model: HamiltonianModel, seed: int = 0) -> TwistWindow:
    """Certified working window: try a frequency-scaled candidate, halving on failure."""
    report = check_hypotheses(model, seed=seed)
    cand = min(1.0, 0.8 * np.pi / (2.0 * np.sqrt(max(report.M_emp, 1.0))))
    cand = max(cand, sigma_bound(model))
    for _ in range(6):
        try:
            return certify_sigma(model, cand, seed=seed)
        except ConfigError:
            cand *= 0.5
    return certify_sigma(model, sigma_bound(model), seed=seed)


def resolve_sigma(model: HamiltonianModel, sigma_eff) -> float:
    """Working twist window as a float: formula default, or explicit override."""
    if sigma_eff is None:
        return sigma_bound(model)
    return _checked_positive(float(sigma_eff), "twist window")
