"""Hamiltonian flow, variational (monodromy) equation, and twist checks.

Every integrator here runs jointly on the state, the 2 x 2 monodromy matrix,
and the running Hamiltonian action, so derivative and action estimates share
the state's discretization.  The built-in families, all separable, ``H = a
p^2/2 + g(t) V(q)``, are integrated by Blanes and Moan's SRKN6b splitting
into kicks and drifts: each kick takes the force ``g V'`` (with ``g V`` for
the action and ``g V''`` for the monodromy) from one evaluation, the
monodromy is a product of shears, and the discrete action has ``dW = P dQ -
p dq`` exactly.  The scheme is time-symmetric, and exact without a
potential.  A custom model, whose ``H`` need not be separable, takes a
classical explicit 4th-order Runge-Kutta method (RK4): each stage takes the
vector field, the Hessian blocks of the variational equation and the action
rate from one evaluation of the model's jet, asking only for the terms it
integrates, and the integrated components are packed into one
component-major array, so that a stage input or the step's weighted sum is
one numpy operation on the whole state whatever the batch size.  All
internals are vectorized over the batch axes; the public API wraps single
trajectories.  No row is guarded: its callers judge escapes from the result,
by the one test ``_escaped``, and ``integrate_flow`` and ``monodromy`` raise
``TrajectoryEscape`` on it.
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


# Blanes & Moan's SRKN6b splitting, of order 4: a step is the kicks and
# drifts b1 a1 b2 a2 b3 a3 b4 a3 b3 a2 b2 a1 b1, with the b's (kicks) and
# the a's (drifts) each summing to 1
_A1, _A2 = 0.245298957184271, 0.604872665711080
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_DRIFTS = (_A1, _A2, 0.5 - _A1 - _A2)
_DRIFTS += _DRIFTS[::-1]
_KICKS = (_B1, _B2, _B3, 1.0 - 2.0 * (_B1 + _B2 + _B3), _B3, _B2, _B1)
# the kicks' times within a step, as fractions of it; the last is 1 exactly,
# so that it is the next step's first
_KICK_TIMES = (0.0,) + tuple(map(float, np.cumsum(_DRIFTS)[:-1])) + (1.0,)
# RK4 steps of a caller's request per splitting step: the splitting takes
# ceil(n_steps / RK4_PER_SPLIT) steps, as few as keep its Q, P, monodromy
# and action at least as accurate as RK4's at every request the layers make.
# The float lies just above 10/3, so the quotient never rounds up past an
# integer: it is ceil(3 n_steps / 10) exactly
RK4_PER_SPLIT = 10 / 3


def _drift(top, bottom, p, W, weights, work):
    """A drift with ``weights = (d a, a/2 d)`` for the time ``d``: ``top +=
    (d a) bottom``, and ``W += (a/2 d) p^2`` when ``W`` is not None."""
    if W is not None:
        W += weights[1] * (p * p)
    top += np.multiply(weights[0], bottom, out=work)


def _drift_weights(a, d):
    return d * a, 0.5 * a * d


def _split_flow(model, tau, t, Q0, P0, n_steps, want_monodromy, want_action):
    """``integrate_batch`` for ``H = a p^2/2 + g(t) V(q)``, by kicks and drifts.

    The state is packed in two rows, ``top = (q, m00, m01)`` and ``bottom =
    (p, m10, m11)``, each entry ``(...)``, the monodromy's only when asked
    for.  A kick of weight ``b`` at time ``s`` takes ``F, G, K = g V', g V,
    g V''`` at ``(s, q)`` and sets ``p -= (b h) F``, ``bottom[1:] -= (b h K)
    top[1:]`` and ``W -= (b h) G``; a drift of weight ``c``, for the time
    ``d = c h``, sets ``top += (d a) bottom`` and ``W += (a/2 d) p^2``.  The
    discrete action has ``dW = P dQ - p dq`` exactly.  One force evaluation
    serves a step's last kick and the next step's first, so a step costs
    six.  Without a potential the flow is one drift over the whole span, in
    closed form.
    """
    a, force = model.splitting
    Q0 = np.asarray(Q0, float)
    shape = Q0.shape[:-1]
    top, bottom = X = np.empty((2, 1 + 2 * want_monodromy) + shape)
    # views, also of a single row's 0-d entries, updated in place
    q, p = top[0, ...], bottom[0, ...]
    q[...] = Q0[..., 0]
    p[...] = np.asarray(P0, float)[..., 0]
    if want_monodromy:
        X[:, 1:] = np.reshape([[1.0, 0.0], [0.0, 1.0]], (2, 2) + (1,) * len(shape))
    # -0.0 adds as an exact zero, so a lone drift's action keeps its sign
    W = np.full(shape, -0.0) if want_action else None
    work = np.empty_like(top)
    if force is None:
        _drift(top, bottom, p, W, _drift_weights(a, np.asarray(t - tau, float)), work)
    else:
        n = math.ceil(n_steps / RK4_PER_SPLIT)
        h = (t - tau) / n
        kicks = [b * h for b in _KICKS]
        drifts = [_drift_weights(a, c * h) for c in _DRIFTS]
        s = tau
        F, G, K = force(s, q, want_action, want_monodromy)
        for _ in range(n):
            for i, bh in enumerate(kicks):
                p -= bh * F
                if want_monodromy:
                    bottom[1:] -= (bh * K) * top[1:]
                if want_action:
                    W -= bh * G
                if i < len(drifts):
                    _drift(top, bottom, p, W, drifts[i], work)
                    # an autonomous force takes no time
                    F, G, K = force(s if model.autonomous else s + _KICK_TIMES[i + 1] * h,
                                    q, want_action, want_monodromy)
            s = s + h   # not in place: an array tau is the caller's
    Mono = None
    if want_monodromy:
        Mono = np.ascontiguousarray(np.moveaxis(X[:, 1:], (0, 1), (-2, -1)))
    return q[..., None], p[..., None], Mono, W


def integrate_batch(model: HamiltonianModel, tau: float, t: float, Q0, P0,
                    n_steps: int, want_monodromy: bool = False,
                    want_action: bool = False):
    """Integrate a batch of initial conditions from ``tau`` to ``t``.

    ``Q0`` and ``P0`` are ``(..., 1)``; ``tau`` and ``t`` are numbers, or
    arrays of shape ``(...)`` that give every row its own steps.  Returns
    ``(Q, P, Mono, W)``: ``Q`` and ``P`` shaped like ``Q0``; ``Mono`` of
    shape ``(..., 2, 2)`` and ``W`` the accumulated action, of shape
    ``(...)``, when requested, else None.  No row is guarded: one that blows
    up runs on to inf or NaN and leaves the other rows' bits alone.

    ``n_steps`` is the caller's accuracy request, in RK4 steps.  A custom
    model takes exactly that many RK4 steps, integrated packed (see
    ``_stage``), with the stage buffers allocated once per call and every
    step updated in place; the per-element arithmetic is the plain RK4 of
    each component.  A built-in family takes ``ceil(n_steps /
    RK4_PER_SPLIT)`` steps of the splitting (see ``_split_flow``), each of
    six force evaluations where an RK4 step takes four jets, and a kinetic
    one a single exact drift.  Either way a row's bits are those of a call
    with its own times as numbers.
    """
    if model.splitting is not None:
        return _split_flow(model, tau, t, Q0, P0, n_steps, want_monodromy, want_action)
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
