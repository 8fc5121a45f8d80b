"""Hamiltonian models, standing-hypothesis checks, and the Legendre transform.

A model bundles a vectorized evaluator ``H(t, q, p)`` with one jet, which
gives the derivatives in ``(q, p)`` from one evaluation, the declared
convexity/bound constants ``m`` and ``M``, and the periodicity/autonomy
flags used downstream.  Built-in families (free kinetic, scaled quadratic,
mechanical with a trigonometric-polynomial potential, and a time-forced
variant) write their jets in closed form; models built from user callables
fall back to central finite differences with step ``h_fd``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalDomain, SolverDiverged

DEFAULT_H_FD = 1e-5
TOL_NEWTON = 1e-10
MAX_NEWTON_ITER = 50
TOL_HYP = 1e-6

# identity tokens for custom models: unlike id(), never reused after
# garbage collection, so a new model cannot inherit another's cache entries
_MODEL_TOKENS = itertools.count()


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluable Hamiltonian on the line or circle (d = 1) with its jet.

    ``value(t, q, p)`` and ``jet(t, q, p, action=False, hessian=False)``
    accept arrays ``q, p`` of shape ``(..., 1)``, the trailing axis holding
    the one coordinate (``t`` scalar or broadcastable).  ``value`` returns
    ``H`` of shape ``(...)``.  The jet returns ``(H_q, H_p, L, blocks)``:
    the gradients, of shape ``(..., 1)`` each; with ``action``, the action
    rate ``L = p H_p - H`` of shape ``(...)``, else None; with ``hessian``,
    the second derivatives ``(H_qq, H_qp, H_pp)``, each an array or number
    that broadcasts to ``(...)``, else None.  A term that is not asked for
    is not computed.  ``H_p`` may be ``p`` itself.  Instances are immutable;
    evaluation is pure and thread-safe.
    """

    value: Callable
    jet: Callable
    m: float
    M: float
    periodic: bool
    autonomous: bool
    q_homogeneous: bool = False
    family: str = "custom"
    params: tuple = ()
    token: int = field(default_factory=lambda: next(_MODEL_TOKENS), init=False,
                       compare=False, repr=False)

    def cache_key(self) -> tuple:
        if self.family == "custom":
            return ("custom", self.token)
        return (self.family, self.params)

    def __repr__(self):
        return f"HamiltonianModel(family={self.family!r}, m={self.m:g}, M={self.M:g})"


def _fd_grad_factory(value, h_fd):
    def grad(t, q, p):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        hq = h_fd * (1.0 + np.abs(q))
        hp = h_fd * (1.0 + np.abs(p))
        return ((value(t, q + hq, p) - value(t, q - hq, p))[..., None] / (2 * hq),
                (value(t, q, p + hp) - value(t, q, p - hp))[..., None] / (2 * hp))

    return grad


def _fd_hessian_factory(grad, h_fd):
    def hessian(t, q, p):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        hq = h_fd * (1.0 + np.abs(q))
        hp = h_fd * (1.0 + np.abs(p))
        gq_plus, gq_minus = grad(t, q + hq, p), grad(t, q - hq, p)
        gp_plus, gp_minus = grad(t, q, p + hp), grad(t, q, p - hp)
        return (((gq_plus[0] - gq_minus[0]) / (2 * hq))[..., 0],
                ((gp_plus[0] - gp_minus[0]) / (2 * hp))[..., 0],
                ((gp_plus[1] - gp_minus[1]) / (2 * hp))[..., 0])

    return hessian


def custom_model(value, m, M, grad=None, hessian=None, periodic=False,
                 autonomous=True, q_homogeneous=False, h_fd=DEFAULT_H_FD):
    """Wrap user callables into a model, with finite-difference fallbacks.

    ``grad(t, q, p)`` returns ``(H_q, H_p)``, shaped like ``q``, and
    ``hessian(t, q, p)`` the second derivatives ``(H_qq, H_qp, H_pp)``,
    each broadcasting to ``q``'s shape without its coordinate axis (a
    constant block may be a number); either defaults to central
    differences with step ``h_fd``.  The jet calls ``grad`` once, ``value``
    only for the action rate and ``hessian`` only for the blocks.
    """
    if grad is None:
        grad = _fd_grad_factory(value, h_fd)
    blocks = hessian if hessian is not None else _fd_hessian_factory(grad, h_fd)

    def jet(t, q, p, action=False, hessian=False):
        Hq, Hp = grad(t, q, p)
        L = (p * Hp)[..., 0] - value(t, q, p) if action else None
        return Hq, Hp, L, blocks(t, q, p) if hessian else None

    return HamiltonianModel(value=value, jet=jet, m=m, M=M,
                            periodic=periodic, autonomous=autonomous,
                            q_homogeneous=q_homogeneous)


def _separable_model(family, params, m, M, a=1.0, V=None, eps=None) -> HamiltonianModel:
    """``a p^2/2 + g(t) V(q)`` on the circle, ``g(t) = 1 + eps sin(2 pi t)``.

    The kinetic families have no potential ``V``; ``eps`` is None, and ``g``
    never formed, when the model is autonomous.  The constant blocks are
    numbers: ``H_qp = 0``, ``H_pp = a``, and ``H_qq = 0`` without ``V``.
    """
    half_a = 0.5 * a

    def g(t):
        return 1.0 + eps * np.sin(2 * np.pi * np.asarray(t, float))

    def value(t, q, p):
        p = np.asarray(p, float)
        H = half_a * np.sum(p * p, axis=-1)
        if V is None:
            return H
        Vq = V(np.asarray(q, float)[..., 0])
        return H + (Vq if eps is None else g(t) * Vq)

    def jet(t, q, p, action=False, hessian=False):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        Hp = p if a == 1.0 else a * p
        kinetic = half_a * (p * p)[..., 0] if action else None
        if V is None:
            return np.zeros_like(q), Hp, kinetic, (0.0, 0.0, a) if hessian else None
        dV, V0, d2V = V.jet(q[..., 0], action, hessian)
        if eps is not None:
            gt = g(t)
            dV = gt * dV
            V0 = gt * V0 if action else None
            d2V = gt * d2V if hessian else None
        L = kinetic - V0 if action else None
        return dV[..., None], Hp, L, (d2V, 0.0, a) if hessian else None

    return HamiltonianModel(value=value, jet=jet, m=m, M=M, periodic=True,
                            autonomous=eps is None, q_homogeneous=V is None,
                            family=family, params=params)


def quadratic_model(a: float = 1.0) -> HamiltonianModel:
    """Kinetic Hamiltonian ``a p^2 / 2``; ``a = 1`` is the free model."""
    if a <= 0:
        raise ConfigError("quadratic model requires a > 0")
    return _separable_model("quadratic", (float(a),), a, a, a)


def free_model() -> HamiltonianModel:
    """``p^2 / 2``."""
    return replace(quadratic_model(1.0), family="free")


class TrigPolynomial:
    """1-d potential ``c0 + sum_k a_k cos(2 pi k q) + b_k sin(2 pi k q)``.

    Coefficients are packed ``[c0, a1, b1, a2, b2, ...]``.  Calling it
    reduces the argument mod 1 first, so integer shifts are exact; ``jet``
    takes the argument as given.
    """

    def __init__(self, coeffs):
        coeffs = list(np.asarray(coeffs, float).ravel())
        if len(coeffs) % 2 == 0:
            coeffs.append(0.0)
        self.coeffs = np.asarray(coeffs)
        self.c0 = self.coeffs[0]
        self.a = self.coeffs[1::2]
        self.b = self.coeffs[2::2]
        self.k = np.arange(1, len(self.a) + 1)
        self._has_b = bool(np.any(self.b != 0.0))
        self._single = len(self.a) == 1 and not self._has_b
        w = 2 * np.pi * self.k
        w2 = (2 * np.pi * self.k) ** 2
        self._wa, self._wb, self._w2a, self._w2b = w * self.a, w * self.b, w2 * self.a, w2 * self.b
        self._single_d1 = -2 * np.pi * self.a[0]
        self._single_d2 = -4 * np.pi ** 2 * self.a[0]

    def _theta(self, q):
        q = np.asarray(q, float)
        return (2 * np.pi) * q if self._single else (2 * np.pi) * q[..., None] * self.k

    def _value(self, c, s):
        if self._single:
            return self.c0 + self.a[0] * c
        out = self.c0 + c @ self.a
        return out + s @ self.b if self._has_b else out

    def __call__(self, q):
        th = self._theta(np.mod(np.asarray(q, float), 1.0))
        return self._value(np.cos(th), np.sin(th) if self._has_b else None)

    def jet(self, q, value=False, second=False):
        """``(V', V, V'')`` at ``q``, not reduced, from one sine and one
        cosine; ``V`` and ``V''`` are None unless asked for, and a
        cosine-only potential's ``V'`` takes no cosine."""
        th = self._theta(q)
        s = np.sin(th)
        c = np.cos(th) if value or second or self._has_b else None
        V = self._value(c, s) if value else None
        if self._single:
            return self._single_d1 * s, V, self._single_d2 * c if second else None
        dV = -s @ self._wa
        if self._has_b:
            dV = dV + c @ self._wb
        d2V = None
        if second:
            d2V = -c @ self._w2a
            if self._has_b:
                d2V = d2V - s @ self._w2b
        return dV, V, d2V

    def max_curvature(self) -> float:
        return float(np.sum((2 * np.pi * self.k) ** 2 * (np.abs(self.a) + np.abs(self.b))))

    def bound(self) -> float:
        return float(abs(self.c0) + np.sum(np.abs(self.a) + np.abs(self.b)))


def mechanical_model(V_coeffs, m: Optional[float] = None, M: Optional[float] = None) -> HamiltonianModel:
    """``p^2/2 + V(q)`` on the circle, V a trigonometric polynomial."""
    V = TrigPolynomial(V_coeffs)
    declared_m = 1.0 if m is None else float(m)
    declared_M = max(1.0, V.max_curvature(), V.bound()) if M is None else float(M)
    return _separable_model("mechanical", tuple(map(float, V.coeffs)), declared_m, declared_M, V=V)


def pendulum_model() -> HamiltonianModel:
    """``p^2/2 + cos(2 pi q)``."""
    return mechanical_model([0.0, 1.0], m=1.0, M=4 * np.pi ** 2)


def forced_model(V_coeffs, epsilon: float = 0.2, m: Optional[float] = None,
                 M: Optional[float] = None) -> HamiltonianModel:
    """``p^2/2 + (1 + eps sin(2 pi t)) V(q)``: 1-periodic in time."""
    V = TrigPolynomial(V_coeffs)
    eps = float(epsilon)
    declared_m = 1.0 if m is None else float(m)
    declared_M = max(1.0, (1 + abs(eps)) * max(V.max_curvature(), V.bound())) if M is None else float(M)
    return _separable_model("forced", tuple(map(float, V.coeffs)) + (eps,), declared_m, declared_M,
                            V=V, eps=eps)


_MODEL_KEYS = {"family", "d", "V_coeffs", "a", "epsilon", "m", "M", "periodic"}


def model_from_dict(desc: dict) -> HamiltonianModel:
    """Build a model from its JSON description; unknown keys are rejected."""
    unknown = set(desc) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    family = desc.get("family")
    if family is None:
        raise ConfigError("model description requires a 'family' key")
    if int(desc.get("d", 1)) != 1:
        raise ConfigError(f"models live on the line or circle: need d = 1, got d = {desc['d']}")
    m = desc.get("m")
    M = desc.get("M")
    if family == "free":
        model = free_model()
    elif family == "quadratic":
        model = quadratic_model(float(desc.get("a", 1.0)))
    elif family == "mechanical":
        model = mechanical_model(desc.get("V_coeffs", [0.0]), m=m, M=M)
    elif family == "forced":
        model = forced_model(desc.get("V_coeffs", [0.0]), epsilon=float(desc.get("epsilon", 0.2)), m=m, M=M)
    else:
        raise ConfigError(f"unknown model family {family!r}")
    if m is not None or M is not None:
        model = replace(model, m=model.m if m is None else float(m),
                        M=model.M if M is None else float(M))
    if "periodic" in desc and bool(desc["periodic"]) != model.periodic:
        raise ConfigError(f"family {family!r} has periodic={model.periodic}, description disagrees")
    return model


def model_from_json(path) -> HamiltonianModel:
    with open(path) as fh:
        try:
            desc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed model file {path}: {exc}") from exc
    return model_from_dict(desc)


def _point(q):
    q = np.atleast_1d(np.asarray(q, float))
    if q.shape != (1,):
        raise ConfigError(f"expected a length-1 vector, got shape {q.shape}")
    return q


def eval_and_grads(model: HamiltonianModel, t: float, q, p):
    """Evaluate ``H`` and its gradients at a single phase point.

    Raises NumericalDomain if the evaluator returns a non-finite value.
    """
    q = _point(q)
    p = _point(p)
    if not np.isfinite(t):
        raise ConfigError("time must be finite")
    H = float(model.value(t, q, p))
    Hq, Hp, _, _ = model.jet(t, q, p)
    if not (np.isfinite(H) and np.all(np.isfinite(Hq)) and np.all(np.isfinite(Hp))):
        raise NumericalDomain(f"non-finite Hamiltonian data at t={t}, q={q}, p={p}",
                              point=(t, q.copy(), p.copy()))
    return H, np.array(Hq, float), np.array(Hp, float)


@dataclass
class HypothesisReport:
    """Sampled verification of the standing hypotheses (never a proof)."""

    passes: dict
    m_emp: float
    M_emp: float
    worst_point: tuple
    n_samples: int
    seed: int
    declared_m: float
    declared_M: float
    notes: str = "sampled check only; no global claim"
    h3_violation: float = 0.0
    periodic_defect: float = 0.0

    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_dict(self) -> dict:
        return {
            "passes": dict(self.passes),
            "m_emp": self.m_emp,
            "M_emp": self.M_emp,
            "worst_point": [float(x) for x in np.ravel(np.concatenate([[self.worst_point[0]],
                                                                       self.worst_point[1], self.worst_point[2]]))],
            "n_samples": self.n_samples,
            "seed": self.seed,
            "declared_m": self.declared_m,
            "declared_M": self.declared_M,
            "h3_violation": self.h3_violation,
            "periodic_defect": self.periodic_defect,
            "notes": self.notes,
        }


def check_hypotheses(model: HamiltonianModel, sample_box=None, n_samples: int = 400,
                     seed: int = 0, tol_hyp: float = TOL_HYP) -> HypothesisReport:
    """Sample the box and report empirical constants and hypothesis status.

    The sample always includes a small deterministic lattice (so potential
    extrema on coordinate axes are hit) plus ``n_samples`` seeded draws.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if sample_box is None:
        sample_box = ((0.0, 1.0), (-1.0, 1.0), (-3.0, 3.0))
    (t0, t1), (q0, q1), (p0, p1) = sample_box
    if not (t1 >= t0 and q1 > q0 and p1 > p0):
        raise ConfigError("sample box is degenerate")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(t0, t1, n_samples)
    qs = rng.uniform(q0, q1, (n_samples, 1))
    ps = rng.uniform(p0, p1, (n_samples, 1))
    # deterministic lattice, momenta at rest and box edges
    lat_q = np.linspace(q0, q1, 17)[:, None]
    lat_t = np.full(len(lat_q), t0)
    lat_p = np.zeros_like(lat_q)
    ts = np.concatenate([ts, lat_t, lat_t])
    qs = np.concatenate([qs, lat_q, lat_q])
    ps = np.concatenate([ps, lat_p, np.full_like(lat_p, p1)])

    # one sample per row of shape (1, 1): a potential of several modes then
    # sums them per sample as at a single point, so the reported constants
    # are those of point evaluations bit for bit
    t_r, q_r, p_r = ts[:, None], qs[:, None], ps[:, None]
    H = model.value(t_r, q_r, p_r)[:, 0]
    Hqq, Hqp, Hpp = (np.broadcast_to(b, t_r.shape) for b in model.jet(t_r, q_r, p_r, hessian=True)[3])
    M_vals = np.linalg.norm(np.stack([Hqq, Hqp, Hqp, Hpp], axis=-1).reshape(-1, 2, 2), 2, axis=(1, 2))

    m_emp = float(Hpp.min())
    M_emp = float(M_vals.max())
    i_worst = int(M_vals.argmax())
    worst = (float(ts[i_worst]), qs[i_worst].copy(), ps[i_worst].copy())

    p_sq = np.sum(ps * ps, axis=1)
    lower = model.m / 2 * p_sq - model.M
    upper = model.M / 2 * p_sq + model.M
    h3_violation = float(max(np.max(lower - H), np.max(H - upper), 0.0))

    periodic_defect = 0.0
    if model.periodic:
        periodic_defect = float(np.max(np.abs(model.value(ts, qs + 1.0, ps) - H)))

    passes = {
        "H1": M_emp <= model.M + tol_hyp,
        "H2": m_emp >= model.m - tol_hyp,
        "H3": h3_violation <= tol_hyp,
        "H5": (periodic_defect <= 1e-12) if model.periodic else True,
    }
    return HypothesisReport(passes=passes, m_emp=m_emp, M_emp=M_emp, worst_point=worst,
                            n_samples=len(ts), seed=seed, declared_m=model.m,
                            declared_M=model.M, h3_violation=h3_violation,
                            periodic_defect=periodic_defect)


def legendre_batch(model: HamiltonianModel, t, q, v):
    """Vectorized Legendre transform: maximize ``p . v - H(t, q, p)`` over p.

    Returns ``(L, p_star)`` with shapes ``(...)``, ``(..., 1)``.  The damped
    Newton iteration on ``H_p = v`` is globally convergent under H2.  Each
    trial takes the residual and ``H_pp`` from one jet evaluation; the
    accepted rows carry ``H_pp`` into the next Newton step.
    """
    q = np.asarray(q, float)
    v = np.asarray(v, float)
    p = np.zeros_like(v)

    def residual(p):
        _, Hp, _, blocks = model.jet(t, q, p, hessian=True)
        return Hp - v, blocks[2]

    r, Hpp = residual(p)
    rnorm = np.linalg.norm(r, axis=-1)
    for _ in range(MAX_NEWTON_ITER):
        if np.all(rnorm <= TOL_NEWTON):
            break
        step = -r / np.asarray(Hpp)[..., None]
        lam = np.ones(rnorm.shape)
        active = rnorm > TOL_NEWTON
        for _bt in range(30):
            p_try = p + lam[..., None] * step
            r_try, Hpp_try = residual(p_try)
            rn_try = np.linalg.norm(r_try, axis=-1)
            better = (rn_try <= (1 - 0.25 * lam) * rnorm) | ~active
            if np.all(better):
                break
            lam = np.where(better, lam, lam * 0.5)
        p = np.where(active[..., None], p_try, p)
        r = np.where(active[..., None], r_try, r)
        Hpp = np.where(active, Hpp_try, Hpp)
        rnorm = np.where(active, rn_try, rnorm)
    else:
        raise SolverDiverged("Legendre Newton iteration failed",
                             residual=float(np.max(rnorm)))
    L = np.sum(p * v, axis=-1) - model.value(t, q, p)
    return L, p


def legendre(model: HamiltonianModel, t: float, q, v):
    """Legendre transform at a single point: ``(L(t, q, v), p_star)``."""
    q = _point(q)
    v = _point(v)
    L, p = legendre_batch(model, t, q, v)
    return float(L), np.asarray(p, float)
