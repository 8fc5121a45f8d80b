"""Lax-Oleinik operators and sup/inf-convolution regularization on the torus.

The discrete operators take the infimum (supremum) over grid nodes only,
which keeps monotonicity and translation invariance exact at first-order
accuracy in the mesh.  Every pair action on the grid comes from one
primitive, ``_pair_actions``: the generating function inside the twist
window, a relaxed broken geodesic beyond it.  The action kernel
``A_tau^t(theta, theta + dd/n)`` tabulates it once per (model, horizon,
grid, radius) and is cached; a wider request solves only the new
displacement columns and splices them around the cached block.  For
q-homogeneous families a single displacement row suffices.  One entry per
orbit of the model's symmetries is solved and copied to the rest.  The
free, quadratic and mechanical families are autonomous and even in p, so
time reversal gives ``A(x, y) = A(y, x)``, which takes an entry ``(j, dd)``
to ``(j + dd mod n, -dd)``; mechanical and forced potentials with no sine
term are even, so reflection gives ``A(x, y) = A(-x, -y)``, which takes it
to ``(-j mod n, -dd)``.  An orbit stays in its columns ``+-dd``, so a growth
solves the problems a fresh build does, and its entries hold one solve bit
for bit (row 0 of an even potential stays symmetric, as the Aubry-set seed
at the origin needs).  The built-in families' flow is time-symmetric, so a
copy is its own direct solve to about 1e-13, the landing correction's, at
``|dd| / n = 3/4`` and ``KERNEL_STEP``, or to rounding under reflection
alone.  Custom models solve every entry.  Each cached kernel, stored by
source node, is one plane of a read-only array whose other plane is its
target-major companion: the same entries stored by target node, filled
only when the kernel is built or grown.  ``T`` and its dual share one
min-plus routine: one strided window of the periodically extended operand
(reversed for ``T``) plus (dual: minus) a kernel window, one
``(n, 2 D + 1)`` array reduced along its rows in both directions.  Its
window is the smaller of two radii.  ``search_radius`` bounds the
minimizer's reach by the operand's oscillation: for the built-in families,
``sqrt(2 a dt (osc u + dt (1 + |eps|) osc V))`` from comparing each curve
with the one that rests at its target, plus one cell.  Past the twist
window, where the entries are relaxed chains, and for custom models, the
bound by the Hessian constant ``M`` (``_hessian_radius``) takes its place.
``velocity_radius`` is the distance a minimizer can travel when its start
momentum is bounded by the operand's Lipschitz constant.
For the built-in families that is the integral of the momentum envelope
``min(lip + s sup|H_q|, P_E)``, capped by energy conservation at ``P_E`` when
the model is autonomous, with its sups sampled once per model and time
slot.  A boundary check doubles the window whenever the discrete argmin
reaches its edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .action import minimal_action_batch
from .errors import ConfigError, SearchRadiusExceeded
from .flow import resolve_sigma
from .generating import KERNEL_STEP, generating_batch
from .hamiltonian import HamiltonianModel

_KERNEL_CACHE: dict = {}
# sup |H_q| and sup |H_p| at |p| <= 1, per (model, slot), for the built-in families
_SUPS_CACHE: dict = {}
_CACHE_LIMIT = 32
# autonomous and even in p for every member, so A(x, y) = A(y, x); custom
# models are never assumed reversible or even, even when they are
_REVERSIBLE = frozenset({"free", "quadratic", "mechanical"})


@dataclass
class GridFunction:
    """Scalar samples on the uniform periodic grid of the circle ``[0, 1)``.

    ``d`` is the dimension of the circle and must be 1.
    """

    d: int
    n_per_dim: int
    values: np.ndarray

    def __post_init__(self):
        if self.d != 1:
            raise ConfigError(f"grid functions live on the circle: need d = 1, got d = {self.d}")
        if not self.n_per_dim >= 1:
            raise ConfigError(f"need n_per_dim >= 1, got {self.n_per_dim}")
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.n_per_dim,):
            raise ConfigError(f"values shape {self.values.shape} does not match "
                              f"(n_per_dim,) = {(self.n_per_dim,)}")
        if not np.isfinite(self.values).all():
            raise ConfigError("grid function has non-finite values")

    @classmethod
    def from_callable(cls, fn, n: int):
        """Samples of ``fn`` at the ``n`` nodes of the circle."""
        return cls(d=1, n_per_dim=n, values=np.asarray(fn(np.arange(n) / n), float))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_per_dim) / self.n_per_dim

    @property
    def lip_estimate(self) -> float:
        # adjacent differences and the wrap pair, as np.roll(values, -1) pairs them
        v = self.values
        return float(np.abs(v[1:] - v[:-1]).max(initial=abs(v[0] - v[-1])) * self.n_per_dim)

    def osc(self) -> float:
        return float(self.values.max() - self.values.min())

    def shifted(self, c: float) -> "GridFunction":
        return GridFunction(1, self.n_per_dim, self.values + c)

    def save(self, path):
        header = json.dumps({"d": 1, "n_per_dim": self.n_per_dim})
        body = "\n".join(f"{v:.17g}" for v in self.values)
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n" + body + "\n")

    @classmethod
    def load(cls, path):
        """Read a file written by ``save``; a malformed one raises ConfigError."""
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"grid header is not JSON: {exc}") from exc
            if not isinstance(header, dict) or "n_per_dim" not in header:
                raise ConfigError("grid header must be a JSON object with 'n_per_dim'")
            unknown = set(header) - {"d", "n_per_dim"}
            if unknown:
                raise ConfigError(f"unknown grid header keys: {sorted(unknown)}")
            try:
                d, n = int(header.get("d", 1)), int(header["n_per_dim"])
                vals = np.array([float(line) for line in fh if line.strip()])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"malformed grid file: {exc}") from exc
        return cls(d=d, n_per_dim=n, values=vals)


def semiconcavity_constant(u: GridFunction) -> float:
    """Largest centered second difference times ``n^2`` (positive part)."""
    sd = (np.roll(u.values, -1) - 2 * u.values + np.roll(u.values, 1)) * u.n_per_dim ** 2
    return float(sd.max())


def second_difference_bound(u: GridFunction) -> float:
    """Largest absolute centered second difference times ``n^2``."""
    return max(semiconcavity_constant(u),
               semiconcavity_constant(GridFunction(1, u.n_per_dim, -u.values)))


def search_radius(model: HamiltonianModel, dt: float, osc: float, n: int) -> float:
    """How far the grid argmin of a kernel of minimal actions can sit from
    its target node, for an operand of oscillation ``osc``.

    The built-in families are ``H = a p^2 / 2 + g(t) V(q)`` with ``g = 1 +
    eps sin 2 pi t`` (``V = 0`` for the kinetic ones, ``eps = 0`` when
    autonomous), so ``L = v^2 / (2 a) - g V``.  A curve from ``theta`` to
    ``q`` over ``dt`` has kinetic action at least ``|q - theta|^2 / (2 a
    dt)``, and the curve resting at ``q`` bounds ``A(q, q)`` above, so
    ``A(theta, q) - A(q, q) >= |q - theta|^2 / (2 a dt) - dt (1 + |eps|) osc
    V``.  At the argmin ``theta*`` of ``u(theta) + A(theta, q)``, the
    candidate ``theta = q`` gives ``A(theta*, q) - A(q, q) <= osc u``.  Hence
    ``|q - theta*| <= sqrt(2 a dt (osc u + dt (1 + |eps|) osc V))``, with
    ``osc V <= 2 sum_k (|a_k| + |b_k|)`` from the coefficients; the dual
    operator's argmax obeys the same bound (Fathi, *The Weak KAM Theorem in
    Lagrangian Dynamics*, ch. 4).  One cell of margin covers the kernel's
    integrator error.  A custom model gets ``_hessian_radius``.  The
    operators take the smaller of this and ``velocity_radius``.
    """
    if model.family == "custom":
        return _hessian_radius(model, dt, osc, n)
    if model.q_homogeneous:   # params (a,)
        return math.sqrt(2 * model.params[0] * dt * osc) + 1.0 / n
    # params [c0, a1, b1, ...], then the forced eps
    coeffs, eps = ((model.params[1:-1], model.params[-1]) if model.family == "forced"
                   else (model.params[1:], 0.0))
    osc_V = 2 * sum(map(abs, coeffs))
    return math.sqrt(2 * dt * (osc + dt * (1 + abs(eps)) * osc_V)) + 1.0 / n


def _hessian_radius(model, dt, osc, n):
    """The search radius that bounds the potential by the Hessian constant
    ``M``.  Custom models keep it, and so do kernels past the twist window:
    their entries are relaxed chains that can sit above the minimal action,
    so ``search_radius``'s comparison with the resting curve fails there."""
    return math.sqrt(2 * model.m * dt * (osc + 2 * model.M * dt + 1.0)) + 1.0 / n


# sample positions and momentum steps: columns that broadcast to (64, 17, 1)
_Q_GRID = (np.arange(64) / 64)[:, None, None]
_P_STEPS = np.arange(17.0)[:, None]


def _grad_sups(model, times, band):
    """``sup |H_q|`` and ``sup |H_p|`` sampled on ``[0, 1) x [-band, band]``.

    The 64 positions are built at import.  The 17 momenta are
    ``k (2 band / 16) - band``, the last set to ``band``, which rounds as
    ``np.linspace(-band, band, 17)`` does.  The closed-form jets take both
    as columns that broadcast to the 64 x 17 grid, so each term is evaluated
    once per position or momentum.  A custom ``grad`` may rely on the jet
    contract's one shape, so it gets both broadcast to ``(64, 17, 1)``.
    One jet per sample time.
    """
    P = _P_STEPS * (2 * band / 16)
    P -= band
    P[-1] = band
    Q = _Q_GRID
    if model.family == "custom":
        Q, P = np.broadcast_arrays(Q, P)
    jets = [model.jet(s, Q, P) for s in times]
    return (max(float(np.abs(j[0]).max()) for j in jets),
            max(float(np.abs(j[1]).max()) for j in jets))


def velocity_radius(model: HamiltonianModel, tau: float, t: float, lip: float,
                    n: int) -> float:
    """How far the grid argmin of ``T_tau^t`` can sit from its target node.

    At the argmin the one-sided differences of the action in the free
    endpoint are bounded by ``lip``, the operand's Lipschitz constant, so
    the minimizer starts with momentum in ``|p| <= lip``.  Two cells are
    added to its travel: the argmin sits within one cell of that start, and
    one cell is margin.  In the built-in families ``H_q`` does not depend
    on ``p`` and ``H_p = a p`` not on ``q``; ``G = sup |H_q|`` and ``a``
    are sampled once per model and slot (``_unit_band_sups``).  The
    momentum then obeys the envelope ``|p(s)| <= min(lip + s G, P_E)``:
    it grows at most at rate ``G``, and for the autonomous families energy
    conservation, ``a p^2 / 2 <= a lip^2 / 2 + osc V`` with ``osc V <= G /
    2`` on the circle, caps it at ``P_E = sqrt(lip^2 + G / a)`` (Fathi,
    *The Weak KAM Theorem in Lagrangian Dynamics*, ch. 4).  The travel is
    ``a`` times the envelope's exact integral over ``[0, dt]``:
    ``dt lip + G dt^2 / 2`` up to ``s* = (P_E - lip) / G``, and ``dt P_E -
    (P_E - lip)^2 / (2 G)`` beyond it.  A custom model is sampled on every
    call from ``model.jet`` (at the slot's times when ``H`` depends on
    time) and travels at most ``dt sup |H_p|`` over the band ``|p| <= lip
    + dt sup |H_q|``.  The operators' boundary check backs the sampling.
    """
    dt = t - tau
    if model.family == "custom":
        times = _slot_times(model, tau, t)
        gq = _grad_sups(model, times, lip)[0]
        gp = _grad_sups(model, times, lip + dt * gq)[1]
        return dt * gp + 2.0 / n
    G, a = _unit_band_sups(model, tau, t)
    travel = dt * lip + G * dt * dt / 2
    if model.autonomous and G > 0:
        cap = math.sqrt(lip * lip + G / a)
        if dt > (cap - lip) / G:
            travel = dt * cap - (cap - lip) ** 2 / (2 * G)
    return a * travel + 2.0 / n


def _slot_times(model, tau, t):
    return [tau] if model.autonomous else np.linspace(tau, t, 5)


def _unit_band_sups(model, tau, t):
    """``_grad_sups`` at band 1 over the slot's times, sampled once per
    (model, slot); bounded like the kernel cache and cleared with it."""
    key = (model.cache_key(), "auto" if model.autonomous else (tau, t))
    sups = _SUPS_CACHE.get(key)
    if sups is None:
        if len(_SUPS_CACHE) >= _CACHE_LIMIT:
            _SUPS_CACHE.pop(next(iter(_SUPS_CACHE)))
        sups = _SUPS_CACHE[key] = _grad_sups(model, _slot_times(model, tau, t), 1.0)
    return sups


def clear_kernel_cache():
    _KERNEL_CACHE.clear()
    _SUPS_CACHE.clear()


def _kernel_key(model, tau, t, n, sigma):
    slot = "auto" if model.autonomous else round(tau, 12)
    return (model.cache_key(), slot, round(t - tau, 12), n, round(sigma, 12))


def _past_window(tau, t, sigma):
    """Whether ``_pair_actions`` relaxes chains, past the twist window."""
    return t - tau > sigma * (1 + 1e-12)


def _pair_actions(model, tau, t, Q0, Q1, sigma):
    """``A_tau^t(Q0, Q1)`` for a batch of pairs (rows of ``Q0``, ``Q1``).

    Inside the twist window ``sigma`` this is the generating function at
    ``KERNEL_STEP``, its values alone (``want_momenta=False``): one pass of
    state and action, with a far landing corrected to second order in place
    of another pass; beyond it, the broken geodesic relaxed from the
    straight-line chain.
    """
    if not _past_window(tau, t, sigma):
        return generating_batch(model, tau, t, Q0, Q1, sigma_eff=sigma,
                                step_target=KERNEL_STEP, want_momenta=False)[0]
    return minimal_action_batch(model, tau, t, Q0, Q1, sigma_eff=sigma)[0]


def action_kernel(model: HamiltonianModel, tau: float, t: float, n: int,
                  D: int, sigma_eff=None) -> np.ndarray:
    """Tabulate ``A_tau^t(x_i, x_i + dd/n)`` for ``dd in [-D, D]``.

    Returns shape ``(rows, 2 D + 1)`` with ``rows = 1`` for q-homogeneous
    models.  Cached; when a wider radius is asked, only the displacements
    ``Dc < |dd| <= D`` beyond the cached ``Dc`` are solved, in one batch,
    and the cached columns are kept as they are.  An entry ``(j, dd)`` is
    solved only when it is the least, by row and then ``dd``, of its orbit
    under the model's symmetries: reflection ``(-j, -dd)`` for mechanical
    and forced potentials with no sine term, time reversal ``(j + dd, -dd)``
    for ``_REVERSIBLE``, and ``(-j - dd, dd)`` when both hold, rows mod n;
    the orbit's other entries copy it.  So an autonomous even n-row build
    with n even and ``D < n / 2`` solves ``(n / 2 + 1) + D n / 2 +
    floor(D / 2)`` entries in place of ``n (2 D + 1)``, and a growth and a
    fresh build still solve each entry as the same problem.  Each build or
    growth also fills the target-major companion ``Kt[j, dd + D] =
    K[(j - dd) % rows, dd + D]`` that the forward operator reads: K and Kt
    are the two planes of one read-only array, so they are cached and
    evicted as one, and ``_target_major`` reaches Kt from any window of K.
    A copy is within about 1e-13 of its own direct solve, since the built-in
    families' flow is time-symmetric (see ``flow``).
    """
    sigma = resolve_sigma(model, sigma_eff)
    key = _kernel_key(model, tau, t, n, sigma)
    rows = 1 if model.q_homogeneous else n
    cached = _KERNEL_CACHE.get(key)
    Dc = -1 if cached is None else (cached.shape[1] - 1) // 2
    if Dc >= D:
        return cached[:, Dc - D:Dc + D + 1]
    if cached is None:
        cached = np.empty((rows, 0))
    x = np.zeros(1) if rows == 1 else np.arange(n) / n
    dds = np.setdiff1d(np.arange(-D, D + 1), np.arange(-Dc, Dc + 1))
    # each entry (j, dd) is solved or copied from the least flat index, by
    # row and then dd, of its orbit under the model's symmetries, which keep
    # the columns +-dd; dds is symmetric about 0, so column len(dds) - 1 - c
    # holds -dds[c]
    j, c = np.arange(rows)[:, None], np.arange(len(dds))
    flat = j * len(dds) + c
    rep, flip = flat.copy(), len(dds) - 1 - c
    reverse = model.family in _REVERSIBLE
    # H(t, -q, -p) = H(t, q, p) when V has no sine term: params pack [c0, a1,
    # b1, ...], then the forced eps at an odd index
    reflect = model.family in ("mechanical", "forced") and not any(model.params[2::2])
    for on, row, col in ((reverse, j + dds, flip), (reflect, -j, flip),
                         (reverse and reflect, -j - dds, c)):
        if on:
            np.minimum(rep, row % rows * len(dds) + col, out=rep)
    solve = rep == flat
    new = np.empty((rows, len(dds)))
    Q0 = np.broadcast_to(x[:, None], new.shape)[solve][:, None]
    Q1 = Q0 + np.broadcast_to(dds / n, new.shape)[solve][:, None]
    new[solve] = _pair_actions(model, tau, t, Q0, Q1, sigma)
    new = new.ravel()[rep]
    half = len(dds) // 2
    planes = np.empty((2, rows, 2 * D + 1))
    np.concatenate([new[:, :half], cached, new[:, half:]], axis=1, out=planes[0])
    dd = np.arange(-D, D + 1)
    planes[1] = planes[0][(np.arange(rows)[:, None] - dd) % rows, dd + D]
    # callers get views of the cached array: keep them from editing it
    planes.flags.writeable = False
    K = planes[0]
    if key not in _KERNEL_CACHE and len(_KERNEL_CACHE) >= _CACHE_LIMIT:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[key] = K
    return K


def _target_major(K):
    """The companion columns ``dd in [-D, D]`` beside a window ``K`` that
    ``action_kernel`` returned: the second plane of the array ``K`` views."""
    planes = K.base
    Dc, D = (planes.shape[2] - 1) // 2, (K.shape[1] - 1) // 2
    return planes[1, :, Dc - D:Dc + D + 1]


def _quantize(D: int) -> int:
    # quantized so the cached kernel survives small radius drifts
    return -(-D // 16) * 16


def _min_plus(model, u, tau, t, sigma_eff, dual):
    """Image of ``u`` and, per node, the displacement ``dd`` that attains it.

    The candidates form an ``(n, 2 D + 1)`` array over the target node ``j``
    and the displacement ``dd in [-D, D]``, built with no index array from
    one strided view of the operand extended periodically by ``D`` nodes,
    whose row ``j`` starts at node ``j - D`` and steps up one node at a time
    (the forward operator's starts at ``j + D`` and steps down).  The dual
    subtracts the kernel: ``u(j + dd) - K[j, dd + D]``.  The forward
    operator adds the target-major companion to its reversed window:
    ``u(j - dd) + Kt[j, dd + D]``, which is ``u(theta) + K[theta, dd + D]``
    at ``theta = j - dd``.  A one-row kernel broadcasts in both.  The
    extremum is taken along each row in increasing ``dd``, so ties go to the
    most negative displacement.  The source node is ``(j + dd) % n`` for
    the dual and ``(j - dd) % n`` for ``T``.
    """
    if not model.periodic:
        raise ConfigError("Lax-Oleinik operators need a periodic model")
    if not 0 < t - tau < np.inf:
        raise ConfigError("need a finite t > tau")
    n = u.n_per_dim
    # past the window the entries are chain values, not minima
    chains = _past_window(tau, t, resolve_sigma(model, sigma_eff))
    R = min((_hessian_radius if chains else search_radius)(model, t - tau, u.osc(), n),
            velocity_radius(model, tau, t, u.lip_estimate, n))
    D = _quantize(math.ceil(R * n))
    for attempt in range(2):
        if attempt:
            D = _quantize(2 * D)
        K = action_kernel(model, tau, t, n, D, sigma_eff=sigma_eff)
        # ext holds nodes -D, ..., n + D - 1, in reverse for T, so each row of
        # the strided window steps forward through it; the rows overlap, so
        # they are copied out and the add runs in place on contiguous rows,
        # which is faster than through the view
        idx = np.arange(-D, n + D)
        ext = u.values.take(idx if dual else idx[::-1], mode="wrap")
        s = ext.itemsize
        cand = np.ndarray((n, 2 * D + 1), float, ext, 0 if dual else (n - 1) * s,
                          (s if dual else -s, s)).copy()
        if dual:
            cand -= K
        else:
            cand += _target_major(K)
        best = (np.argmax if dual else np.argmin)(cand, axis=1)
        if 0 < best.min() and best.max() < 2 * D:
            return GridFunction(1, n, cand[np.arange(n), best]), best - D
    raise SearchRadiusExceeded("discrete infimum still attained on the doubled "
                               f"search boundary (D = {D})", residual=D)


def apply_T(model: HamiltonianModel, u: GridFunction, tau: float, t: float,
            sigma_eff=None) -> GridFunction:
    """Forward Lax-Oleinik operator: ``inf_theta u(theta) + A_tau^t(theta, q)``."""
    return _min_plus(model, u, tau, t, sigma_eff, dual=False)[0]


def apply_T_dual(model: HamiltonianModel, u: GridFunction, tau: float, t: float,
                 sigma_eff=None) -> GridFunction:
    """Backward operator: ``sup_theta u(theta) - A_tau^t(q, theta)``."""
    return _min_plus(model, u, tau, t, sigma_eff, dual=True)[0]


def default_delta(model: HamiltonianModel, u: GridFunction, t: float,
                  sigma_eff=None) -> float:
    """Regularization parameter from the proof's smallness condition.

    The measured semi-concavity constant of the operand is clamped by the
    (m, M)-theoretical constant of the mid-stage image; the raw constant
    of a kinked operand diverges with the grid and would drive delta to 0.
    """
    sigma = resolve_sigma(model, sigma_eff)
    c_scale = 2.0 * (1.0 + 2.0 * model.M * min(t, sigma)) / model.m
    c_u = min(max(semiconcavity_constant(u), 0.0), c_scale)
    return 0.1 * min(1.0, model.m / (model.M * (3.0 + 2.0 * c_u)))


def _delta_slot(model, u, t, delta, sigma_eff):
    """The checked slot ``delta t`` of a regularization, ``delta`` defaulting
    to ``default_delta``: ConfigError unless ``0 < t < 1`` and a given
    ``delta`` is finite and positive."""
    if not 0 < t < 1:
        raise ConfigError("regularization horizon must lie in (0, 1)")
    if delta is None:
        delta = default_delta(model, u, t, sigma_eff=sigma_eff)
    elif not 0 < delta < np.inf:
        raise ConfigError(f"need a finite delta > 0, got delta = {delta!r}")
    return delta * t


def regularize_R(model: HamiltonianModel, u: GridFunction, t0: float, t: float,
                 delta: Optional[float] = None, sigma_eff=None) -> GridFunction:
    """Sup-inf-sup convolution smoother ``R^t`` around the time slot ``t0``.

    Composition (right to left): backward over ``[t0 - t, t0]``, forward
    over ``[t0 - t, t0 + delta t]``, backward over ``[t0, t0 + delta t]``.
    """
    dt = _delta_slot(model, u, t, delta, sigma_eff)
    v = apply_T_dual(model, u, t0 - t, t0, sigma_eff=sigma_eff)
    v = apply_T(model, v, t0 - t, t0 + dt, sigma_eff=sigma_eff)
    return apply_T_dual(model, v, t0, t0 + dt, sigma_eff=sigma_eff)


def regularize_R_dual(model: HamiltonianModel, u: GridFunction, t0: float, t: float,
                      delta: Optional[float] = None, sigma_eff=None) -> GridFunction:
    """Inf-sup-inf counterpart of ``regularize_R``."""
    dt = _delta_slot(model, u, t, delta, sigma_eff)
    v = apply_T(model, u, t0, t0 + t, sigma_eff=sigma_eff)
    v = apply_T_dual(model, v, t0 - dt, t0 + t, sigma_eff=sigma_eff)
    return apply_T(model, v, t0 - dt, t0, sigma_eff=sigma_eff)
