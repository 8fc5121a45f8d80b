"""Lax-Oleinik operators and sup/inf-convolution regularization on the torus.

The discrete operators take the infimum (supremum) over grid nodes only,
which keeps monotonicity and translation invariance exact at first-order
accuracy in the mesh.  Every pair action on the grid comes from one
primitive, ``_pair_actions``: the generating function inside the twist
window, a relaxed broken geodesic beyond it.  The action kernel
``A_tau^t(theta, theta + dd/n)`` tabulates it once per (model, horizon,
grid, radius) and is cached; a wider request solves only the new
displacement columns and splices them around the cached block.  For
q-homogeneous families a single displacement row suffices.  ``T`` and its
dual share one min-plus gather.  Its window is the smaller of two radii:
``search_radius`` from the a-priori action bounds, and ``velocity_radius``,
the distance a minimizer can travel when its start momentum is bounded by
the operand's Lipschitz constant.  A boundary check doubles the window
whenever the discrete argmin reaches its edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .action import minimal_action_batch
from .errors import ConfigError, SearchRadiusExceeded
from .flow import resolve_sigma
from .generating import KERNEL_STEP, generating_batch
from .hamiltonian import HamiltonianModel

_KERNEL_CACHE: dict = {}
_CACHE_LIMIT = 32


@dataclass
class GridFunction:
    """Scalar samples on the uniform periodic grid of ``[0, 1)^d``."""

    d: int
    n_per_dim: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.n_per_dim,) * self.d:
            raise ConfigError(f"values shape {self.values.shape} does not match "
                              f"(n_per_dim,)*d = {(self.n_per_dim,) * self.d}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("grid function has non-finite values")

    @classmethod
    def from_callable(cls, fn, n: int, d: int = 1):
        if d != 1:
            grids = np.meshgrid(*([np.arange(n) / n] * d), indexing="ij")
            return cls(d=d, n_per_dim=n, values=np.asarray(fn(*grids), float))
        return cls(d=1, n_per_dim=n, values=np.asarray(fn(np.arange(n) / n), float))

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_per_dim) / self.n_per_dim

    @property
    def lip_estimate(self) -> float:
        lip = 0.0
        for ax in range(self.d):
            lip = max(lip, float(np.max(np.abs(np.roll(self.values, -1, axis=ax)
                                               - self.values)) * self.n_per_dim))
        return lip

    def osc(self) -> float:
        return float(self.values.max() - self.values.min())

    def shifted(self, c: float) -> "GridFunction":
        return GridFunction(self.d, self.n_per_dim, self.values + c)

    def save(self, path):
        header = json.dumps({"d": self.d, "n_per_dim": self.n_per_dim})
        body = "\n".join(f"{v:.17g}" for v in self.values.ravel())
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n" + body + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = json.loads(fh.readline())
            unknown = set(header) - {"d", "n_per_dim"}
            if unknown:
                raise ConfigError(f"unknown grid header keys: {sorted(unknown)}")
            vals = np.array([float(line) for line in fh if line.strip()])
        d, n = int(header["d"]), int(header["n_per_dim"])
        return cls(d=d, n_per_dim=n, values=vals.reshape((n,) * d))


def semiconcavity_constant(u: GridFunction) -> float:
    """Largest centered second difference times ``n^2`` (positive part)."""
    out = -np.inf
    n2 = u.n_per_dim ** 2
    for ax in range(u.d):
        sd = (np.roll(u.values, -1, axis=ax) - 2 * u.values
              + np.roll(u.values, 1, axis=ax)) * n2
        out = max(out, float(sd.max()))
    return out


def second_difference_bound(u: GridFunction) -> float:
    """Largest absolute centered second difference times ``n^2``."""
    return max(semiconcavity_constant(u),
               semiconcavity_constant(GridFunction(u.d, u.n_per_dim, -u.values)))


def search_radius(model: HamiltonianModel, dt: float, osc: float, n: int) -> float:
    """Kernel search radius from the a-priori action bounds.

    It holds for any operand, but it bounds the potential by the Hessian
    constant ``M``, so it is far wider than the minimizer's travel; the
    operators take the smaller of it and ``velocity_radius``.
    """
    return float(np.sqrt(2 * model.m * dt * (osc + 2 * model.M * dt + 1.0)) + 1.0 / n)


def _grad_sups(model, times, band):
    """``sup |H_q|`` and ``sup |H_p|`` sampled on ``[0, 1) x [-band, band]``."""
    Q, P = np.meshgrid(np.arange(64) / 64, np.linspace(-band, band, 17), indexing="ij")
    Hq, Hp = zip(*(model.grad(s, Q[..., None], P[..., None]) for s in times))
    return float(np.max(np.abs(Hq))), float(np.max(np.abs(Hp)))


def velocity_radius(model: HamiltonianModel, tau: float, t: float, lip: float,
                    n: int) -> float:
    """How far the grid argmin of ``T_tau^t`` can sit from its target node.

    At the argmin the one-sided differences of the action in the free
    endpoint are bounded by ``lip``, the operand's Lipschitz constant, so
    the minimizer starts with momentum in ``|p| <= lip`` and keeps it in
    ``|p| <= lip + dt sup|H_q|``; it travels at most ``dt sup|H_p|`` over
    that band.  Two cells are added: the argmin sits within one cell of
    that start, and one cell is margin.  The sups are sampled from
    ``model.grad`` (at the slot's times when ``H`` depends on time); the
    operators' boundary check backs the sampling.
    """
    dt = t - tau
    times = [tau] if model.autonomous else np.linspace(tau, t, 5)
    gq, _ = _grad_sups(model, times, lip)
    _, gp = _grad_sups(model, times, lip + dt * gq)
    return dt * gp + 2.0 / n


def clear_kernel_cache():
    _KERNEL_CACHE.clear()


def _kernel_key(model, tau, t, n, sigma):
    slot = "auto" if model.autonomous else round(tau, 12)
    return (model.cache_key(), slot, round(t - tau, 12), n, round(sigma, 12))


def _pair_actions(model, tau, t, Q0, Q1, sigma):
    """``A_tau^t(Q0, Q1)`` for a batch of pairs (rows of ``Q0``, ``Q1``).

    Inside the twist window ``sigma`` this is the generating function;
    beyond it, the broken geodesic relaxed from the straight-line chain.
    """
    if t - tau <= sigma * (1 + 1e-12):
        return generating_batch(model, tau, t, Q0, Q1, sigma_eff=sigma,
                                check_sigma=False, step_target=KERNEL_STEP)[0]
    return minimal_action_batch(model, tau, t, Q0, Q1, sigma_eff=sigma,
                                step_target=KERNEL_STEP)[0]


def action_kernel(model: HamiltonianModel, tau: float, t: float, n: int,
                  D: int, sigma_eff=None) -> np.ndarray:
    """Tabulate ``A_tau^t(x_i, x_i + dd/n)`` for ``dd in [-D, D]``.

    Returns shape ``(rows, 2 D + 1)`` with ``rows = 1`` for q-homogeneous
    models.  Cached; when a wider radius is asked, only the displacements
    ``Dc < |dd| <= D`` beyond the cached ``Dc`` are solved, in one batch,
    and the cached columns are kept as they are.
    """
    if model.d != 1:
        raise ConfigError("grid operators are implemented for d = 1")
    sigma = resolve_sigma(model, sigma_eff)
    key = _kernel_key(model, tau, t, n, sigma)
    rows = 1 if model.q_homogeneous else n
    cached = _KERNEL_CACHE.get(key, np.empty((rows, 0)))
    Dc = (cached.shape[1] - 1) // 2
    if Dc >= D:
        return cached[:, Dc - D:Dc + D + 1]
    x = np.zeros(1) if rows == 1 else np.arange(n) / n
    dds = np.setdiff1d(np.arange(-D, D + 1), np.arange(-Dc, Dc + 1))
    Q0 = np.repeat(x, len(dds))[:, None]
    Q1 = Q0 + np.tile(dds / n, rows)[:, None]
    new = _pair_actions(model, tau, t, Q0, Q1, sigma).reshape(rows, len(dds))
    half = len(dds) // 2
    K = np.concatenate([new[:, :half], cached, new[:, half:]], axis=1)
    # callers get views of the cached array: keep them from editing it
    K.flags.writeable = False
    if key not in _KERNEL_CACHE and len(_KERNEL_CACHE) >= _CACHE_LIMIT:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[key] = K
    return K


def _quantize(D: int) -> int:
    # quantized so the cached kernel survives small radius drifts
    return int(np.ceil(D / 16.0) * 16)


def _min_plus(model, u, tau, t, sigma_eff, dual):
    """Image of ``u`` and, per node, the node theta that attains it."""
    if not model.periodic:
        raise ConfigError("Lax-Oleinik operators need a periodic model")
    if not t > tau:
        raise ConfigError("need t > tau")
    n = u.n_per_dim
    # one gather for both: forward takes inf_theta u(theta) + A(theta, q) over
    # theta = q - dd/n with the kernel row at theta; dual takes
    # sup_theta u(theta) - A(q, theta) over theta = q + dd/n, row at q
    shift = 1 if dual else -1
    jj = np.arange(n)
    R = min(search_radius(model, t - tau, u.osc(), n),
            velocity_radius(model, tau, t, u.lip_estimate, n))
    D = _quantize(int(np.ceil(R * n)))
    for attempt in range(2):
        K = action_kernel(model, tau, t, n, D, sigma_eff=sigma_eff)
        dds = np.arange(-D, D + 1)
        I = (jj[None, :] + shift * dds[:, None]) % n
        rowidx = 0 if len(K) == 1 else (jj[None, :] if dual else I)
        cand = (np.subtract if dual else np.add)(
            u.values[I], K[rowidx, np.arange(2 * D + 1)[:, None]])
        best = (np.argmax if dual else np.argmin)(cand, axis=0)
        if not np.any(np.abs(dds[best]) >= D):
            return GridFunction(1, n, cand[best, jj]), I[best, jj]
        D = _quantize(2 * D)
    raise SearchRadiusExceeded("discrete infimum still attained on the doubled "
                               f"search boundary (D = {D})")


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


def regularize_R(model: HamiltonianModel, u: GridFunction, t0: float, t: float,
                 delta: Optional[float] = None, sigma_eff=None) -> GridFunction:
    """Sup-inf-sup convolution smoother ``R^t`` around the time slot ``t0``.

    Composition (right to left): backward over ``[t0 - t, t0]``, forward
    over ``[t0 - t, t0 + delta t]``, backward over ``[t0, t0 + delta t]``.
    """
    if not 0 < t < 1:
        raise ConfigError("regularization horizon must lie in (0, 1)")
    if delta is None:
        delta = default_delta(model, u, t, sigma_eff=sigma_eff)
    dt = delta * t
    v = apply_T_dual(model, u, t0 - t, t0, sigma_eff=sigma_eff)
    v = apply_T(model, v, t0 - t, t0 + dt, sigma_eff=sigma_eff)
    return apply_T_dual(model, v, t0, t0 + dt, sigma_eff=sigma_eff)


def regularize_R_dual(model: HamiltonianModel, u: GridFunction, t0: float, t: float,
                      delta: Optional[float] = None, sigma_eff=None) -> GridFunction:
    """Inf-sup-inf counterpart of ``regularize_R``."""
    if not 0 < t < 1:
        raise ConfigError("regularization horizon must lie in (0, 1)")
    if delta is None:
        delta = default_delta(model, u, t, sigma_eff=sigma_eff)
    dt = delta * t
    v = apply_T(model, u, t0, t0 + t, sigma_eff=sigma_eff)
    v = apply_T_dual(model, v, t0 - dt, t0 + t, sigma_eff=sigma_eff)
    return apply_T(model, v, t0 - dt, t0, sigma_eff=sigma_eff)
