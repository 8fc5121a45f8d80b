"""Runnable acceptance suite: closed forms, property checks, and oracles.

Each criterion is a function returning a CriterionResult; ``run_all``
executes them in order and is what both ``hjkam accept`` and the pytest
acceptance module drive.  All tolerances are fixed here, next to the
checks they govern.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .action import action_bounds, minimal_action, tonelli_oracle
from .errors import ExistenceHorizonExceeded
from .flow import certify_sigma
from .generating import classical_cauchy, generating_batch, propagate_front
from .hamiltonian import free_model, mechanical_model, pendulum_model, quadratic_model
from .laxoleinik import (GridFunction, apply_T, apply_T_dual, regularize_R,
                         second_difference_bound)
from .weakkam import (aubry_set, calibrated_curve, critical_value,
                      fixed_point_residual, invariant_set, is_subsolution,
                      mane_pair, mane_potential, weak_kam_solve)

SIGMA_PENDULUM = 0.2   # certified by a twist scan in _pendulum_window
SIGMA_FREE = 0.25      # the guaranteed bound m / (4 M^2) for m = M = 1


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0   # set by ``run``

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"

    def to_dict(self) -> dict:
        # no wall-clock time: identical runs write identical files
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "detail": self.detail}


@functools.cache
def _pendulum_window() -> float:
    """Certify the working twist window at q = 0, 1/4 and 1/2, once per process."""
    return certify_sigma(pendulum_model(), SIGMA_PENDULUM, q=[[0.0], [0.25], [0.5]]).t


def criterion_01_hopf_lax() -> CriterionResult:
    """Quadratic kinetic families reproduce the Hopf-Lax closed form."""
    tol = 1e-6
    worst = 0.0
    rng = np.random.default_rng(101)
    for a in (0.5, 1.0, 2.0):
        model = quadratic_model(a)
        sigma = 1.0 / (4.0 * a)
        ts = rng.uniform(0.05 * sigma, sigma, 50)
        q0 = rng.uniform(-2, 2, (50, 1))
        q1 = rng.uniform(-2, 2, (50, 1))
        for i in range(50):
            S = generating_batch(model, 0.0, float(ts[i]), q0[i], q1[i],
                                 sigma_eff=sigma)[0]
            exact = float((q1[i, 0] - q0[i, 0]) ** 2 / (2 * ts[i] * a))
            worst = max(worst, abs(float(S) - exact))
    return CriterionResult(1, "Hopf-Lax exactness", worst <= tol,
                           f"max |S - closed form| = {worst:.2e} (tol {tol:.0e})")


def criterion_02_blowup() -> CriterionResult:
    """Existence horizon refusal and the fold of the quadratic front."""
    model = free_model()
    qs = np.linspace(-1, 1, 401)
    cauchy_samples = (qs, -qs ** 2, -2 * qs)       # (q, u0, du0)
    front_samples = (qs, -2 * qs, -qs ** 2)        # (q, du0, u0)
    ok_details = []
    passed = True
    try:
        classical_cauchy(model, cauchy_samples, 0.08, np.linspace(-0.5, 0.5, 11))
        ok_details.append("t=0.08 solved")
    except Exception as exc:
        passed = False
        ok_details.append(f"t=0.08 unexpectedly failed ({type(exc).__name__})")
    try:
        classical_cauchy(model, cauchy_samples, 0.09, np.linspace(-0.5, 0.5, 11))
        passed = False
        ok_details.append("t=0.09 NOT refused")
    except ExistenceHorizonExceeded:
        ok_details.append("t=0.09 refused")
    fold_at = None
    for t in np.arange(0.40, 0.601, 0.005):
        front = propagate_front(model, front_samples, float(t))
        if front.fold_flag:
            fold_at = float(t)
            break
    if fold_at is None or abs(fold_at - 0.5) > 0.0100001:
        passed = False
    ok_details.append(f"first fold at t={fold_at}")
    return CriterionResult(2, "Blow-up exercise", passed, "; ".join(ok_details))


def _derivative_worst(model, sigma, t_lo, t_hi, tau_fn, n_cases, seed):
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    taus = tau_fn(rng, n_cases)
    ts = taus + rng.uniform(t_lo, t_hi, n_cases)
    q0 = rng.uniform(-1, 1, (n_cases, 1))
    q1 = q0 + rng.uniform(-0.5, 0.5, (n_cases, 1))
    # rows: the case, then q1 + h, q1 - h, q0 + h, q0 - h
    shift = h * np.array([[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0]])
    for i in range(n_cases):
        S, r0, r1, _, _ = generating_batch(model, float(taus[i]), float(ts[i]),
                                           q0[i] + shift[:, :1], q1[i] + shift[:, 1:],
                                           sigma_eff=sigma)
        worst = max(worst, abs(float(S[1] - S[2]) / (2 * h) - float(r1[0, 0])))
        worst = max(worst, abs(float(S[3] - S[4]) / (2 * h) + float(r0[0, 0])))
    return worst


def criterion_03_derivative_identities() -> CriterionResult:
    """fd(dS/dq1) = rho1 and fd(dS/dq0) = -rho0 across built-in models."""
    tol = 1e-5
    from .hamiltonian import forced_model
    zero_tau = lambda rng, n: np.zeros(n)
    rand_tau = lambda rng, n: rng.uniform(0.0, 1.0, n)
    cases = [
        (free_model(), SIGMA_FREE, 0.02, 0.25, zero_tau),
        (quadratic_model(2.0), 0.125, 0.02, 0.125, zero_tau),
        (pendulum_model(), _pendulum_window(), 0.02, 0.2, zero_tau),
        (forced_model([0.0, 0.3], epsilon=0.2), 0.2, 0.02, 0.2, rand_tau),
    ]
    worst = 0.0
    for model, sigma, t_lo, t_hi, tau_fn in cases:
        worst = max(worst, _derivative_worst(model, sigma, t_lo, t_hi, tau_fn,
                                             200, seed=37))
    return CriterionResult(3, "Generating-derivative identities", worst <= tol,
                           f"max defect = {worst:.2e} over 200 cases/model "
                           f"(tol {tol:.0e})")


def _pendulum_suite(n_cases=20, seed=11):
    rng = np.random.default_rng(seed)
    sigma = _pendulum_window()
    ts = np.geomspace(sigma, 20 * sigma, n_cases)
    q0 = rng.uniform(0, 1, n_cases)
    q1 = rng.uniform(0, 1, n_cases)
    return sigma, list(zip(ts, q0, q1))


_SUITE_CACHE: dict = {}


def _suite_minimal_actions():
    if "suite" not in _SUITE_CACHE:
        model = pendulum_model()
        sigma, cases = _pendulum_suite()
        out = []
        for (t, a, b) in cases:
            A, path = minimal_action(model, 0.0, float(t), [a], [b],
                                     sigma_eff=sigma, restarts=3, seed=5)
            out.append((float(t), float(a), float(b), A, path))
        _SUITE_CACHE["suite"] = out
    return _SUITE_CACHE["suite"]


def criterion_04_action_oracle() -> CriterionResult:
    """Broken-geodesic values match the independent Tonelli minimizer."""
    tol = 2e-3
    model = pendulum_model()
    worst = 0.0
    for (t, a, b, A, _) in _suite_minimal_actions():
        nseg = max(200, int(np.ceil(100 * t)))
        T = tonelli_oracle(model, 0.0, t, [a], [b], n_segments=nseg, restarts=3)
        worst = max(worst, abs(A - T))
    return CriterionResult(4, "A-oracle equivalence", worst <= tol,
                           f"max |A - tonelli| = {worst:.2e} over 20 pendulum "
                           f"cases (tol {tol:.0e})")


def criterion_05_action_bounds() -> CriterionResult:
    """A-priori bounds and refinement independence of the segment count."""
    model = pendulum_model()
    sigma = _pendulum_window()
    passed = True
    worst_n = 0.0
    for (t, a, b, A, path) in _suite_minimal_actions():
        lo, hi = action_bounds(model, 0.0, t, [a], [b])
        if not (lo - 1e-9 <= A <= hi + 1e-9):
            passed = False
        A2, _ = minimal_action(model, 0.0, t, [a], [b], sigma_eff=sigma,
                               n=2 * path.n, restarts=3, seed=5)
        rel = abs(A - A2) / (1.0 + abs(A))
        worst_n = max(worst_n, rel)
    tol_n = 1e-6
    return CriterionResult(5, "A bounds and n-independence",
                           passed and worst_n <= tol_n,
                           f"bounds hold = {passed}; max |A(n)-A(2n)|/(1+|A|) = "
                           f"{worst_n:.2e} (tol {tol_n:.0e})")


def criterion_06_operator_suite() -> CriterionResult:
    """Monotony/translation exactness and first-order operator defects."""
    model = pendulum_model()
    sigma = _pendulum_window()
    details = []
    passed = True

    n = 128
    u = GridFunction.from_callable(
        lambda q: 0.3 * np.cos(2 * np.pi * q) + 0.1 * np.sin(4 * np.pi * q), n)
    Tu = apply_T(model, u, 0.0, 0.2, sigma_eff=sigma)
    Tc = apply_T(model, u.shifted(3.7), 0.0, 0.2, sigma_eff=sigma)
    # exact discrete identity; the shifted operand's sums round at ~1 ulp
    trans_defect = float(np.max(np.abs(Tc.values - (Tu.values + 3.7))))
    if trans_defect > 8 * np.finfo(float).eps * (4.0 + np.abs(Tu.values).max()):
        passed = False
    details.append(f"translation defect {trans_defect:.1e}")
    bump = np.zeros(n)
    bump[n // 3] = 0.2
    Tv = apply_T(model, GridFunction(1, n, u.values + bump), 0.0, 0.2,
                 sigma_eff=sigma)
    mono_ok = bool(np.all(Tv.values >= Tu.values - 1e-15))
    passed &= mono_ok
    details.append("monotony exact" if mono_ok else "monotony FAILED")

    defects = {}
    for ng in (64, 128, 256):
        ug = GridFunction.from_callable(
            lambda q: 0.3 * np.cos(2 * np.pi * q) + 0.1 * np.sin(4 * np.pi * q), ng)
        comp = apply_T(model, apply_T(model, ug, 0.0, 0.1, sigma_eff=sigma),
                       0.0, 0.1, sigma_eff=sigma)
        direct = apply_T(model, ug, 0.0, 0.2, sigma_eff=sigma)
        defects[ng] = float(np.max(np.abs(comp.values - direct.values)))
    slope = np.polyfit(np.log([1 / 64, 1 / 128, 1 / 256]),
                       np.log([max(defects[k], 1e-17) for k in (64, 128, 256)]), 1)[0]
    markov_ok = slope >= 0.7 and all(defects[k] <= 2.0 / k for k in defects)
    passed &= markov_ok
    details.append(f"Markov defects {defects[64]:.1e}/{defects[128]:.1e}/"
                   f"{defects[256]:.1e}, decay slope {slope:.2f}")

    C_dx = 6.0 / n
    td = apply_T_dual(model, apply_T(model, u, 0.0, 0.2, sigma_eff=sigma),
                      0.0, 0.2, sigma_eff=sigma)
    dt_ = apply_T(model, apply_T_dual(model, u, 0.0, 0.2, sigma_eff=sigma),
                  0.0, 0.2, sigma_eff=sigma)
    pair_ok = (float(np.max(td.values - u.values)) <= C_dx
               and float(np.min(dt_.values - u.values)) >= -C_dx)
    passed &= pair_ok
    details.append(f"dual pair defects {np.max(td.values - u.values):.1e}/"
                   f"{-np.min(dt_.values - u.values):.1e} (tol {C_dx:.1e})")
    return CriterionResult(6, "Operator property suite", passed,
                           "; ".join(details))


def criterion_07_regularization() -> CriterionResult:
    """R^t output curvature is grid-independent while the hat's diverges."""
    model = free_model()
    reg_bound = 220.0
    raw_vals, reg_vals = {}, {}
    for n in (64, 128, 256):
        hat = GridFunction.from_callable(lambda q: np.abs(q - 0.5), n)
        raw_vals[n] = second_difference_bound(hat)
        reg = regularize_R(model, hat, 0.0, 0.8, sigma_eff=SIGMA_FREE)
        reg_vals[n] = second_difference_bound(reg)
    raw_diverges = all(raw_vals[n] >= 1.9 * n for n in raw_vals)
    reg_bounded = all(reg_vals[n] <= reg_bound for n in reg_vals)
    reg_saturates = reg_vals[256] <= 1.6 * max(reg_vals[64], 1.0)
    passed = raw_diverges and reg_bounded and reg_saturates
    return CriterionResult(7, "Regularization", passed,
                           f"raw 2nd diffs {[round(raw_vals[k]) for k in raw_vals]} "
                           f"vs regularized {[round(reg_vals[k], 1) for k in reg_vals]} "
                           f"(bound {reg_bound})")


def criterion_08_critical_value() -> CriterionResult:
    """alpha equals max V for mechanical models (constant-test oracle)."""
    tol = 1e-2
    sigma = _pendulum_window()
    r1 = critical_value(pendulum_model(), grid_n=256, t_step=0.2, t_max=8.0,
                        sigma_eff=sigma)
    model2 = mechanical_model([0.2, 0.3], m=1.0)
    sigma2 = certify_sigma(model2, 0.2, q=0.25).t
    r2 = critical_value(model2, grid_n=256, t_step=0.2, t_max=8.0,
                        sigma_eff=sigma2)
    e1 = abs(r1.alpha - 1.0)
    e2 = abs(r2.alpha - 0.5)
    passed = e1 <= tol and e2 <= tol
    return CriterionResult(8, "Critical value", passed,
                           f"|alpha-1| = {e1:.2e}, |alpha-0.5| = {e2:.2e} "
                           f"(tol {tol:.0e})")


def pendulum_weak_kam_oracle(nodes: np.ndarray) -> np.ndarray:
    """``(2/pi)(1 - |cos pi q|)``: the integral of ``u' = sqrt(2 (1 - V)) =
    2 |sin pi q|`` from both ends of the cell, glued at the kink q = 1/2."""
    u = (2 / np.pi) * (1.0 - np.abs(np.cos(np.pi * np.asarray(nodes, float))))
    return u - u.min()


def criterion_09_weak_kam() -> CriterionResult:
    """Fixed-point residuals at two horizons and the ODE oracle distance."""
    tol = 5e-3
    sigma = _pendulum_window()
    res = weak_kam_solve(pendulum_model(), grid_n=256, alpha=None, t_step=0.1,
                         sigma_eff=sigma)
    r1 = fixed_point_residual(pendulum_model(), res.u, res.alpha, 0.1,
                              sigma_eff=sigma)
    r2 = fixed_point_residual(pendulum_model(), res.u, res.alpha, 0.2,
                              sigma_eff=sigma)
    dist = float(np.max(np.abs(res.u.values - pendulum_weak_kam_oracle(res.u.nodes))))
    passed = r1 <= tol and r2 <= tol and dist <= tol
    return CriterionResult(9, "Weak KAM fixed point", passed,
                           f"residuals {r1:.2e}/{r2:.2e}, oracle distance "
                           f"{dist:.2e} (tol {tol:.0e})")


def criterion_10_mane() -> CriterionResult:
    """Free closed form, triangle inequality, and sub-solution maximality."""
    model = free_model()
    n = 128
    a = 0.5
    field = mane_potential(model, a, 0.0, grid_n=n, sigma_eff=SIGMA_FREE)
    q = field.phi.nodes
    closed = np.sqrt(2 * a) * np.minimum(q, 1 - q)
    err = float(np.max(np.abs(field.phi.values - closed)))
    free_ok = err <= 2e-3

    rng = np.random.default_rng(17)
    bases = rng.integers(0, n, 10) / n
    tri_worst = -np.inf
    for base in bases:
        th = rng.integers(0, n, 5) / n
        q1 = rng.integers(0, n, 2) / n
        for thth in th:
            for qq in q1:
                lhs = mane_pair(model, a, base, qq, grid_n=n, sigma_eff=SIGMA_FREE)
                rhs = (mane_pair(model, a, base, thth, grid_n=n, sigma_eff=SIGMA_FREE)
                       + mane_pair(model, a, thth, qq, grid_n=n, sigma_eff=SIGMA_FREE))
                tri_worst = max(tri_worst, lhs - rhs)
    tri_ok = tri_worst <= 1e-3

    slack = 3e-3
    max_ok = True
    subs = [np.zeros(n)]
    for c in (0.3, 0.6, 0.9, -0.8):
        subs.append(c * np.sin(2 * np.pi * q) / (2 * np.pi))
    worst_gap = -np.inf
    for vals in subs:
        u = GridFunction(1, n, vals - vals[0])
        ok, _ = is_subsolution(model, u, a, n_pairs=64, slack=1e-9,
                               sigma_eff=SIGMA_FREE)
        if not ok:
            max_ok = False
            continue
        worst_gap = max(worst_gap, float(np.max(u.values - field.phi.values)))
    max_ok = max_ok and worst_gap <= slack
    passed = free_ok and tri_ok and max_ok
    return CriterionResult(10, "Mane field", passed,
                           f"closed-form err {err:.2e}; triangle worst "
                           f"{tri_worst:.2e}; maximality gap {worst_gap:.2e}")


def criterion_11_calibration() -> CriterionResult:
    """Calibrated orbits ride the energy level; the potential splits along them."""
    model = pendulum_model()
    sigma = _pendulum_window()
    tol_energy = 1e-4
    tol_split = 5e-3
    worst_e = 0.0
    worst_split = 0.0
    for (q0, q1) in ((0.15, 0.45), (0.6, 0.9), (0.0, 0.3)):
        traj = calibrated_curve(model, 1.0, q0, q1, horizon_cap=3.0,
                                sigma_eff=sigma)
        worst_e = max(worst_e, float(np.max(np.abs(traj.energy - 1.0))))
        full = mane_pair(model, 1.0, q0, q1, grid_n=128, sigma_eff=sigma)
        for frac in (0.25, 0.5, 0.75):
            i = int(frac * (len(traj.times) - 1))
            qs = float(np.mod(traj.Q[i, 0], 1.0))
            part = (mane_pair(model, 1.0, q0, qs, grid_n=128, sigma_eff=sigma)
                    + mane_pair(model, 1.0, qs, q1, grid_n=128, sigma_eff=sigma))
            worst_split = max(worst_split, abs(part - full))
    passed = worst_e <= tol_energy and worst_split <= tol_split
    return CriterionResult(11, "Calibration and energy", passed,
                           f"max |H-a| = {worst_e:.2e} (tol {tol_energy:.0e}); "
                           f"splitting defect {worst_split:.2e} (tol {tol_split:.0e})")


def criterion_12_aubry_invariant() -> CriterionResult:
    """Aubry mask localization and its lift into the invariant set."""
    sigma = _pendulum_window()
    n = 128
    model = pendulum_model()
    res = aubry_set(model, grid_n=n, sigma_eff=sigma)
    marked = res.marked_nodes()
    dist_cells = np.minimum(marked, n - marked)
    pend_ok = len(marked) > 0 and 0 in marked and np.all(dist_cells <= 1)

    wk = weak_kam_solve(model, grid_n=n, alpha=res.alpha, t_step=0.1,
                        sigma_eff=sigma)
    inv = invariant_set(model, wk.u, t_step=0.2, n_steps=40)
    pts = inv.points
    conc_ok = len(pts) > 0 and bool(np.all(
        np.sqrt(np.minimum(pts[:, 0], 1 - pts[:, 0]) ** 2 + pts[:, 1] ** 2) <= 1.0 / n + 1e-9))
    du = (np.roll(wk.u.values, -1) - np.roll(wk.u.values, 1)) * n / 2
    lift_ok = True
    for i in marked:
        dq = pts[:, 0] - i / n
        dq -= np.round(dq)
        dist = np.sqrt(dq ** 2 + (pts[:, 1] - du[i]) ** 2).min()
        lift_ok &= bool(dist <= inv.tol_graph)

    free = free_model()
    fres = aubry_set(free, grid_n=64, sigma_eff=SIGMA_FREE)
    free_ok = bool(np.all(fres.mask))
    passed = pend_ok and conc_ok and lift_ok and free_ok
    return CriterionResult(12, "Aubry/invariant consistency", passed,
                           f"pendulum mask nodes {marked.tolist()}; survivors "
                           f"{len(pts)} within one cell of (0,0): {conc_ok}; "
                           f"mask lifts: {lift_ok}; free mask full: {free_ok}")


CRITERIA = [
    criterion_01_hopf_lax,
    criterion_02_blowup,
    criterion_03_derivative_identities,
    criterion_04_action_oracle,
    criterion_05_action_bounds,
    criterion_06_operator_suite,
    criterion_07_regularization,
    criterion_08_critical_value,
    criterion_09_weak_kam,
    criterion_10_mane,
    criterion_11_calibration,
    criterion_12_aubry_invariant,
]


def run(criterion) -> CriterionResult:
    """Run one criterion and record its wall-clock time."""
    t0 = time.time()
    result = criterion()
    result.seconds = time.time() - t0
    return result


def run_all(only=None):
    return [run(fn) for k, fn in enumerate(CRITERIA, start=1) if not only or k in only]


if __name__ == "__main__":
    import sys
    res = run_all()
    for r in res:
        print(r.line())
    sys.exit(0 if all(r.passed for r in res) else 2)
