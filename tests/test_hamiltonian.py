import json

import numpy as np
import pytest

from hjkam.errors import ConfigError, NumericalDomain
from hjkam.flow import integrate_batch
from hjkam.hamiltonian import (HypothesisReport, check_hypotheses, custom_model,
                               eval_and_grads, forced_model, free_model, legendre,
                               legendre_batch, mechanical_model, model_from_dict,
                               pendulum_model, quadratic_model)


def test_free_eval():
    H, Hq, Hp = eval_and_grads(free_model(), 0.0, [0.0], [5.0])
    assert H == 12.5
    assert np.allclose(Hp, [5.0])
    assert np.allclose(Hq, 0.0)


def test_pendulum_eval_points(pendulum):
    H, Hq, Hp = eval_and_grads(pendulum, 0.0, [0.0], [0.0])
    assert H == 1.0 and Hq[0] == 0.0 and Hp[0] == 0.0
    H, Hq, Hp = eval_and_grads(pendulum, 0.0, [0.25], [1.0])
    assert abs(H - 0.5) < 1e-15
    assert abs(Hq[0] + 2 * np.pi) < 1e-12


def test_nonfinite_raises():
    bad = custom_model(lambda t, q, p: np.full(np.asarray(p).shape[:-1], np.nan),
                       m=1, M=1)
    with pytest.raises(NumericalDomain) as info:
        eval_and_grads(bad, 0.0, [0.0], [1.0])
    assert info.value.point is not None


def test_check_hypotheses_free():
    rep = check_hypotheses(free_model(), ((0, 0), (-1, 1), (-3, 3)), 100, seed=3)
    assert rep.all_pass()
    assert abs(rep.m_emp - 1.0) < 1e-9
    assert abs(rep.M_emp - 1.0) < 1e-9


def test_check_hypotheses_pendulum_empirical(pendulum):
    rep = check_hypotheses(pendulum, ((0, 0), (0, 1), (-3, 3)), 400, seed=1)
    assert rep.all_pass()
    assert abs(rep.M_emp - 4 * np.pi ** 2) < 1e-3
    # independent oracle: finite-difference Hessian of H over a (q, p) grid
    h = 1e-5
    qs = np.linspace(0, 1, 41)
    d2 = (pendulum.value(0, (qs + h)[:, None], np.zeros((41, 1)))
          - 2 * pendulum.value(0, qs[:, None], np.zeros((41, 1)))
          + pendulum.value(0, (qs - h)[:, None], np.zeros((41, 1)))) / h ** 2
    assert abs(np.max(np.abs(d2)) - rep.M_emp) < 1e-2


def test_check_hypotheses_pendulum_understated_M():
    model = mechanical_model([0.0, 1.0], m=1.0, M=1.0)
    rep = check_hypotheses(model, ((0, 0), (0, 1), (-3, 3)), 400, seed=1)
    assert not rep.passes["H1"]
    # worst point near the curvature maximum q = 0 (mod 1)
    q_worst = rep.worst_point[1][0] % 1.0
    assert min(q_worst, 1 - q_worst) < 0.05


def test_report_deterministic(pendulum):
    r1 = check_hypotheses(pendulum, n_samples=200, seed=7)
    r2 = check_hypotheses(pendulum, n_samples=200, seed=7)
    assert r1.m_emp == r2.m_emp and r1.M_emp == r2.M_emp
    assert r1.worst_point[0] == r2.worst_point[0]


def test_legendre_closed_forms(free, quad2, pendulum):
    L, p = legendre(free, 0.0, [0.0], [2.0])
    assert abs(L - 2.0) < 1e-12 and abs(p[0] - 2.0) < 1e-12
    L, p = legendre(quad2, 0.0, [0.0], [2.0])
    assert abs(L - 1.0) < 1e-12
    L, p = legendre(pendulum, 0.0, [0.0], [0.0])
    assert abs(L + 1.0) < 1e-12 and abs(p[0]) < 1e-12


def test_legendre_equality_and_inequality(pendulum):
    rng = np.random.default_rng(0)
    q = rng.uniform(0, 1, (50, 1))
    v = rng.uniform(-3, 3, (50, 1))
    L, p_star = legendre_batch(pendulum, 0.0, q, v)
    # equality case at the maximizer
    gap = pendulum.value(0.0, q, p_star) + L - np.sum(p_star * v, axis=-1)
    assert np.max(np.abs(gap)) < 1e-9
    # Legendre inequality for other momenta
    p_other = rng.uniform(-3, 3, (50, 1))
    lhs = pendulum.value(0.0, q, p_other) + L
    assert np.all(lhs >= np.sum(p_other * v, axis=-1) - 1e-9)


def test_legendre_biconjugation(pendulum):
    # sup_v (p v - L(q, v)) recovers H by a scan-plus-refine oracle
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = rng.uniform(0, 1, 1)
        p = rng.uniform(-2, 2, 1)
        vs = np.linspace(p[0] - 3, p[0] + 3, 2001)[:, None]
        L, _ = legendre_batch(pendulum, 0.0, np.broadcast_to(q, (2001, 1)), vs)
        sup = np.max(vs[:, 0] * p[0] - L)
        H = float(pendulum.value(0.0, q, p))
        assert abs(sup - H) < 1e-6


def test_legendre_one_jet_per_trial():
    # H = p^2/2 with H_pp reported as `curvature`.  Each Newton trial takes
    # the residual and H_pp from one jet call (grad and hessian once), plus
    # one call at the start.  The exact curvature lands in one trial; half
    # of it overshoots to p = 2 v, is rejected, and lands at lam = 1/2.
    for curvature, trials in ((1.0, 1), (0.5, 2)):
        calls = {"value": 0, "grad": 0, "hessian": 0}

        def value(t, q, p):
            calls["value"] += 1
            return 0.5 * np.sum(p * p, -1)

        def grad(t, q, p):
            calls["grad"] += 1
            return np.zeros_like(q), p

        def hessian(t, q, p):
            calls["hessian"] += 1
            z = np.zeros(q.shape[:-1])
            return z, z, np.full(z.shape, curvature)

        model = custom_model(value, m=1, M=1, grad=grad, hessian=hessian)
        v = np.array([[0.5], [1.5], [-2.0]])
        L, p = legendre_batch(model, 0.0, np.zeros((3, 1)), v)
        assert np.array_equal(p, v) and np.array_equal(L, 0.5 * v[:, 0] ** 2)
        assert calls == {"value": 1, "grad": 1 + trials, "hessian": 1 + trials}


def test_periodicity_exact_and_sampled(pendulum):
    # dyadic points shift exactly; generic points within 1e-12
    q = np.array([[0.25], [0.5], [0.375]])
    p = np.array([[0.3], [-1.0], [2.0]])
    assert np.array_equal(pendulum.value(0.0, q + 1.0, p), pendulum.value(0.0, q, p))
    rng = np.random.default_rng(5)
    qr = rng.uniform(0, 1, (200, 1))
    pr = rng.uniform(-3, 3, (200, 1))
    assert np.max(np.abs(pendulum.value(0.0, qr + 1.0, pr)
                         - pendulum.value(0.0, qr, pr))) < 1e-12


def _forced():
    return forced_model([0.1, 0.5, 0.3, 0.2, -0.15], epsilon=0.3)


def _multi_mode():
    return mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15])


def _fd_hessian_pendulum():
    # an analytic grad and no hessian: the blocks come from the
    # finite-difference fallback
    return custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(2 * np.pi * q[..., 0]),
                        m=1.0, M=4 * np.pi ** 2, periodic=True,
                        grad=lambda t, q, p: (-2 * np.pi * np.sin(2 * np.pi * q), p))


@pytest.mark.parametrize("maker", [lambda: free_model(), lambda: quadratic_model(2.0),
                                   pendulum_model, _forced, _multi_mode, _fd_hessian_pendulum])
def test_gradient_consistency(maker):
    # every jet output against central differences of value (gradients) and
    # of the jet's gradients (second derivatives), at t != 0 so that the
    # forced model's time factor is not 1
    model = maker()
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, (1000, 1))
    p = rng.uniform(-3, 3, (1000, 1))
    t = 0.37
    Hq, Hp, L, (Hqq, Hqp, Hpp) = model.jet(t, q, p, action=True, hessian=True)
    plain = model.jet(t, q, p)
    assert np.array_equal(plain[0], Hq) and np.array_equal(plain[1], Hp)
    assert plain[2:] == (None, None)
    assert np.max(np.abs(L - (np.sum(p * Hp, -1) - model.value(t, q, p)))) < 1e-12
    h = 1e-5
    fdq = (model.value(t, q + h, p) - model.value(t, q - h, p)) / (2 * h)
    fdp = (model.value(t, q, p + h) - model.value(t, q, p - h)) / (2 * h)
    assert np.max(np.abs(fdq - Hq[:, 0])) < 1e-7
    assert np.max(np.abs(fdp - Hp[:, 0])) < 1e-7
    dq = [(a - b)[:, 0] / (2 * h) for a, b in zip(model.jet(t, q + h, p)[:2],
                                                  model.jet(t, q - h, p)[:2])]
    dp = [(a - b)[:, 0] / (2 * h) for a, b in zip(model.jet(t, q, p + h)[:2],
                                                  model.jet(t, q, p - h)[:2])]
    for block in (Hqq, Hqp, Hpp):
        assert np.broadcast_shapes(np.shape(block), (1000,)) == (1000,)
    if model.family != "custom":
        # the constant blocks are numbers: H_qp and H_pp, and H_qq without a potential
        assert np.ndim(Hqp) == np.ndim(Hpp) == 0
        assert np.ndim(Hqq) == (0 if model.q_homogeneous else 1)
    assert np.max(np.abs(dq[0] - Hqq)) < 1e-6
    assert np.max(np.abs(dq[1] - Hqp)) < 1e-6
    assert np.max(np.abs(dp[0] - Hqp)) < 1e-6
    assert np.max(np.abs(dp[1] - Hpp)) < 1e-6


def _check_hypotheses_loop(model, sample_box=None, n_samples=400, seed=0, tol_hyp=1e-6):
    """Reference: the hypothesis sample evaluated one point at a time."""
    if sample_box is None:
        sample_box = ((0.0, 1.0), (-1.0, 1.0), (-3.0, 3.0))
    (t0, t1), (q0, q1), (p0, p1) = sample_box
    rng = np.random.default_rng(seed)
    ts = rng.uniform(t0, t1, n_samples)
    qs = rng.uniform(q0, q1, (n_samples, 1))
    ps = rng.uniform(p0, p1, (n_samples, 1))
    lat_q = np.linspace(q0, q1, 17)[:, None]
    lat_t = np.full(len(lat_q), t0)
    lat_p = np.zeros_like(lat_q)
    ts = np.concatenate([ts, lat_t, lat_t])
    qs = np.concatenate([qs, lat_q, lat_q])
    ps = np.concatenate([ps, lat_p, np.full_like(lat_p, p1)])
    H = np.empty(len(ts))
    m_vals = np.empty(len(ts))
    M_vals = np.empty(len(ts))
    for i in range(len(ts)):
        H[i] = model.value(ts[i], qs[i], ps[i])
        Hqq, Hqp, Hpp = model.jet(ts[i], qs[i], ps[i], hessian=True)[3]
        m_vals[i] = Hpp
        M_vals[i] = np.linalg.norm(np.array([[Hqq, Hqp], [Hqp, Hpp]], float), 2)
    m_emp = float(m_vals.min())
    M_emp = float(M_vals.max())
    i_worst = int(M_vals.argmax())
    p_sq = np.sum(ps * ps, axis=1)
    lower = model.m / 2 * p_sq - model.M
    upper = model.M / 2 * p_sq + model.M
    h3 = float(max(np.max(lower - H), np.max(H - upper), 0.0))
    defect = 0.0
    if model.periodic:
        defect = float(np.max(np.abs(model.value(ts, qs + 1.0, ps) - H)))
    passes = {"H1": M_emp <= model.M + tol_hyp, "H2": m_emp >= model.m - tol_hyp,
              "H3": h3 <= tol_hyp, "H5": (defect <= 1e-12) if model.periodic else True}
    return HypothesisReport(passes=passes, m_emp=m_emp, M_emp=M_emp,
                            worst_point=(float(ts[i_worst]), qs[i_worst].copy(), ps[i_worst].copy()),
                            n_samples=len(ts), seed=seed, declared_m=model.m, declared_M=model.M,
                            h3_violation=h3, periodic_defect=defect)


@pytest.mark.parametrize("maker", [lambda: free_model(), lambda: quadratic_model(2.0),
                                   pendulum_model, _forced, _multi_mode, _fd_hessian_pendulum])
@pytest.mark.parametrize("args", [(), (None, 64, 5), (((0.0, 0.5), (0.0, 1.0), (-2.0, 2.0)), 100, 3)])
def test_check_hypotheses_matches_point_loop(maker, args):
    # the one-call sample reports exactly what point-by-point evaluation does
    model = maker()
    got = json.dumps(check_hypotheses(model, *args).to_dict())
    assert got == json.dumps(_check_hypotheses_loop(model, *args).to_dict())


def _oscillator(constant_blocks):
    # H = p^2/2 + w^2 q^2/2, whose blocks (w^2, 0, 1) are constants, returned
    # as numbers or as filled arrays
    w2 = 2.25

    def hessian(t, q, p):
        if constant_blocks:
            return w2, 0.0, 1.0
        shape = np.shape(q)[:-1]
        return np.full(shape, w2), np.zeros(shape), np.ones(shape)

    return custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + 0.5 * w2 * np.sum(q * q, -1),
                        m=1.0, M=w2, grad=lambda t, q, p: (w2 * q, p), hessian=hessian)


def test_custom_constant_blocks():
    model, filled = _oscillator(True), _oscillator(False)
    rng = np.random.default_rng(2)
    q = rng.uniform(-1, 1, (20, 1))
    p = rng.uniform(-2, 2, (20, 1))
    t, w = 0.8, 1.5
    out = integrate_batch(model, 0.0, t, q, p, 400, want_monodromy=True, want_action=True)
    ref = integrate_batch(filled, 0.0, t, q, p, 400, want_monodromy=True, want_action=True)
    for a, b in zip(out, ref):
        assert np.array_equal(a, b)
    c, s = np.cos(w * t), np.sin(w * t)
    assert np.max(np.abs(out[2] - [[c, s / w], [-w * s, c]])) < 1e-9
    assert np.max(np.abs(out[0] - (c * q + s / w * p))) < 1e-9
    L, p_star = legendre_batch(model, 0.0, q, p)
    assert np.array_equal(p_star, p)
    assert np.max(np.abs(L - (0.5 * p[:, 0] ** 2 - 0.5 * w * w * q[:, 0] ** 2))) < 1e-12
    rep = check_hypotheses(model, ((0, 0), (-1, 1), (-3, 3)), 100)
    assert rep.all_pass() and rep.m_emp == 1.0 and rep.M_emp == w * w
    assert rep.to_dict() == check_hypotheses(filled, ((0, 0), (-1, 1), (-3, 3)), 100).to_dict()


def test_model_from_dict_and_rejection():
    model = model_from_dict({"family": "mechanical", "d": 1, "V_coeffs": [0.0, 1.0],
                             "m": 1.0, "M": 40.0, "periodic": True})
    assert model.M == 40.0 and model.periodic
    with pytest.raises(ConfigError):
        model_from_dict({"family": "mechanical", "wavelength": 3})
    with pytest.raises(ConfigError):
        model_from_dict({"d": 1})
    with pytest.raises(ConfigError):
        model_from_dict({"family": "nope"})
    # the line and circle only: d is 1 or absent
    with pytest.raises(ConfigError, match="d = 1"):
        model_from_dict({"family": "free", "d": 2})
    assert model_from_dict({"family": "free", "d": 1}).family == "free"
    assert model_from_dict({"family": "free"}).family == "free"


def test_m_le_M_for_builtins(pendulum, free, quad2, forced):
    for model in (pendulum, free, quad2, forced):
        assert model.m <= model.M
