import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_FREE, SIGMA_PEND
from hjkam.errors import ConfigError
from hjkam.laxoleinik import (GridFunction, apply_T, apply_T_dual, default_delta,
                              regularize_R, regularize_R_dual,
                              second_difference_bound, semiconcavity_constant)


def grid_cos(n, amp=0.3):
    return GridFunction.from_callable(lambda q: amp * np.cos(2 * np.pi * q), n)


def test_T_of_zero_free(free):
    u = GridFunction(1, 64, np.zeros(64))
    Tu = apply_T(free, u, 0.0, 0.2, sigma_eff=SIGMA_FREE)
    assert np.max(np.abs(Tu.values)) == 0.0
    Td = apply_T_dual(free, u, 0.0, 0.2, sigma_eff=SIGMA_FREE)
    assert np.max(np.abs(Td.values)) == 0.0


def test_translation_invariance(free, pendulum):
    for model, sig in ((free, SIGMA_FREE), (pendulum, SIGMA_PEND)):
        u = grid_cos(64)
        a = apply_T(model, u.shifted(3.7), 0.0, 0.15, sigma_eff=sig)
        b = apply_T(model, u, 0.0, 0.15, sigma_eff=sig)
        assert np.max(np.abs(a.values - (b.values + 3.7))) < 1e-13


def test_monotony_exact(pendulum):
    u = grid_cos(64)
    v = GridFunction(1, 64, u.values + 0.05 * (1 + np.sin(6 * np.pi * u.nodes)))
    Tu = apply_T(pendulum, u, 0.0, 0.2, sigma_eff=SIGMA_PEND)
    Tv = apply_T(pendulum, v, 0.0, 0.2, sigma_eff=SIGMA_PEND)
    assert np.all(Tv.values >= Tu.values)


def test_dual_inequality_pair(pendulum):
    n = 64
    u = grid_cos(n)
    td = apply_T_dual(pendulum, apply_T(pendulum, u, 0.0, 0.2, sigma_eff=SIGMA_PEND),
                      0.0, 0.2, sigma_eff=SIGMA_PEND)
    dt = apply_T(pendulum, apply_T_dual(pendulum, u, 0.0, 0.2, sigma_eff=SIGMA_PEND),
                 0.0, 0.2, sigma_eff=SIGMA_PEND)
    C_dx = 6.0 / n
    assert np.max(td.values - u.values) <= C_dx
    assert np.min(dt.values - u.values) >= -C_dx


def test_smooth_inverse(free):
    # semi-convex smooth data: the dual inverts T up to grid error
    n = 64
    u = GridFunction.from_callable(lambda q: 0.02 * np.cos(2 * np.pi * q), n)
    rt = apply_T_dual(free, apply_T(free, u, 0.0, 0.05, sigma_eff=SIGMA_FREE),
                      0.0, 0.05, sigma_eff=SIGMA_FREE)
    assert np.max(np.abs(rt.values - u.values)) <= 2 * 6.0 / n


def test_markov_defect_refines(pendulum):
    defects = {}
    for n in (32, 64, 128):
        u = grid_cos(n)
        comp = apply_T(pendulum, apply_T(pendulum, u, 0.0, 0.1, sigma_eff=SIGMA_PEND),
                       0.0, 0.1, sigma_eff=SIGMA_PEND)
        direct = apply_T(pendulum, u, 0.0, 0.2, sigma_eff=SIGMA_PEND)
        defects[n] = np.max(np.abs(comp.values - direct.values))
        # composition of discrete infs dominates the direct discrete inf
        assert np.min(comp.values - direct.values) >= -1e-12
    assert defects[32] > defects[64] > defects[128]
    assert defects[128] <= 2.0 / 128


def test_equi_lipschitz_iterates(pendulum):
    n = 64
    u = grid_cos(n)
    du = np.gradient(u.values, 1.0 / n)
    a_u = float(np.max(pendulum.value(0.0, u.nodes[:, None], du[:, None])))
    K_a = np.sqrt(2 * (a_u + 1.0))  # sup |p| on {H <= a}: V >= -1
    cur = u
    for _ in range(10):
        cur = apply_T(pendulum, cur, 0.0, 0.2, sigma_eff=SIGMA_PEND)
        assert cur.lip_estimate <= K_a * 1.1 + 2.0 / n


def test_subsolution_preserved(pendulum):
    from hjkam.weakkam import is_subsolution
    n = 64
    u = GridFunction(1, n, np.zeros(n))
    a = 1.0
    ok, _ = is_subsolution(pendulum, u, a, slack=1e-9, sigma_eff=SIGMA_PEND)
    assert ok
    Tu = apply_T(pendulum, u, 0.0, 0.2, sigma_eff=SIGMA_PEND).shifted(a * 0.2)
    ok2, worst = is_subsolution(pendulum, Tu, a, slack=1e-6, sigma_eff=SIGMA_PEND)
    assert ok2, worst


def test_semiconcavity_constant_examples():
    n = 128
    u = GridFunction.from_callable(lambda q: -np.cos(2 * np.pi * q) / (4 * np.pi ** 2), n)
    assert abs(semiconcavity_constant(u) - 1.0) < 1e-3
    for m in (64, 128):
        hat = GridFunction.from_callable(lambda q: np.abs(q - 0.5), m)
        assert abs(semiconcavity_constant(hat) - 2 * m) < 1e-9


def test_T_output_semiconcave(pendulum):
    # (C/t)-semi-concavity of the evolved function, scanned over horizons
    n = 128
    m, M = 1.0, 4 * np.pi ** 2
    C = 3.0 * 2.0 * (1 + 2 * M * SIGMA_PEND) / m
    u = grid_cos(n)
    for t in (0.05, 0.1, 0.2):
        Tu = apply_T(pendulum, u, 0.0, t, sigma_eff=SIGMA_PEND)
        assert semiconcavity_constant(Tu) <= C / t + 4.0 * n / n


def test_regularize_constant(free):
    u = GridFunction(1, 64, np.full(64, 1.25))
    r = regularize_R(free, u, 0.0, 0.5, sigma_eff=SIGMA_FREE)
    assert np.max(np.abs(r.values - 1.25)) <= 1e-9


def test_regularize_hat_bounded():
    from hjkam.hamiltonian import free_model
    model = free_model(1)
    regs = {}
    for n in (64, 128, 256):
        hat = GridFunction.from_callable(lambda q: np.abs(q - 0.5), n)
        assert second_difference_bound(hat) >= 1.9 * n
        regs[n] = second_difference_bound(
            regularize_R(model, hat, 0.0, 0.8, sigma_eff=SIGMA_FREE))
    assert max(regs.values()) <= 220.0
    assert regs[256] <= 1.6 * max(regs[64], 1.0)


def test_regularize_semiconcave_upper(free):
    # min of two parabolas is semi-concave: R^t u <= u + C dx
    n = 128
    q = np.arange(n) / n
    u = GridFunction(1, n, np.minimum((q - 0.3) ** 2, (q - 0.7) ** 2 + 0.02))
    r = regularize_R(free, u, 0.0, 0.2, sigma_eff=SIGMA_FREE)
    assert np.max(r.values - u.values) <= 6.0 / n


def test_regularize_dual_semiconvex_lower(free):
    n = 128
    q = np.arange(n) / n
    u = GridFunction(1, n, np.maximum(-(q - 0.3) ** 2, -(q - 0.7) ** 2 - 0.02))
    r = regularize_R_dual(free, u, 0.0, 0.2, sigma_eff=SIGMA_FREE)
    assert np.min(r.values - u.values) >= -6.0 / n


def test_default_delta_grid_independent(free):
    vals = [default_delta(free, GridFunction.from_callable(
        lambda q: np.abs(q - 0.5), n), 0.8, sigma_eff=SIGMA_FREE)
        for n in (64, 128, 256)]
    assert np.ptp(vals) < 1e-12 and vals[0] > 0


def test_gridfunction_io_roundtrip(tmp_path):
    u = GridFunction.from_callable(lambda q: np.sin(2 * np.pi * q) + 0.123456789, 32)
    path = tmp_path / "u.gridfn"
    u.save(path)
    v = GridFunction.load(path)
    assert v.d == 1 and v.n_per_dim == 32
    assert np.array_equal(u.values, v.values)


def test_gridfunction_header_rejects_unknown(tmp_path):
    path = tmp_path / "bad.gridfn"
    path.write_text('{"d": 1, "n_per_dim": 2, "zzz": 3}\n0\n0\n')
    with pytest.raises(ConfigError):
        GridFunction.load(path)


def test_nonperiodic_model_rejected():
    from hjkam.hamiltonian import custom_model
    model = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1), d=1, m=1, M=1,
                         periodic=False)
    with pytest.raises(ConfigError):
        apply_T(model, GridFunction(1, 16, np.zeros(16)), 0.0, 0.1, sigma_eff=0.25)


def test_search_radius_exceeded(pendulum, monkeypatch):
    # force a radius far below the minimizer travel: the doubled boundary
    # is still hit and the operator reports it
    import hjkam.laxoleinik as lx
    from hjkam.errors import SearchRadiusExceeded
    monkeypatch.setattr(lx, "search_radius", lambda model, dt, osc, n: 4.0 / n)
    n = 256
    u = GridFunction.from_callable(lambda q: 10.0 * np.cos(2 * np.pi * q), n)
    with pytest.raises(SearchRadiusExceeded):
        lx.apply_T(pendulum, u, 0.0, 0.2, sigma_eff=0.2)


def _custom_kinetic(a):
    from hjkam.hamiltonian import custom_model
    return custom_model(lambda t, q, p: 0.5 * a * np.sum(p * p, -1), d=1, m=a, M=a,
                        grad=lambda t, q, p: (np.zeros_like(p), a * p),
                        hessian=lambda t, q, p: (np.zeros(p.shape + (1,)),) * 2
                        + (np.full(p.shape + (1,), a),), periodic=True)


def test_kernel_cache_not_aliased_across_custom_models(monkeypatch):
    # a new custom model must not inherit the cache entry of a dropped one.
    # CPython hands freed addresses out again, so id() can repeat; pinning
    # id() makes that reuse certain instead of allocator-dependent
    import hjkam.hamiltonian as hm
    from hjkam.laxoleinik import action_kernel
    monkeypatch.setattr(hm, "id", lambda obj: 0, raising=False)
    first = _custom_kinetic(1.0)
    action_kernel(first, 0.0, 0.1, 8, 2, sigma_eff=0.25)
    del first
    K = action_kernel(_custom_kinetic(2.0), 0.0, 0.1, 8, 2, sigma_eff=0.25)
    dq = np.arange(-2, 3) / 8
    assert np.allclose(K, dq ** 2 / (2 * 2.0 * 0.1), atol=1e-12)


def test_cached_kernel_is_read_only(free):
    from hjkam.laxoleinik import action_kernel
    for _ in range(2):  # the fresh build and the cache hit
        K = action_kernel(free, 0.0, 0.1, 16, 3, sigma_eff=SIGMA_FREE)
        with pytest.raises(ValueError):
            K[0, 0] = 1.0


# operator laws on random grid functions; kernels at n <= 32 stay cached
# across examples, so the examples cost only the min-plus gather
_law_settings = settings(max_examples=25, deadline=None)
_law_args = dict(n=st.sampled_from([8, 16, 32]), data=st.data(),
                 name=st.sampled_from(["free", "pendulum"]))


def _draw_values(data, n, lo=-1.0, hi=1.0):
    return np.asarray(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


@_law_settings
@given(**_law_args)
def test_operators_monotone_property(free, pendulum, n, data, name):
    model, sig = (free, SIGMA_FREE) if name == "free" else (pendulum, SIGMA_PEND)
    u = GridFunction(1, n, _draw_values(data, n))
    v = GridFunction(1, n, u.values + _draw_values(data, n, 0.0, 0.5))
    for op in (apply_T, apply_T_dual):
        assert np.all(op(model, v, 0.0, 0.1, sigma_eff=sig).values
                      >= op(model, u, 0.0, 0.1, sigma_eff=sig).values)


@_law_settings
@given(c=st.floats(-10, 10), **_law_args)
def test_operators_commute_with_constants_property(free, pendulum, n, data, name, c):
    # exact up to the rounding of one addition per candidate
    model, sig = (free, SIGMA_FREE) if name == "free" else (pendulum, SIGMA_PEND)
    u = GridFunction(1, n, _draw_values(data, n))
    for op in (apply_T, apply_T_dual):
        a = op(model, u.shifted(c), 0.0, 0.1, sigma_eff=sig).values
        b = op(model, u, 0.0, 0.1, sigma_eff=sig).values
        ulp = np.finfo(float).eps * (1.0 + abs(c) + np.abs(b).max())
        assert np.max(np.abs(a - (b + c))) <= 4 * ulp


@_law_settings
@given(**_law_args)
def test_dual_pair_inequalities_property(free, pendulum, n, data, name):
    # Ť T u <= u <= T Ť u on the grid: q itself is a candidate of the inner
    # operator at every node the outer one visits
    model, sig = (free, SIGMA_FREE) if name == "free" else (pendulum, SIGMA_PEND)
    u = GridFunction(1, n, _draw_values(data, n))
    td = apply_T_dual(model, apply_T(model, u, 0.0, 0.1, sigma_eff=sig),
                      0.0, 0.1, sigma_eff=sig)
    dt = apply_T(model, apply_T_dual(model, u, 0.0, 0.1, sigma_eff=sig),
                 0.0, 0.1, sigma_eff=sig)
    assert np.max(td.values - u.values) <= 1e-12
    assert np.min(dt.values - u.values) >= -1e-12


def _trig_operand(data, n):
    # one mode k, phase and amplitude drawn so that Lip u spans 0 to 8
    k = data.draw(st.integers(1, 3))
    lip = data.draw(st.floats(0.0, 8.0))
    phase = data.draw(st.floats(0.0, 1.0))
    q = np.arange(n) / n
    return lip / (2 * np.pi * k) * np.cos(2 * np.pi * (k * q + phase))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([16, 32, 64]), t=st.sampled_from([0.1, 0.2]),
       name=st.sampled_from(["free", "pendulum"]), rough=st.booleans(), data=st.data())
def test_velocity_radius_matches_wide_window(free, pendulum, n, t, name, rough, data):
    # the right-sized window finds the same discrete extremum as the window
    # of search_radius alone, bit for bit
    import hjkam.laxoleinik as lx
    model, sig = (free, SIGMA_FREE) if name == "free" else (pendulum, SIGMA_PEND)
    u = GridFunction(1, n, _draw_values(data, n) if rough else _trig_operand(data, n))
    for op in (apply_T, apply_T_dual):
        sized = op(model, u, 0.0, t, sigma_eff=sig).values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lx, "velocity_radius", lambda model, tau, t, lip, n: np.inf)
            wide = op(model, u, 0.0, t, sigma_eff=sig).values
        assert np.array_equal(sized, wide)


def test_velocity_radius_narrows_window(pendulum):
    from hjkam.laxoleinik import search_radius, velocity_radius
    n, t = 256, 0.2
    u = grid_cos(n)
    vel = velocity_radius(pendulum, 0.0, t, u.lip_estimate, n)
    # pendulum: sup|H_q| = 2 pi and H_p = p on the band |p| <= Lip u + 2 pi t
    assert vel == pytest.approx(t * (u.lip_estimate + 2 * np.pi * t) + 2.0 / n, rel=1e-12)
    assert vel < search_radius(pendulum, t, u.osc(), n) / 2


@pytest.mark.parametrize("t", [0.1, 0.3])
def test_kernel_grows_by_new_columns(pendulum, monkeypatch, t):
    # growing from D = 8 to D = 24 solves only the 2 * 16 new columns, in
    # their own batch.  Each pair is solved independently of its batch mates
    # (t = 0.1 by the generating function, t = 0.3 by relaxed chains past
    # sigma = 0.2), so the grown kernel equals a fresh build bit for bit
    import hjkam.laxoleinik as lx
    n = 16
    solved = []
    pair_actions = lx._pair_actions

    def counting(*args):  # (model, tau, t, Q0, Q1, sigma)
        solved.append(len(args[3]))
        return pair_actions(*args)

    monkeypatch.setattr(lx, "_pair_actions", counting)
    lx.clear_kernel_cache()
    small = lx.action_kernel(pendulum, 0.0, t, n, 8, sigma_eff=SIGMA_PEND).copy()
    grown = lx.action_kernel(pendulum, 0.0, t, n, 24, sigma_eff=SIGMA_PEND)
    assert solved == [17 * n, 2 * 16 * n]
    assert np.array_equal(grown[:, 16:33], small)
    lx.action_kernel(pendulum, 0.0, t, n, 20, sigma_eff=SIGMA_PEND)
    assert solved == [17 * n, 2 * 16 * n]  # a narrower request is a hit
    with pytest.raises(ValueError):
        grown[0, 0] = 1.0
    lx.clear_kernel_cache()
    fresh = lx.action_kernel(pendulum, 0.0, t, n, 24, sigma_eff=SIGMA_PEND)
    assert np.array_equal(grown, fresh)


@pytest.mark.parametrize("t", [0.1, 0.2])
@pytest.mark.parametrize("name", ["free", "quad2", "pendulum", "shifted_pendulum"])
def test_kernel_reversible(request, name, t):
    # autonomous and even in p: A(x, x + d) = A(x + d, x)
    from hjkam.laxoleinik import action_kernel
    n, D = 64, 16
    model = request.getfixturevalue(name)
    K = action_kernel(model, 0.0, t, n, D, sigma_eff=SIGMA_PEND)
    dd = np.arange(-D, D + 1)
    i = np.arange(len(K))[:, None]
    back = K[(i + dd) % len(K), D - dd]
    assert np.max(np.abs(K[i, D + dd] - back)) <= 1e-8
