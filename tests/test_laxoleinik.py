import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_FREE, SIGMA_PEND, tight_reference
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
    model = free_model()
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


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
def test_regularize_delta_not_positive_finite_is_config_error(free, delta, monkeypatch):
    # delta is checked before the first operator apply
    import hjkam.laxoleinik as lo

    def no_apply(*args, **kwargs):
        raise AssertionError("operator applied before delta was checked")

    monkeypatch.setattr(lo, "apply_T", no_apply)
    monkeypatch.setattr(lo, "apply_T_dual", no_apply)
    u = GridFunction(1, 16, np.zeros(16))
    for op in (regularize_R, regularize_R_dual):
        with pytest.raises(ConfigError, match="delta"):
            op(free, u, 0.0, 0.2, delta=delta, sigma_eff=SIGMA_FREE)


def test_gridfunction_io_roundtrip(tmp_path):
    u = GridFunction.from_callable(lambda q: np.sin(2 * np.pi * q) + 0.123456789, 32)
    path = tmp_path / "u.gridfn"
    u.save(path)
    v = GridFunction.load(path)
    assert v.d == 1 and v.n_per_dim == 32
    assert np.array_equal(u.values, v.values)


@pytest.mark.parametrize("n", [0, -1])
def test_gridfunction_needs_a_node(n):
    with pytest.raises(ConfigError, match="n_per_dim >= 1"):
        GridFunction(1, n, np.zeros(max(n, 0)))


def test_gridfunction_header_rejects_unknown(tmp_path):
    path = tmp_path / "bad.gridfn"
    path.write_text('{"d": 1, "n_per_dim": 2, "zzz": 3}\n0\n0\n')
    with pytest.raises(ConfigError):
        GridFunction.load(path)


def test_gridfunction_header_d_must_be_1(tmp_path):
    # grid functions live on the circle: "d" is 1 or absent
    path = tmp_path / "grid.gridfn"
    path.write_text('{"d": 2, "n_per_dim": 2}\n0\n0\n0\n0\n')
    with pytest.raises(ConfigError, match="d = 1"):
        GridFunction.load(path)
    for header in ('{"d": 1, "n_per_dim": 2}', '{"n_per_dim": 2}'):
        path.write_text(header + "\n0.5\n-1\n")
        u = GridFunction.load(path)
        assert u.d == 1 and np.array_equal(u.values, [0.5, -1.0])


@pytest.mark.parametrize("text", ['{"d": 1}\n0\n0\n', 'n_per_dim = 2\n0\n0\n',
                                  '{"n_per_dim": 2}\n0.5\nabc\n', '{"n_per_dim": 0}\n'],
                         ids=["header-without-n_per_dim", "header-not-json", "value-not-numeric",
                              "no-nodes"])
def test_gridfunction_malformed_file_is_config_error(tmp_path, text, capsys):
    path = tmp_path / "bad.gridfn"
    path.write_text(text)
    with pytest.raises(ConfigError):
        GridFunction.load(path)
    from hjkam.cli import main
    assert main(["lax", "--model", "free", "--grid", "2", "--sigma-eff", "0.25", "--t", "0.1",
                 "--u", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_nonperiodic_model_rejected():
    from hjkam.hamiltonian import custom_model
    model = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1), m=1, M=1,
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
    widths = _record_widths(monkeypatch)
    with pytest.raises(SearchRadiusExceeded) as exc:
        lx.apply_T(pendulum, u, 0.0, 0.2, sigma_eff=0.2)
    # the error names the last window tried and carries it as its residual
    assert widths == [16, 32]
    assert exc.value.residual == 32 and "(D = 32)" in str(exc.value)


def _custom_kinetic(a):
    from hjkam.hamiltonian import custom_model
    return custom_model(lambda t, q, p: 0.5 * a * np.sum(p * p, -1), m=a, M=a,
                        grad=lambda t, q, p: (np.zeros_like(p), a * p),
                        hessian=lambda t, q, p: (np.zeros(p.shape[:-1]),) * 2
                        + (np.full(p.shape[:-1], a),), periodic=True)


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
# across examples, so the examples cost only the min-plus apply
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


def _assert_sized_window_is_wide(model, u, t, sig):
    # the right-sized window finds the same discrete extremum as the window
    # of search_radius alone, bit for bit
    import hjkam.laxoleinik as lx
    for op in (apply_T, apply_T_dual):
        sized = op(model, u, 0.0, t, sigma_eff=sig).values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lx, "velocity_radius", lambda model, tau, t, lip, n: np.inf)
            wide = op(model, u, 0.0, t, sigma_eff=sig).values
        assert np.array_equal(sized, wide)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([16, 32, 64]), t=st.sampled_from([0.1, 0.2]),
       name=st.sampled_from(["free", "pendulum", "forced", "multi"]), rough=st.booleans(),
       data=st.data())
def test_velocity_radius_matches_wide_window(free, pendulum, forced, n, t, name, rough, data):
    # on the one-row free kernel, the even pendulum, the forced model (no
    # energy cap) and a potential with sine terms; t = 0.2 lies past the
    # multi-mode window 0.15, which takes its window instead
    import hjkam.laxoleinik as lx
    model, sig = {"free": (free, SIGMA_FREE), "pendulum": (pendulum, SIGMA_PEND),
                  "forced": (forced, SIGMA_PEND), "multi": (_multi_mode(), 0.15)}[name]
    t = min(t, sig)
    u = GridFunction(1, n, _draw_values(data, n) if rough else _trig_operand(data, n))
    # the sized window is the one that sampling the sups on every call gives
    assert (lx.velocity_radius(model, 0.0, t, u.lip_estimate, n)
            == _velocity_radius_sampled(model, 0.0, t, u.lip_estimate, n))
    _assert_sized_window_is_wide(model, u, t, sig)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([16, 32, 64]), t=st.sampled_from([0.05, 0.1, 0.2]),
       name=st.sampled_from(["free", "quad2", "pendulum", "multi", "forced"]),
       rough=st.booleans(), data=st.data())
def test_search_radius_matches_widest_window(request, n, t, name, rough, data):
    # inside the twist window, the operators with the a-priori radius of the
    # minimizer equal, bit for bit, those of the widest window: the
    # Hessian-constant radius with no velocity bound.  On the one-row kinetic
    # kernels (a = 1 and 2), the even pendulum, a potential with sine terms,
    # and the forced model at eps = 0.2
    import hjkam.laxoleinik as lx
    sig = {"free": SIGMA_FREE, "quad2": SIGMA_FREE, "multi": 0.15}.get(name, SIGMA_PEND)
    model = _multi_mode() if name == "multi" else request.getfixturevalue(name)
    t = min(t, sig)
    u = GridFunction(1, n, _draw_values(data, n) if rough else _trig_operand(data, n))
    assert (lx.search_radius(model, t, u.osc(), n)
            == _search_radius_written_out(model, t, u.osc(), n))
    for op in (apply_T, apply_T_dual):
        sized = op(model, u, 0.0, t, sigma_eff=sig).values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lx, "search_radius", _hessian_radius_written_out)
            mp.setattr(lx, "velocity_radius", lambda model, tau, t, lip, n: np.inf)
            widest = op(model, u, 0.0, t, sigma_eff=sig).values
        assert np.array_equal(sized, widest)


def test_custom_model_keeps_hessian_radius_inside_window(pendulum, monkeypatch):
    # a custom pendulum with exact derivatives searches the Hessian-constant
    # radius (1.39 here, against the built-in family's 0.42).  With the
    # velocity radius lifted, so that each search radius sets its window (D =
    # 96 and 32), both windows give the custom image, argmin for argmin.  The
    # custom model is integrated by RK4 and the built-in one by the
    # splitting, so the two families' images differ by RK4's own error
    import hjkam.laxoleinik as lx
    from hjkam.hamiltonian import custom_model
    tp = 2 * np.pi
    custom = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(tp * q[..., 0]),
                          m=1.0, M=tp ** 2, periodic=True,
                          grad=lambda t, q, p: (-tp * np.sin(tp * q), p),
                          hessian=lambda t, q, p: (-tp ** 2 * np.cos(tp * q[..., 0]), 0.0, 1.0))
    n, t = 64, 0.1
    u = GridFunction.from_callable(lambda q: 0.3 * np.sin(tp * q), n)
    R = lx.search_radius(custom, t, u.osc(), n)
    assert R == _hessian_radius_written_out(custom, t, u.osc(), n)
    narrow = lx.search_radius(pendulum, t, u.osc(), n)
    assert R > 3 * narrow
    image = apply_T(custom, u, 0.0, t, sigma_eff=SIGMA_PEND).values
    monkeypatch.setattr(lx, "velocity_radius", lambda model, tau, t, lip, n: 2.0)
    widths = _record_widths(monkeypatch)
    wide, wide_dd = lx._min_plus(custom, u, 0.0, t, SIGMA_PEND, False)
    monkeypatch.setattr(lx, "search_radius", lambda model, dt, osc, n: narrow)
    got, got_dd = lx._min_plus(custom, u, 0.0, t, SIGMA_PEND, False)
    assert widths == [96, 32]
    assert np.array_equal(wide_dd, got_dd)
    assert np.max(np.abs(wide.values - got.values)) <= 1e-10
    assert np.max(np.abs(wide.values - image)) <= 1e-10


def test_search_radius_past_window_keeps_hessian_bound(pendulum, monkeypatch):
    # at t = 0.3, past the window 0.2, the kernel holds relaxed chains, so the
    # operators keep the Hessian-constant radius (3.96 here) and the velocity
    # radius (1.84) sets the window, D = 32, where the minimizer's bound
    # (0.91) would give D = 16
    import hjkam.laxoleinik as lx
    n, t = 16, 0.3
    u = GridFunction.from_callable(lambda q: 0.3 * np.cos(6 * np.pi * q), n)
    R = min(_hessian_radius_written_out(pendulum, t, u.osc(), n),
            lx.velocity_radius(pendulum, 0.0, t, u.lip_estimate, n))
    assert _search_radius_written_out(pendulum, t, u.osc(), n) < R / 2
    widths = _record_widths(monkeypatch)
    for op in (apply_T, apply_T_dual):
        op(pendulum, u, 0.0, t, sigma_eff=SIGMA_PEND)
    assert widths == [lx._quantize(math.ceil(R * n))] * 2 == [32, 32]


def test_velocity_radius_energy_cap_matches_wide_window(pendulum):
    # at t = 0.6 the momentum envelope reaches the energy cap P_E by s* =
    # (P_E - lip) / 2 pi < 0.4: the capped window, past the twist window
    # (chain branch), still holds every extremum of the wide one
    import hjkam.laxoleinik as lx
    n, t = 16, 0.6
    u = grid_cos(n)
    lip = u.lip_estimate
    cap = np.sqrt(lip ** 2 + 2 * np.pi)
    assert t > (cap - lip) / (2 * np.pi)
    vel = lx.velocity_radius(pendulum, 0.0, t, lip, n)
    assert vel == _velocity_radius_sampled(pendulum, 0.0, t, lip, n)
    assert vel < t * lip + np.pi * t ** 2 + 2.0 / n
    _assert_sized_window_is_wide(pendulum, u, t, SIGMA_PEND)


def _min_plus_by_loop(model, u, t, D, dual, sigma):
    # the operator by its definition: one target node and one displacement
    # at a time, first extremum in dd order, on the kernel of half-width D
    from hjkam.laxoleinik import action_kernel
    n = u.n_per_dim
    K = action_kernel(model, 0.0, t, n, D, sigma_eff=sigma).tolist()
    vals = u.values.tolist()
    out, src = np.empty(n), np.empty(n, int)
    for j in range(n):
        best = None
        for dd in range(-D, D + 1):
            if dual:
                theta = (j + dd) % n
                c = vals[theta] - K[j % len(K)][dd + D]
                better = best is None or c > best
            else:
                theta = (j - dd) % n
                c = vals[theta] + K[theta % len(K)][dd + D]
                better = best is None or c < best
            if better:
                best, out[j], src[j] = c, c, theta
    return out, src


def _source_nodes(dd, dual):
    # the node theta that attains each image value, from _min_plus's displacements
    jj = np.arange(len(dd))
    return (jj + dd if dual else jj - dd) % len(dd)


def _recording_kernel(widths):
    # action_kernel that appends each requested half-width D to ``widths``
    import hjkam.laxoleinik as lx
    kernel = lx.action_kernel

    def recording(model, tau, t, n, D, sigma_eff=None):
        widths.append(D)
        return kernel(model, tau, t, n, D, sigma_eff=sigma_eff)
    return recording


def _assert_min_plus_matches_loop(model, u, t, sig):
    # both directions; returns the half-width D of the last kernel read
    import hjkam.laxoleinik as lx
    for dual in (False, True):
        widths = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lx, "action_kernel", _recording_kernel(widths))
            image, dd = lx._min_plus(model, u, 0.0, t, sig, dual)
        want, want_src = _min_plus_by_loop(model, u, t, widths[-1], dual, sig)
        assert np.array_equal(image.values, want)
        assert np.array_equal(_source_nodes(dd, dual), want_src)
    return widths[-1]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 16, 32, 64]), t=st.sampled_from([0.1, 0.2]),
       name=st.sampled_from(["free", "pendulum", "forced"]),
       kind=st.sampled_from(["smooth", "rough", "steps"]), data=st.data())
def test_min_plus_matches_loop(free, pendulum, forced, n, t, name, kind, data):
    # values and argmin nodes equal a plain loop bit for bit, on the one-row
    # (free) and n-row (pendulum, forced) kernels; the forced model's
    # velocity radius is sampled at the five slot times.  Two-valued "steps"
    # operands often tie exactly on the free model's symmetric kernel
    model, sig = {"free": (free, SIGMA_FREE), "pendulum": (pendulum, SIGMA_PEND),
                  "forced": (forced, SIGMA_PEND)}[name]
    values = {"smooth": _trig_operand, "rough": _draw_values,
              "steps": lambda data, n: 0.5 * np.asarray(
                  data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))}
    _assert_min_plus_matches_loop(model, GridFunction(1, n, values[kind](data, n)), t, sig)


@pytest.mark.parametrize("name", ["free", "pendulum", "forced"])
def test_min_plus_window_wraps_torus(request, name):
    # at n = 8 the window 2 D + 1 >= 33 holds every node more than twice:
    # the strided window reads the extended operand across several periods
    sig = SIGMA_FREE if name == "free" else SIGMA_PEND
    u = GridFunction(1, 8, 0.1 * np.array([3.0, -1.0, 2.0, 0.0, 1.5, -2.0, 0.5, 1.0]))
    D = _assert_min_plus_matches_loop(request.getfixturevalue(name), u, 0.1, sig)
    assert 2 * D + 1 > 2 * u.n_per_dim


@pytest.mark.parametrize("dual", [False, True])
def test_min_plus_ties_go_to_first_displacement(free, monkeypatch, dual):
    # the free kernel is symmetric in dd, so each node between two equal
    # neighbours ties; the loop keeps the most negative displacement
    import hjkam.laxoleinik as lx
    u = GridFunction(1, 8, 0.5 * np.array([1, 0, 0, 0, 1, 0, 1, 0]))
    widths = []
    monkeypatch.setattr(lx, "action_kernel", _recording_kernel(widths))
    image, dd = lx._min_plus(free, u, 0.0, 0.1, SIGMA_FREE, dual)
    want, want_src = _min_plus_by_loop(free, u, 0.1, widths[-1], dual, SIGMA_FREE)
    assert np.array_equal(image.values, want)
    assert np.array_equal(_source_nodes(dd, dual), want_src)


@pytest.mark.parametrize("mirror", [False, True])
def test_search_radius_doubling(pendulum, monkeypatch, mirror):
    # a window of a few cells: at D = 16 the argmin reaches only the right
    # edge (only the left one on the mirrored operand), in both directions;
    # the doubled window D = 32 holds it, and the image equals the
    # right-sized window's bit for bit
    import hjkam.laxoleinik as lx
    n, t = 128, 0.1
    q = np.arange(n) / n * (-1 if mirror else 1)
    u = GridFunction(1, n, 0.1 * (np.sin(2 * np.pi * q) + 0.5 * np.sin(4 * np.pi * q)))
    want = [lx._min_plus(pendulum, u, 0.0, t, SIGMA_PEND, dual) for dual in (False, True)]
    widths = []
    monkeypatch.setattr(lx, "action_kernel", _recording_kernel(widths))
    monkeypatch.setattr(lx, "velocity_radius", lambda model, tau, t, lip, n: 2.0 / n)
    for dual, (image, dd) in zip((False, True), want):
        widths.clear()
        got, got_dd = lx._min_plus(pendulum, u, 0.0, t, SIGMA_PEND, dual)
        assert widths == [16, 32]
        assert np.array_equal(got.values, image.values)
        assert np.array_equal(got_dd, dd)


@pytest.mark.parametrize("name", ["free", "pendulum"])
def test_operators_never_alias_the_cache(request, name):
    # the candidates are strided views of the kernel and the operand; the
    # image must be a fresh array that neither the cache nor u can see
    import hjkam.laxoleinik as lx
    model = request.getfixturevalue(name)
    sig = SIGMA_FREE if name == "free" else SIGMA_PEND
    u = grid_cos(32)
    for op in (apply_T, apply_T_dual):
        first = op(model, u, 0.0, 0.1, sigma_eff=sig).values.copy()  # fills the cache
        # K.base holds the kernel and its target-major companion
        cached = {k: v.base.tobytes() for k, v in lx._KERNEL_CACHE.items()}
        out = op(model, u, 0.0, 0.1, sigma_eff=sig).values  # a cache hit
        assert {k: v.base.tobytes() for k, v in lx._KERNEL_CACHE.items()} == cached
        assert not any(np.shares_memory(out, K.base) for K in lx._KERNEL_CACHE.values())
        assert not np.shares_memory(out, u.values)
        out[:] = 7.0
        assert np.array_equal(op(model, u, 0.0, 0.1, sigma_eff=sig).values, first)


def test_velocity_radius_narrows_window(pendulum):
    from hjkam.laxoleinik import _hessian_radius, velocity_radius
    n, t = 256, 0.2
    u = grid_cos(n)
    lip = u.lip_estimate
    vel = velocity_radius(pendulum, 0.0, t, lip, n)
    # pendulum: sup|H_q| = 2 pi and H_p = p; the envelope min(lip + 2 pi s,
    # P_E) reaches the energy cap P_E = sqrt(lip^2 + 2 pi) at s* < t
    cap = np.sqrt(lip ** 2 + 2 * np.pi)
    s_star = (cap - lip) / (2 * np.pi)
    assert s_star < t
    assert vel == pytest.approx(t * cap - (cap - lip) ** 2 / (4 * np.pi) + 2.0 / n, rel=1e-12)
    # against the Hessian-constant radius, which the operators take past the
    # twist window
    assert vel < _hessian_radius(pendulum, t, u.osc(), n) / 2


def test_aubry_set_kernel_width(pendulum, monkeypatch):
    # aubry_cold's solve: the widest kernel that the envelope's window asks
    # for is D = 64; charging the top momentum lip + dt sup|H_q| over the
    # whole horizon asked for D = 80
    from hjkam.laxoleinik import clear_kernel_cache
    from hjkam.weakkam import aubry_set
    clear_kernel_cache()
    widths = _record_widths(monkeypatch)
    aubry_set(pendulum, grid_n=256, sigma_eff=SIGMA_PEND)
    assert widths and max(widths) <= 64


def test_weak_kam_kernel_width(pendulum, monkeypatch):
    # weakkam_warm's widest operand (osc 1.83, lip 13.2): the velocity radius
    # asks for D = 352, the minimizer's bound sqrt(2 dt (osc + 2 dt)) + 1/n,
    # 0.64, for D = 176; the first application is the widest
    from hjkam.laxoleinik import clear_kernel_cache
    from hjkam.weakkam import weak_kam_solve
    n, k = 256, np.arange(1, 5)[:, None]
    x = 2 * np.pi * k * np.arange(n) / n
    u = GridFunction(1, n, [0.25, 0.03, 0.15, 0.04, -0.92, 0.09, -0.15, 0.13]
                     @ np.concatenate([np.cos(x), np.sin(x)]))
    assert 1.8 < u.osc() < 1.85 and 13 < u.lip_estimate < 13.3
    clear_kernel_cache()
    widths = _record_widths(monkeypatch)
    weak_kam_solve(pendulum, grid_n=n, alpha=1.0, t_step=0.1, sigma_eff=SIGMA_PEND, u0=u)
    assert max(widths) == widths[0] == 176


@pytest.mark.parametrize("t", [0.1, 0.3])
def test_kernel_grows_by_new_columns(pendulum, monkeypatch, t):
    # growing from D = 8 to D = 24 solves only the 2 * 16 new columns, in
    # their own batch.  Each pair is solved independently of its batch mates
    # (t = 0.1 by the generating function, t = 0.3 by relaxed chains past
    # sigma = 0.2), so the grown kernel equals a fresh build bit for bit.
    # The pendulum is reversible and even: one entry per orbit of
    # (j, dd) -> (j + dd, -dd), (-j, -dd), (-j - dd, dd) (mod n) is solved.
    # Column 0 has the n / 2 + 1 orbits of j -> -j; the columns +-e have
    # n / 2, plus one when e is even, where (-j - e, e) fixes the two rows
    # 2 j = -e mod n.  D = 8 solves 9 + 8 * 8 + 4 = 77 entries; the growth
    # 16 * 8 + 8 = 136
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
    assert solved == [77, 136]
    assert np.array_equal(grown[:, 16:33], small)
    lx.action_kernel(pendulum, 0.0, t, n, 20, sigma_eff=SIGMA_PEND)
    assert solved == [77, 136]  # a narrower request is a hit
    with pytest.raises(ValueError):
        grown[0, 0] = 1.0
    lx.clear_kernel_cache()
    fresh = lx.action_kernel(pendulum, 0.0, t, n, 24, sigma_eff=SIGMA_PEND)
    assert np.array_equal(grown, fresh)


@pytest.mark.parametrize("value_slack", [None, 1])
@pytest.mark.parametrize("case", ["pendulum", "multi", "forced"])
def test_pair_actions_match_tight_reference(request, monkeypatch, case, value_slack):
    # _pair_actions reads values alone: a row landing beyond LANDING_SLACK
    # takes the second-order term in place of another pass, and a row beyond
    # VALUE_SLACK a chord Newton pass.  Either way an entry is the value of
    # the orbit that lands exactly on the kernel grid, to 1e-12, here at wide
    # displacements: the pendulum at t = 0.2 up to |dq| = 0.75 (most rows
    # land beyond LANDING_SLACK, some beyond VALUE_SLACK), the multi-mode
    # model, and a slot of the forced model.  With a value slack of one
    # tolerance every far row takes passes; a row's bits never depend on
    # its batch
    import hjkam.generating as g
    import hjkam.laxoleinik as lx
    from hjkam.hamiltonian import mechanical_model
    model, tau, t, sigma, wide = {
        "pendulum": (request.getfixturevalue("pendulum"), 0.0, 0.2, SIGMA_PEND, 0.75),
        "multi": (mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15]), 0.0, 0.15, 0.15, 0.5),
        "forced": (request.getfixturevalue("forced"), 0.1, 0.3, SIGMA_PEND, 0.75)}[case]
    if value_slack is not None:
        monkeypatch.setattr(g, "VALUE_SLACK", value_slack)
    rng = np.random.default_rng(7)
    Q0 = rng.uniform(0, 1, (400, 1))
    Q1 = Q0 + rng.uniform(-wide, wide, (400, 1))
    S = lx._pair_actions(model, tau, t, Q0, Q1, sigma)
    res = g.generating_batch(model, tau, t, Q0, Q1, sigma_eff=sigma, step_target=g.KERNEL_STEP,
                             want_momenta=False)[3]
    slack = g.LANDING_SLACK if value_slack is None else value_slack
    assert (res > slack * g.shoot_tol(Q0, Q1)).any() == (value_slack is None)
    W = tight_reference(model, tau, t, Q0, Q1, g.KERNEL_STEP)[0]
    assert np.max(np.abs(S - W)) <= 1e-12
    for i in range(0, 400, 40):
        one = lx._pair_actions(model, tau, t, Q0[i:i + 1], Q1[i:i + 1], sigma)
        assert one.tobytes() == S[i:i + 1].tobytes()


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


def _two_well():
    from hjkam.hamiltonian import mechanical_model
    return mechanical_model([0.0, 0.0, 0.0, 0.5], m=1.0)


@pytest.mark.parametrize("name", ["pendulum", "shifted_pendulum", "two_well"])
def test_kernel_mirror_copies_time_reversal(request, name):
    # reversible families copy K[j, D - e] = K[j - e, D + e] (or the other
    # way), in a first build and in a growth; the copies are the direct
    # solves to 1e-8
    import hjkam.laxoleinik as lx
    model = _two_well() if name == "two_well" else request.getfixturevalue(name)
    sig = 0.1 if name == "two_well" else SIGMA_PEND
    n, t, D = 32, 0.1, 12
    lx.clear_kernel_cache()
    lx.action_kernel(model, 0.0, t, n, 4, sigma_eff=sig)
    K = lx.action_kernel(model, 0.0, t, n, D, sigma_eff=sig)
    j, e = np.nonzero(np.arange(n)[:, None] >= np.arange(D + 1))
    assert np.array_equal(K[j, D - e], K[j - e, D + e])
    direct = lx._pair_actions(model, 0.0, t, (j / n)[:, None], (j / n - e / n)[:, None], sig)
    assert np.max(np.abs(K[j, D - e] - direct)) <= 1e-8
    lx.clear_kernel_cache()
    assert np.array_equal(lx.action_kernel(model, 0.0, t, n, D, sigma_eff=sig), K)


def test_kernel_mirror_keeps_row_zero_symmetric(pendulum):
    # cos 2 pi q is even about q = 0, so A(0, e/n) = A(0, -e/n): the one is
    # copied from the other, bit for bit.
    # The hyperbolic seed at (0, 0) of invariant_set relies on it
    import hjkam.laxoleinik as lx
    n, D = 64, 24
    e = np.arange(1, D + 1)
    for t in (0.1, 0.2):
        K = lx.action_kernel(pendulum, 0.0, t, n, D, sigma_eff=SIGMA_PEND)
        assert np.array_equal(K[0, D + e], K[0, D - e])


@pytest.mark.parametrize("name", ["forced_sine", "custom", "forced", "multi"])
def test_kernel_mirror_skips_other_families(request, monkeypatch, name):
    # forced models are not autonomous, and a custom model is never assumed
    # reversible or even, even when it is: with a sine term in V every entry
    # is solved.  The forced fixture's 0.3 cos 2 pi q is even, so (j, dd) and
    # (-j, -dd) are one orbit, and (0, 0), (n / 2, 0) orbits of their own.
    # The multi-mode V has sine terms: only time reversal applies, pairing
    # (j, -e) with (j - e mod n, e) across q = 0 too, so n (D + 1) are solved
    import hjkam.laxoleinik as lx
    from hjkam.hamiltonian import forced_model
    model = {"forced_sine": lambda: forced_model([0.0, 0.3, 0.2], epsilon=0.2),
             "custom": _fd_pendulum, "multi": _multi_mode,
             "forced": lambda: request.getfixturevalue("forced")}[name]()
    n, D = 16, 4
    solved = []
    pair_actions = lx._pair_actions

    def counting(*args):  # (model, tau, t, Q0, Q1, sigma)
        solved.append(len(args[3]))
        return pair_actions(*args)

    monkeypatch.setattr(lx, "_pair_actions", counting)
    lx.clear_kernel_cache()
    K = lx.action_kernel(model, 0.0, 0.1, n, D, sigma_eff=SIGMA_PEND)
    want = {"forced": n // 2 + 1 + n * D, "multi": n * (D + 1)}.get(name, n * (2 * D + 1))
    assert K.shape == (n, 2 * D + 1) and solved == [want]


def _multi_mode():
    from hjkam.hamiltonian import mechanical_model
    return mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15])


def _kernel_model(request, name):
    # a kernel test model and its window
    if name == "two_well":
        return _two_well(), 0.1
    if name == "multi":
        return _multi_mode(), 0.15
    return request.getfixturevalue(name), SIGMA_PEND


@pytest.mark.parametrize("t", [0.1, 0.3])
@pytest.mark.parametrize("name", ["pendulum", "two_well", "forced"])
def test_kernel_symmetry_group_is_bitwise(request, name, t):
    # an even potential gives A(x, y) = A(-x, -y), K[j, dd] = K[-j, -dd]; an
    # autonomous one also A(x, y) = A(y, x), K[j, dd] = K[j + dd, -dd] (mod
    # n), so every entry equals its orbit's bit for bit, past q = 0 and in a
    # growth as in a build.  t = 0.3 lies past the window: chain branch
    import hjkam.laxoleinik as lx
    model, sig = _kernel_model(request, name)
    n, D = 32, 20
    lx.clear_kernel_cache()
    lx.action_kernel(model, 0.0, t, n, 4, sigma_eff=sig)
    K = lx.action_kernel(model, 0.0, t, n, D, sigma_eff=sig)
    j, dd = np.arange(n)[:, None], np.arange(-D, D + 1)
    assert np.array_equal(K[-j % n, D - dd], K)
    if name != "forced":
        assert np.array_equal(K[(j + dd) % n, D - dd], K)


def _assert_kernel_matches_direct(model, t, n, D, sig, tol=1e-8):
    # every entry, solved or copied, within tol of its own direct solve
    import hjkam.laxoleinik as lx
    K = lx.action_kernel(model, 0.0, t, n, D, sigma_eff=sig)
    j, c = np.nonzero(np.ones(K.shape, bool))
    direct = lx._pair_actions(model, 0.0, t, (j / n)[:, None], (j / n + (c - D) / n)[:, None], sig)
    assert np.max(np.abs(K[j, c] - direct)) <= tol


@pytest.mark.parametrize("t", [0.1, 0.3])
@pytest.mark.parametrize("name", ["pendulum", "two_well", "forced", "multi"])
def test_kernel_copies_match_direct_solves(request, name, t):
    model, sig = _kernel_model(request, name)
    _assert_kernel_matches_direct(model, t, 32, 12, sig)


@pytest.mark.parametrize("name", ["pendulum", "two_well", "multi", "forced"])
def test_kernel_copies_match_direct_solves_wide(request, name):
    # |dd| / n up to 0.75: the momenta, and so the landing error's share
    # P e of an uncorrected value, are largest here.  The built-in families'
    # flow is time-symmetric, so a copy by time reversal (pendulum, two-well,
    # multi-mode) is its pair's direct solve to the landing correction, and a
    # copy by reflection (forced) to rounding: the largest gaps are 8.9e-14,
    # 1.2e-13, 1.2e-13 and 5.3e-15.  RK4, which is not time-symmetric,
    # leaves its reversal copies 1.0e-9 to 2.8e-9 off
    model, sig = _kernel_model(request, name)
    _assert_kernel_matches_direct(model, 0.1, 16, 12, sig, tol=1e-12)


@settings(max_examples=12, deadline=None)
@given(amps=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=3), forced=st.booleans())
def test_even_potential_copies_match_direct_property(amps, forced):
    # cosine-only potentials of 1-3 modes, autonomous (reflection and time
    # reversal) or forced (reflection alone); |a_k| <= 0.3 keeps t = 0.1
    # inside the Sturm twist window 1.8955 / sqrt(kappa) >= 0.13
    from hjkam.hamiltonian import forced_model, mechanical_model
    V = [0.0] + [c for a in amps for c in (a, 0.0)]
    model = forced_model(V, epsilon=0.2) if forced else mechanical_model(V)
    _assert_kernel_matches_direct(model, 0.1, 16, 6, 0.1)


def _grad_sups_meshgrid(model, times, band):
    # the sampling as first written: a fresh meshgrid, abs over the tuple
    Q, P = np.meshgrid(np.arange(64) / 64, np.linspace(-band, band, 17), indexing="ij")
    Hq, Hp, _, _ = zip(*(model.jet(s, Q[..., None], P[..., None]) for s in times))
    return float(np.max(np.abs(Hq))), float(np.max(np.abs(Hp)))


def _fd_pendulum():
    # no grad given: custom_model differentiates value by finite differences
    from hjkam.hamiltonian import custom_model
    return custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(2 * np.pi * q[..., 0]),
                        m=1.0, M=4 * np.pi ** 2, periodic=True)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["free", "pendulum", "forced", "fd"]),
       band=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       tau=st.floats(0.0, 1.0), dt=st.floats(1e-3, 0.5))
def test_grad_sups_match_meshgrid(free, pendulum, forced, name, band, tau, dt):
    # the broadcast sample grid reads the same sups as a fresh meshgrid, bit
    # for bit; the forced model is sampled at the five slot times
    from hjkam.laxoleinik import _grad_sups
    model = {"free": free, "pendulum": pendulum, "forced": forced, "fd": _fd_pendulum()}[name]
    times = [tau] if model.autonomous else np.linspace(tau, tau + dt, 5)
    got = _grad_sups(model, times, band)
    want = _grad_sups_meshgrid(model, times, band)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


def _empty_like_pendulum(autonomous):
    # a custom grad that writes into np.empty_like(q), as the jet contract
    # allows: it needs q of the full sample shape, not a broadcast-only grid
    from hjkam.hamiltonian import custom_model

    def g(t):
        return 1.0 if autonomous else 1.0 + 0.2 * np.sin(2 * np.pi * t)

    def value(t, q, p):
        return 0.5 * np.sum(p * p, -1) + g(t) * np.cos(2 * np.pi * q[..., 0])

    def grad(t, q, p):
        Hq, Hp = np.empty_like(q), np.empty_like(q)
        Hq[...] = -2 * np.pi * g(t) * np.sin(2 * np.pi * q)
        Hp[...] = p
        return Hq, Hp
    return custom_model(value, m=1.0, M=4.8 * np.pi ** 2, grad=grad, periodic=True,
                        autonomous=autonomous)


@pytest.mark.parametrize("autonomous", [True, False])
def test_velocity_radius_on_custom_grad_shape(monkeypatch, autonomous):
    # the sample grid hands the jet q and p of one shape; the radius equals
    # the meshgrid sampling's bit for bit
    import hjkam.laxoleinik as lx
    model = _empty_like_pendulum(autonomous)
    args = [(0.0, 0.1, 0.0, 64), (0.3, 0.5, 2.5, 256), (0.7, 0.75, 11.0, 32)]
    got = [lx.velocity_radius(model, *a) for a in args]
    monkeypatch.setattr(lx, "_grad_sups", _grad_sups_meshgrid)
    want = [lx.velocity_radius(model, *a) for a in args]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["free", "quadratic", "pendulum", "multi", "forced"]),
       lip=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       tau=st.floats(0.0, 1.0), tau2=st.floats(0.0, 1.0), dt=st.floats(1e-3, 0.5),
       n=st.sampled_from([16, 64, 256]))
def test_velocity_radius_matches_per_call_sampling(free, pendulum, name, lip, tau, tau2,
                                                   dt, n):
    # the sups sampled once per model and slot give the radius of sampling
    # both sups on every call, bit for bit: after another slot's entry, and
    # then on a warm memo
    import hjkam.laxoleinik as lx
    from hjkam.hamiltonian import forced_model, mechanical_model, quadratic_model
    multi = [0.1, 0.5, 0.3, 0.2, -0.15]  # cosine and sine terms
    model = {"free": free, "quadratic": quadratic_model(2.0), "pendulum": pendulum,
             "multi": mechanical_model(multi), "forced": forced_model(multi, epsilon=0.3)}[name]
    want = [_velocity_radius_sampled(model, s, s + dt, lip, n) for s in (tau2, tau, tau)]
    lx._SUPS_CACHE.clear()
    got = [lx.velocity_radius(model, s, s + dt, lip, n) for s in (tau2, tau, tau)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_unit_band_sups_memo(pendulum, monkeypatch):
    # one entry per model and slot: forced models that differ only in eps
    # keep apart, the memo keeps within its bound, and clear_kernel_cache
    # empties it with the kernels
    import hjkam.laxoleinik as lx
    from hjkam.hamiltonian import forced_model
    lx.clear_kernel_cache()
    weak, strong = (forced_model([0.0, 0.3], epsilon=e) for e in (0.2, 0.3))
    radii = [lx.velocity_radius(m, 0.0, 0.25, 2.0, 64) for m in (weak, strong)]
    assert radii == [_velocity_radius_sampled(m, 0.0, 0.25, 2.0, 64) for m in (weak, strong)]
    assert radii[0] != radii[1] and len(lx._SUPS_CACHE) == 2
    lx.velocity_radius(pendulum, 0.3, 0.5, 2.0, 64)
    lx.velocity_radius(pendulum, 0.0, 0.1, 5.0, 64)  # autonomous: one slot
    assert len(lx._SUPS_CACHE) == 3
    monkeypatch.setattr(lx, "_CACHE_LIMIT", 4)
    slots = [(0.1 * k, 0.1 * k + 0.2) for k in range(6)]
    for tau, t in slots:
        lx.velocity_radius(weak, tau, t, 1.0, 64)
        assert len(lx._SUPS_CACHE) <= 4
    assert list(lx._SUPS_CACHE) == [(weak.cache_key(), s) for s in slots[-4:]]
    lx.clear_kernel_cache()
    assert not lx._SUPS_CACHE


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 8, 64]), data=st.data())
def test_lip_estimate_matches_roll(n, data):
    # adjacent differences plus the wrap pair equal the np.roll formula, bit for bit
    u = GridFunction(1, n, _draw_values(data, n, -5.0, 5.0))
    want = float(np.max(np.abs(np.roll(u.values, -1) - u.values)) * n)
    assert np.float64(u.lip_estimate).tobytes() == np.float64(want).tobytes()


def _target_major_by_formula(K):
    rows, W = K.shape
    D = (W - 1) // 2
    return np.array([[K[(j - dd) % rows, dd + D] for dd in range(-D, D + 1)]
                     for j in range(rows)])


@pytest.mark.parametrize("name", ["free", "pendulum"])
def test_target_major_companion(request, monkeypatch, name):
    # Kt[j, dd + D] = K[(j - dd) % rows, dd + D] after a first build, after
    # growth from D = 8 to 24 and on a fresh build; read-only; a warm hit
    # neither solves pairs nor rebuilds it
    import hjkam.laxoleinik as lx
    model = request.getfixturevalue(name)
    sig = SIGMA_FREE if name == "free" else SIGMA_PEND
    n, t = 16, 0.1
    key = lx._kernel_key(model, 0.0, t, n, sig)
    lx.clear_kernel_cache()
    small = lx.action_kernel(model, 0.0, t, n, 8, sigma_eff=sig)
    assert np.array_equal(lx._target_major(small), _target_major_by_formula(small))
    grown = lx.action_kernel(model, 0.0, t, n, 24, sigma_eff=sig)
    grown_t = lx._target_major(grown)
    assert np.array_equal(grown_t, _target_major_by_formula(grown))
    assert lx._KERNEL_CACHE[key] is grown  # the cache holds the source-major plane
    with pytest.raises(ValueError):
        grown_t[0, 0] = 1.0
    hit = lx.action_kernel(model, 0.0, t, n, 8, sigma_eff=sig)
    assert np.array_equal(lx._target_major(hit), _target_major_by_formula(hit))
    lx.clear_kernel_cache()
    fresh = lx.action_kernel(model, 0.0, t, n, 24, sigma_eff=sig)
    assert np.array_equal(lx._target_major(fresh), grown_t)

    def no_solve(*args):
        raise AssertionError("a warm apply solved pair actions")

    monkeypatch.setattr(lx, "_pair_actions", no_solve)
    u = GridFunction(1, n, 0.05 * np.cos(2 * np.pi * np.arange(n) / n))
    for op in (apply_T, apply_T_dual):
        op(model, u, 0.0, t, sigma_eff=sig)
    assert lx._KERNEL_CACHE[key] is fresh


def test_target_major_leaves_with_its_kernel(free, monkeypatch):
    # eviction at the cache limit and clear_kernel_cache free the kernel and
    # its companion together: nothing else keeps their array alive
    import weakref
    import hjkam.laxoleinik as lx
    monkeypatch.setattr(lx, "_CACHE_LIMIT", 2)
    lx.clear_kernel_cache()
    times = (0.1, 0.15, 0.2)
    keys = [lx._kernel_key(free, 0.0, t, 16, SIGMA_FREE) for t in times]
    planes = [weakref.ref(lx.action_kernel(free, 0.0, t, 16, 4, sigma_eff=SIGMA_FREE).base)
              for t in times]
    assert list(lx._KERNEL_CACHE) == keys[1:]
    assert [p() is None for p in planes] == [True, False, False]
    lx.clear_kernel_cache()
    assert not lx._KERNEL_CACHE and all(p() is None for p in planes)


def _grad_sups_linspace(model, times, band):
    # _grad_sups as it was before the momentum columns: linspace momenta and
    # the positions as broadcast views of the full grid, the jets zipped
    Q = np.broadcast_to((np.arange(64) / 64)[:, None, None], (64, 17, 1))
    P = np.broadcast_to(np.linspace(-band, band, 17)[:, None], Q.shape)
    Hq, Hp, _, _ = zip(*(model.jet(s, Q, P) for s in times))
    return max(float(np.abs(h).max()) for h in Hq), max(float(np.abs(h).max()) for h in Hp)


def _velocity_radius_sampled(model, tau, t, lip, n):
    # velocity_radius with both sups sampled by lx._grad_sups on every call.
    # Built-in families: G = sup|H_q| and a = sup|H_p| at |p| <= 1, and the
    # travel a times the integral of the momentum envelope min(lip + s G,
    # P_E) over [0, dt], capped at P_E = sqrt(lip^2 + G / a) only when
    # autonomous.  Custom models: dt sup|H_p| on the band lip + dt sup|H_q|
    import hjkam.laxoleinik as lx
    dt = t - tau
    times = [tau] if model.autonomous else np.linspace(tau, t, 5)
    gq = lx._grad_sups(model, times, lip)[0]
    if model.family == "custom":
        gp = lx._grad_sups(model, times, lip + dt * gq)[1]
        return dt * gp + 2.0 / n
    a = lx._grad_sups(model, times, 1.0)[1]
    travel = dt * lip + gq * dt * dt / 2
    if model.autonomous and gq > 0:
        cap = math.sqrt(lip * lip + gq / a)
        if dt > (cap - lip) / gq:
            travel = dt * cap - (cap - lip) ** 2 / (2 * gq)
    return a * travel + 2.0 / n


def _hessian_radius_written_out(model, dt, osc, n):
    # the a-priori radius of any model: the potential bounded by the Hessian
    # constant M
    return math.sqrt(2 * model.m * dt * (osc + 2 * model.M * dt + 1.0)) + 1.0 / n


def _search_radius_written_out(model, dt, osc, n):
    # H = a p^2 / 2 + (1 + eps sin 2 pi t) V(q), V = c0 + sum_k a_k cos 2 pi k q
    # + b_k sin 2 pi k q: params hold (a,) for the kinetic families, else
    # [c0, a1, b1, ...] and then eps when forced.  The argmin sits within
    # sqrt(2 a dt (osc u + dt (1 + |eps|) osc V)), osc V <= 2 sum (|a_k| + |b_k|),
    # and one cell of margin is added
    if model.family == "custom":
        return _hessian_radius_written_out(model, dt, osc, n)
    if model.family in ("free", "quadratic"):
        a, eps, modes = model.params[0], 0.0, ()
    elif model.family == "forced":
        a, eps, modes = 1.0, model.params[-1], model.params[1:-1]
    else:
        a, eps, modes = 1.0, 0.0, model.params[1:]
    osc_V = 2 * sum(abs(c) for c in modes)
    return math.sqrt(2 * a * dt * (osc + dt * (1 + abs(eps)) * osc_V)) + 1.0 / n


def _min_plus_sliding(model, u, tau, t, sigma_eff, dual):
    # _min_plus as it was before the strided window: sliding_window_view of
    # the extended operand, reversed by a slice for T; past the twist window
    # the Hessian-constant radius
    from numpy.lib.stride_tricks import sliding_window_view
    import hjkam.laxoleinik as lx
    n = u.n_per_dim
    past = t - tau > lx.resolve_sigma(model, sigma_eff) * (1 + 1e-12)
    radius = _hessian_radius_written_out if past else _search_radius_written_out
    R = min(radius(model, t - tau, u.osc(), n),
            _velocity_radius_sampled(model, tau, t, u.lip_estimate, n))
    D = lx._quantize(int(np.ceil(R * n)))
    for attempt in range(2):
        K = lx.action_kernel(model, tau, t, n, D, sigma_eff=sigma_eff)
        window = sliding_window_view(u.values.take(np.arange(-D, n + D), mode="wrap"),
                                     2 * D + 1)
        if dual:
            cand = window.copy()
            cand -= K
        else:
            cand = window[:, ::-1].copy()
            cand += lx._target_major(K)
        best = (np.argmax if dual else np.argmin)(cand, axis=1)
        if 0 < best.min() and best.max() < 2 * D:
            return GridFunction(1, n, cand[np.arange(n), best]), best - D
        D = lx._quantize(2 * D)
    raise lx.SearchRadiusExceeded(f"reference window still too narrow (D = {D})")


def _record_widths(monkeypatch):
    # the kernel half-widths the operators ask action_kernel for, in order
    import hjkam.laxoleinik as lx
    widths, kernel = [], lx.action_kernel

    def recorded(model, tau, t, n, D, sigma_eff=None):
        widths.append(D)
        return kernel(model, tau, t, n, D, sigma_eff=sigma_eff)

    monkeypatch.setattr(lx, "action_kernel", recorded)
    return widths


def _bytes_with_reference_apply(monkeypatch, solve):
    # the arrays ``solve`` returns, as bytes, and the kernel half-widths its
    # applies ask for: from this module, with the per-model sups sampled
    # afresh, and then with the reference sampling, radius and window
    # patched in; kernels come from one cache
    import hjkam.laxoleinik as lx
    widths = _record_widths(monkeypatch)
    lx._SUPS_CACHE.clear()
    got = [np.asarray(a).tobytes() for a in solve()] + [widths[:]]
    widths.clear()
    monkeypatch.setattr(lx, "_grad_sups", _grad_sups_linspace)
    monkeypatch.setattr(lx, "_min_plus", _min_plus_sliding)
    return got, [np.asarray(a).tobytes() for a in solve()] + [widths]


@pytest.mark.parametrize("name", ["pendulum", "two_well"])
def test_solvers_match_reference_apply_bits(request, monkeypatch, name):
    # the critical value and weak KAM solutions from three seeded trig
    # operands equal, byte for byte, those of the reference apply
    from hjkam.weakkam import critical_value, weak_kam_solve
    model = _two_well() if name == "two_well" else request.getfixturevalue(name)
    sig = 0.1 if name == "two_well" else SIGMA_PEND
    n = 64
    rng = np.random.default_rng(17)
    q = np.arange(n) / n
    seeds = [GridFunction(1, n, sum(0.3 / k * rng.normal()
                                    * np.cos(2 * np.pi * (k * q + rng.random()))
                                    for k in range(1, 5))) for _ in range(3)]

    def solve():
        crit = critical_value(model, grid_n=n, t_step=0.1, sigma_eff=sig)
        out = [crit.alpha, crit.u_raw.values, crit.history]
        for u0 in seeds:
            res = weak_kam_solve(model, grid_n=n, alpha=crit.alpha, t_step=0.1,
                                 sigma_eff=sig, u0=u0)
            out += [res.residual, res.u_raw.values, res.history]
        return out

    got, want = _bytes_with_reference_apply(monkeypatch, solve)
    assert got == want


def test_regularize_forced_matches_reference_apply_bits(forced, monkeypatch):
    # R^t on the time-forced model: three applies at their own slot times
    u = GridFunction.from_callable(lambda q: 0.2 * np.cos(2 * np.pi * q)
                                   + 0.1 * np.abs(q - 0.5), 64)

    def solve():
        return [regularize_R(forced, u, 0.3, 0.15, sigma_eff=SIGMA_PEND).values,
                regularize_R_dual(forced, u, 0.3, 0.15, sigma_eff=SIGMA_PEND).values]

    got, want = _bytes_with_reference_apply(monkeypatch, solve)
    assert got == want
