import warnings

import numpy as np
import pytest

from conftest import SIGMA_PEND
from hjkam.errors import ConfigError, TrajectoryEscape
from hjkam.flow import (_steps_for, certify_sigma, check_twist, integrate_flow, monodromy,
                        resolve_sigma, sigma_bound)
from hjkam.hamiltonian import custom_model


def test_free_straight_line(free):
    traj = integrate_flow(free, ([0.0], [1.0]), 0.0, 2.0, step=0.05)
    assert np.allclose(traj.terminal.q, 2.0, atol=1e-14)
    assert np.allclose(traj.terminal.p, 1.0, atol=1e-14)


def test_pendulum_energy_drift(pendulum):
    traj = integrate_flow(pendulum, ([0.3], [1.2]), 0.0, 10.0)
    assert traj.energy_drift() <= 1e-8


def test_round_trip(pendulum):
    fwd = integrate_flow(pendulum, ([0.2], [0.7]), 0.0, 1.3)
    back = integrate_flow(pendulum, fwd.terminal, 1.3, 0.0)
    assert abs(back.terminal.q[0] - 0.2) < 1e-8
    assert abs(back.terminal.p[0] - 0.7) < 1e-8


def test_monodromy_free(free):
    mono = monodromy(free, ([0.0], [1.0]), 0.0, 0.3)
    assert np.allclose(mono.dqQ, 1.0) and np.allclose(mono.dpQ, 0.3)
    assert np.allclose(mono.dqP, 0.0) and np.allclose(mono.dpP, 1.0)
    assert abs(mono.deviation - 0.3) < 1e-12
    assert mono.deviation <= 2 * free.M * 0.3


def test_monodromy_estimate_M(pendulum):
    M_emp = 4 * np.pi ** 2
    for t in (0.005, 0.01, 0.02):
        mono = monodromy(pendulum, ([0.3], [0.5]), 0.0, t)
        assert mono.deviation <= 2 * M_emp * t + 1e-6
        assert mono.deviation <= np.exp(M_emp * t) - 1 + 1e-6


def test_monodromy_vs_fd_jacobian(pendulum):
    # independent oracle: finite-difference Jacobian of the flow map
    x0 = np.array([0.37, 0.21])
    t = 0.05
    mono = monodromy(pendulum, (x0[:1], x0[1:]), 0.0, t)
    h = 1e-6
    J = np.empty((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        up = integrate_flow(pendulum, ((x0 + e)[:1], (x0 + e)[1:]), 0.0, t, step=1e-3)
        dn = integrate_flow(pendulum, ((x0 - e)[:1], (x0 - e)[1:]), 0.0, t, step=1e-3)
        J[0, k] = (up.terminal.q[0] - dn.terminal.q[0]) / (2 * h)
        J[1, k] = (up.terminal.p[0] - dn.terminal.p[0]) / (2 * h)
    assert np.max(np.abs(mono.matrix - J)) < 1e-6
    assert abs(np.linalg.det(mono.matrix) - 1.0) <= 1e-8


def test_symplecticity_random_orbits(pendulum):
    rng = np.random.default_rng(12)
    for _ in range(100):
        x0 = (rng.uniform(0, 1, 1), rng.uniform(-2, 2, 1))
        mono = monodromy(pendulum, x0, 0.0, 0.05)
        assert mono.symplectic_defect() <= 1e-7


def test_monodromy_diagnostics_closed_form():
    # |det M - 1| and the closed-form ||M - I||_2 agree with the matrix
    # products and the SVD they replace, on orbits of a multi-mode potential
    from hjkam.hamiltonian import mechanical_model
    model = mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15])
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rng = np.random.default_rng(5)
    for _ in range(12):
        x0 = (rng.uniform(0, 1, 1), rng.uniform(-2, 2, 1))
        mono = monodromy(model, x0, 0.0, rng.uniform(0.05, 1.0))
        m = mono.matrix
        svd = np.linalg.norm(m - np.eye(2), 2)
        assert abs(mono.deviation - svd) <= 4e-15 * svd
        assert abs(mono.symplectic_defect() - np.linalg.norm(m.T @ J @ m - J, 2)) <= 1e-13


def test_step_halving_order4(pendulum):
    x0 = ([0.3], [1.1])
    ref = integrate_flow(pendulum, x0, 0.0, 1.0, step=1e-4)
    errs = []
    for h in (0.02, 0.01, 0.005):
        tr = integrate_flow(pendulum, x0, 0.0, 1.0, step=h)
        errs.append(np.hypot(tr.terminal.q[0] - ref.terminal.q[0],
                             tr.terminal.p[0] - ref.terminal.p[0]))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 10 < r1 < 24 and 10 < r2 < 24


def test_sigma_bound_values(free, pendulum):
    assert sigma_bound(free) == 0.25
    assert abs(sigma_bound(pendulum) - 1.0 / (64 * np.pi ** 4)) < 1e-12


def test_twist_free_exact(free):
    margin = check_twist(free, [0.0], 0.25, n_samples=200, seed=0)
    assert abs(margin - 0.125) < 1e-9


def test_twist_pendulum_at_formula_sigma(pendulum):
    margin = check_twist(pendulum, [0.0], sigma_bound(pendulum), n_samples=300)
    assert margin >= 0.0


def test_certify_pendulum_window(pendulum):
    # the empirical window used throughout the suite: far past the formula
    for q in (0.0, 0.25, 0.5):
        window = certify_sigma(pendulum, SIGMA_PEND, q=q, n_samples=1000)
        assert window.margin >= 0.0
    assert SIGMA_PEND > 100 * sigma_bound(pendulum)


def test_twist_scan_uses_the_uniform_step_rule(pendulum):
    # 0.07 / 0.005 rounds to just above 14: at its default step the scan
    # takes 14 steps, as every other integrator call does, not 15; a step of
    # 0.0052 takes 14 under either rounding
    assert _steps_for(0.07, 0.005) == _steps_for(0.07, 0.0052) == 14
    assert check_twist(pendulum, [0.0], 0.07) == check_twist(pendulum, [0.0], 0.07,
                                                              step=0.0052)


@pytest.mark.parametrize("span", [np.inf, -np.inf, np.nan])
def test_non_finite_span_is_config_error(span):
    with pytest.raises(ConfigError, match="span"):
        _steps_for(span)


@pytest.mark.parametrize("sigma", [0.0, -0.2, np.inf, np.nan])
def test_window_not_finite_and_positive_is_config_error(pendulum, sigma):
    with pytest.raises(ConfigError, match="twist window"):
        resolve_sigma(pendulum, sigma)
    with pytest.raises(ConfigError, match="twist window"):
        certify_sigma(pendulum, sigma)


def _runaway():
    # the quartic runaway: orbits from |q| near 2 blow up within t = 3
    return custom_model(lambda t, q, p: 0.5 * np.sum(p * p, axis=-1)
                        - 25.0 * np.sum(q ** 4, axis=-1), m=1.0, M=1.0)


def test_trajectory_escape():
    with pytest.raises(TrajectoryEscape) as info:
        integrate_flow(_runaway(), ([1.0], [1.0]), 0.0, 10.0, step=1e-3)
    assert info.value.exit_time is not None


def test_default_window_halves_a_failed_candidate():
    # a pendulum whose hessian under-reports (M_emp = 1) gets the largest
    # candidate, 1.0, which fails the twist scan; the window is halved until
    # a scan certifies it
    from hjkam.flow import default_sigma_eff
    tp = 2 * np.pi
    model = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(tp * q[..., 0]),
                         m=1, M=tp ** 2, grad=lambda t, q, p: (-tp * np.sin(tp * q), p),
                         hessian=lambda t, q, p: (0.0, 0.0, 1.0), periodic=True)
    assert check_twist(model, 0.0, 1.0) < 0
    window = default_sigma_eff(model)
    assert window.t < 1.0 and np.log2(window.t) == round(np.log2(window.t))
    assert window.margin >= 0
    assert certify_sigma(model, window.t).margin == window.margin


def test_monodromy_escape_is_typed_and_silent():
    # the orbit overflows to inf and NaN; monodromy raises TrajectoryEscape
    # and no floating-point warning escapes on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrajectoryEscape):
            monodromy(_runaway(), ([1.9], [0.0]), 0.0, 0.5)
    assert not caught


def test_trajectory_escape_on_nan():
    # a vector field that turns NaN past q = 0.5 escapes there; the box
    # test alone (|q|, |p| > OVERFLOW_GUARD) never sees a NaN
    def grad(t, q, p):
        return np.where(q > 0.5, np.nan, 0.0), p

    model = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1), m=1, M=1, grad=grad,
                         hessian=lambda t, q, p: (0.0, 0.0, 1.0))
    with pytest.raises(TrajectoryEscape) as info:
        integrate_flow(model, ([0.0], [1.0]), 0.0, 2.0, step=0.01)
    assert 0.5 < info.value.exit_time < 0.6


def test_escaped_rows():
    from hjkam.flow import OVERFLOW_GUARD, _escaped
    Q = np.array([[0.0], [OVERFLOW_GUARD], [np.inf], [np.nan], [0.0], [-2 * OVERFLOW_GUARD]])
    P = np.array([[1.0], [-OVERFLOW_GUARD], [0.0], [0.0], [np.nan], [0.0]])
    assert _escaped(Q, P).tolist() == [False, False, True, True, True, True]
    assert not _escaped(Q[0], P[0]) and _escaped(Q[3], P[3])


def test_escaping_row_leaves_its_batch_alone():
    # rows that run to inf or NaN do not touch the others' bits
    from hjkam.flow import _escaped, integrate_batch
    model = _runaway()
    Q0 = np.linspace(-2.0, 2.0, 9)[:, None]
    P0 = np.zeros_like(Q0)
    with np.errstate(over="ignore", invalid="ignore"):
        Q, P, _, W = integrate_batch(model, 0.0, 3.0, Q0, P0, 300, want_action=True)
        solo = [integrate_batch(model, 0.0, 3.0, Q0[i], P0[i], 300, want_action=True)
                for i in range(len(Q0))]
    out = _escaped(Q, P)
    assert out.any() and not out.all()
    for i in np.flatnonzero(~out):
        assert (Q[i].tobytes(), P[i].tobytes(), W[i].tobytes()) == tuple(
            np.asarray(a).tobytes() for a in (solo[i][0], solo[i][1], solo[i][3]))


def test_trajectory_csv(tmp_path, pendulum):
    traj = integrate_flow(pendulum, ([0.1], [0.5]), 0.0, 0.2, step=0.01)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,q_0,p_0,H"
    assert len(lines) == len(traj.times) + 1


@pytest.mark.parametrize("want_monodromy, want_action, per_stage",
                         [(False, False, (0, 1, 0)), (False, True, (1, 1, 0)),
                          (True, True, (1, 1, 1))],
                         ids=["state", "action", "monodromy-action"])
def test_stage_evaluates_grad_once_with_action(want_monodromy, want_action, per_stage):
    # a custom model's jet per RK4 stage: grad once for the vector field,
    # value only for the action rate, hessian only for the monodromy
    from hjkam.flow import integrate_batch
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
        return z, z, np.ones_like(z)

    model = custom_model(value, m=1, M=1, grad=grad, hessian=hessian, periodic=True)
    Q, P, Mono, W = integrate_batch(model, 0.0, 1.0, np.zeros((3, 1)), np.ones((3, 1)), 10,
                                    want_monodromy=want_monodromy, want_action=want_action)
    assert tuple(calls.values()) == tuple(4 * 10 * c for c in per_stage)
    assert np.allclose(Q[:, 0], 1.0)
    assert (W is not None) == want_action and (Mono is not None) == want_monodromy
    if want_action:
        assert np.allclose(W, 0.5)
    if want_monodromy:
        assert np.allclose(Mono, [[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
def test_step_must_be_finite_and_positive(pendulum, step, tmp_path):
    with pytest.raises(ConfigError):
        integrate_flow(pendulum, ([0.3], [1.2]), 0.0, 2.0, step=step)
    with pytest.raises(ConfigError):
        monodromy(pendulum, ([0.3], [1.2]), 0.0, 2.0, step=step)
    with pytest.raises(ConfigError):
        check_twist(pendulum, 0.0, 0.2, step=step)
    from hjkam.cli import main
    assert main(["flow", "--model", "pendulum", "--q0", "0.3", "--p0", "1.2", "--t", "2",
                 f"--step={step}", "--out", str(tmp_path)]) == 1


def _reference_rk4(model, tau, t, Q0, P0, n_steps, want_monodromy, want_action):
    """Per-component RK4: q, p, the monodromy and the action as separate arrays.

    This is the arithmetic the packed kernel must reproduce bit for bit.
    """
    def stage(s, Q, P, Mono):
        Hq, Hp, dW, blocks = model.jet(s, Q, P, action=want_action, hessian=Mono is not None)
        dM = None
        if Mono is not None:
            hqq, hqp, hpp = blocks
            dM = np.empty_like(Mono)
            dM[0] = hqp * Mono[0] + hpp * Mono[1]
            dM[1] = -hqq * Mono[0] - hqp * Mono[1]
        return Hp, -Hq, dM, dW

    Q = np.array(Q0, float, copy=True)
    P = np.array(P0, float, copy=True)
    shape = Q.shape[:-1]
    Mono = None
    if want_monodromy:
        eye = np.eye(2).reshape((2, 2) + (1,) * len(shape))
        Mono = np.broadcast_to(eye, (2, 2) + shape).copy()
    W = np.zeros(shape) if want_action else None
    h = (t - tau) / n_steps
    s = tau
    for _ in range(n_steps):
        k1 = stage(s, Q, P, Mono)
        k2 = stage(s + h / 2, Q + h / 2 * k1[0], P + h / 2 * k1[1],
                   None if Mono is None else Mono + h / 2 * k1[2])
        k3 = stage(s + h / 2, Q + h / 2 * k2[0], P + h / 2 * k2[1],
                   None if Mono is None else Mono + h / 2 * k2[2])
        k4 = stage(s + h, Q + h * k3[0], P + h * k3[1],
                   None if Mono is None else Mono + h * k3[2])
        Q += (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) * (h / 6)
        P += (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) * (h / 6)
        if Mono is not None:
            Mono += (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) * (h / 6)
        if W is not None:
            W = W + (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) * (h / 6)
        s += h
    if Mono is not None:
        Mono = np.moveaxis(Mono, (0, 1), (-2, -1))
    return Q, P, Mono, W


def _fd_pendulum():
    # value only: finite-difference gradient and Hessian blocks
    return custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(2 * np.pi * q[..., 0]),
                        m=1, M=4 * np.pi ** 2, periodic=True)


@pytest.mark.parametrize("model_name", ["pendulum", "forced", "multi", "fd"])
@pytest.mark.parametrize("want_monodromy, want_action",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_packed_kernel_matches_reference_bits(model_name, want_monodromy, want_action,
                                              pendulum, forced):
    from hjkam.flow import integrate_batch
    from hjkam.hamiltonian import mechanical_model
    model = {"pendulum": pendulum, "forced": forced, "fd": _fd_pendulum(),
             "multi": mechanical_model([0.1, 0.5, 0.2, 0.3, -0.1])}[model_name]
    rng = np.random.default_rng(7)
    for shape in [(7, 1), (3, 5, 1), (1,)]:
        Q0 = rng.uniform(-1.0, 1.0, shape)
        P0 = rng.uniform(-3.0, 3.0, shape)
        new = integrate_batch(model, 0.1, 0.9, Q0, P0, 13, want_monodromy, want_action)
        ref = _reference_rk4(model, 0.1, 0.9, Q0, P0, 13, want_monodromy, want_action)
        assert len(new) == len(ref) == 4
        for a, b in zip(new, ref):
            assert (a is None) == (b is None)
            if a is not None:
                a, b = np.asarray(a), np.asarray(b)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
