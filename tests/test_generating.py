import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_FREE, SIGMA_PEND
from hjkam.action import minimal_action
from hjkam.errors import ConfigError, SigmaExceeded, SolverDiverged
from hjkam.flow import TARGET_STEP, _steps_for, integrate_batch, integrate_flow
from hjkam.generating import (KERNEL_STEP, generating_S, generating_batch,
                              second_diff_probe, shoot_rho0)
from hjkam.hamiltonian import mechanical_model


def test_hopf_lax_free(free):
    s = generating_S(free, 0.0, 1.0, [0.0], [1.0], sigma_eff=1.5)
    assert abs(s.S - 0.5) < 1e-12
    assert abs(s.rho0[0] - 1.0) < 1e-12 and abs(s.rho1[0] - 1.0) < 1e-12


def test_hopf_lax_quadratic(quad2):
    s = generating_S(quad2, 0.0, 1.0, [0.0], [1.0], sigma_eff=1.5)
    assert abs(s.S - 0.25) < 1e-12


def test_shoot_examples(free, pendulum):
    rho = shoot_rho0(free, 0.0, 1.0, [0.0], [1.0], sigma_eff=1.5)
    assert abs(rho[0] - 1.0) < 1e-12
    rho = shoot_rho0(free, 0.0, 1.0, [0.3], [0.3], sigma_eff=1.5)
    assert abs(rho[0]) < 1e-12
    # dense scan oracle for the near-free pendulum shot
    t = 1e-4
    ps = np.linspace(0.5, 1.5, 20001)
    from hjkam.flow import integrate_batch
    Q = integrate_batch(pendulum, 0.0, t, np.zeros((len(ps), 1)), ps[:, None], 1)[0]
    p_scan = ps[np.argmin(np.abs(Q[:, 0] - 1e-4))]
    rho = shoot_rho0(pendulum, 0.0, t, [0.0], [1e-4], sigma_eff=SIGMA_PEND)
    assert abs(rho[0] - 1.0) < 1e-3
    assert abs(rho[0] - p_scan) < 1e-4


def test_sigma_exceeded(pendulum):
    with pytest.raises(SigmaExceeded):
        shoot_rho0(pendulum, 0.0, 0.5, [0.0], [0.2], sigma_eff=SIGMA_PEND)
    with pytest.raises(SigmaExceeded):
        generating_S(pendulum, 0.3, 0.2, [0.0], [0.1], sigma_eff=SIGMA_PEND)


def test_constant_shift(pendulum, shifted_pendulum):
    # H + c shifts the action by -c (t - tau)
    a = generating_S(pendulum, 0.0, 0.1, [0.2], [0.35], sigma_eff=SIGMA_PEND)
    b = generating_S(shifted_pendulum, 0.0, 0.1, [0.2], [0.35], sigma_eff=SIGMA_PEND)
    assert abs((b.S - a.S) + 0.5 * 0.1) < 1e-10


def test_monotone_comparison(pendulum, shifted_pendulum):
    rng = np.random.default_rng(2)
    for _ in range(20):
        q0 = rng.uniform(0, 1, 1)
        q1 = q0 + rng.uniform(-0.4, 0.4, 1)
        t = rng.uniform(0.02, SIGMA_PEND)
        s0 = generating_S(pendulum, 0.0, t, q0, q1, sigma_eff=SIGMA_PEND)
        s1 = generating_S(shifted_pendulum, 0.0, t, q0, q1, sigma_eff=SIGMA_PEND)
        assert s0.S >= s1.S - 1e-10


@pytest.mark.parametrize("case", ["free", "pendulum", "forced"])
def test_derivative_identities(case, free, pendulum, forced):
    model, sigma = {"free": (free, SIGMA_FREE), "pendulum": (pendulum, SIGMA_PEND),
                    "forced": (forced, SIGMA_PEND)}[case]
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(50):
        tau = 0.0 if model.autonomous else rng.uniform(0, 1)
        t = tau + rng.uniform(0.02, sigma)
        q0 = rng.uniform(-1, 1, (1,))
        q1 = q0 + rng.uniform(-0.4, 0.4, (1,))
        S, r0, r1, _, _ = generating_batch(model, tau, t, q0, q1, sigma_eff=sigma)
        fd1 = (generating_batch(model, tau, t, q0, q1 + h, sigma_eff=sigma)[0]
               - generating_batch(model, tau, t, q0, q1 - h, sigma_eff=sigma)[0]) / (2 * h)
        fd0 = (generating_batch(model, tau, t, q0 + h, q1, sigma_eff=sigma)[0]
               - generating_batch(model, tau, t, q0 - h, q1, sigma_eff=sigma)[0]) / (2 * h)
        assert abs(np.ravel(fd1)[0] - np.ravel(r1)[0]) < 1e-5
        assert abs(np.ravel(fd0)[0] + np.ravel(r0)[0]) < 1e-5


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["free", "pendulum", "forced"]),
       tau=st.floats(0.0, 1.0), frac=st.floats(0.1, 1.0),
       q0=st.floats(-1.0, 1.0), dq=st.floats(-0.4, 0.4))
def test_derivative_identities_property(free, pendulum, forced, case, tau, frac, q0, dq):
    # dS/dq1 = rho1 and dS/dq0 = -rho0 on random pairs inside the twist window
    model, sigma = {"free": (free, SIGMA_FREE), "pendulum": (pendulum, SIGMA_PEND),
                    "forced": (forced, SIGMA_PEND)}[case]
    tau = tau if not model.autonomous else 0.0
    t, q0, q1, h = tau + frac * sigma, np.array([q0]), np.array([q0 + dq]), 1e-6

    def S(a, b):
        return generating_batch(model, tau, t, a, b, sigma_eff=sigma)[0]

    _, r0, r1, _, _ = generating_batch(model, tau, t, q0, q1, sigma_eff=sigma)
    fd1 = (S(q0, q1 + h) - S(q0, q1 - h)) / (2 * h)
    fd0 = (S(q0 + h, q1) - S(q0 - h, q1)) / (2 * h)
    assert abs(np.ravel(fd1)[0] - np.ravel(r1)[0]) < 1e-5
    assert abs(np.ravel(fd0)[0] + np.ravel(r0)[0]) < 1e-5


def test_time_derivative_is_minus_H(pendulum):
    t, q0, q1 = 0.15, np.array([0.2]), np.array([0.55])
    s = generating_S(pendulum, 0.0, t, q0, q1, sigma_eff=SIGMA_PEND)
    h = 1e-4
    dts = (generating_S(pendulum, 0.0, t + h, q0, q1, sigma_eff=SIGMA_PEND).S
           - generating_S(pendulum, 0.0, t - h, q0, q1, sigma_eff=SIGMA_PEND).S) / (2 * h)
    H_end = float(pendulum.value(t, q1, s.rho1))
    assert abs(dts + H_end) < 1e-4


def test_flow_generating_consistency(pendulum):
    # the flow maps (q0, -d0 S) to (q1, d1 S)
    rng = np.random.default_rng(3)
    for _ in range(10):
        q0 = rng.uniform(0, 1, (1,))
        q1 = q0 + rng.uniform(-0.3, 0.3, (1,))
        t = rng.uniform(0.05, SIGMA_PEND)
        s = generating_S(pendulum, 0.0, t, q0, q1, sigma_eff=SIGMA_PEND)
        traj = integrate_flow(pendulum, (q0, s.rho0), 0.0, t, step=1e-3)
        assert abs(traj.terminal.q[0] - q1[0]) < 1e-7
        assert abs(traj.terminal.p[0] - s.rho1[0]) < 1e-7


def test_second_diff_free(free):
    d00, d11, d01 = second_diff_probe(free, 0.0, 0.25, [0.1], [0.6])
    assert abs(d00 - 4.0) < 1e-6
    assert abs(d11 - 4.0) < 1e-6
    assert abs(d01 + 4.0) < 1e-6


def test_second_diff_pendulum_lower_bound(pendulum):
    # paper constant m / (16 M^2 t), relaxed 10% for the discretization
    t = 1e-4
    m, M = 1.0, 4 * np.pi ** 2
    _, d11, _ = second_diff_probe(pendulum, 0.0, t, [0.2], [0.2 + 5e-5],
                                  sigma_eff=SIGMA_PEND)
    assert d11 >= 0.9 * m / (16 * M ** 2 * t)


def test_triangle_equality_scan(pendulum):
    # S_0^{t2}(q0, q2) = min_q [S_0^{t1}(q0, q) + S_{t1}^{t2}(q, q2)]
    t1, t2 = 0.08, 0.17
    q0, q2 = np.array([0.2]), np.array([0.5])
    lhs = generating_S(pendulum, 0.0, t2, q0, q2, sigma_eff=SIGMA_PEND)
    grid = np.linspace(0.0, 0.8, 1601)
    S1 = generating_batch(pendulum, 0.0, t1, np.broadcast_to(q0, (len(grid), 1)),
                          grid[:, None], sigma_eff=SIGMA_PEND)[0]
    S2 = generating_batch(pendulum, t1, t2, grid[:, None],
                          np.broadcast_to(q2, (len(grid), 1)), sigma_eff=SIGMA_PEND)[0]
    rhs = S1 + S2
    assert np.min(rhs) >= lhs.S - 1e-9
    assert abs(np.min(rhs) - lhs.S) < 1e-6
    # equality is attained at the through-orbit's interior point
    orbit = integrate_flow(pendulum, (q0, lhs.rho0), 0.0, t1, step=1e-3)
    q_mid = grid[int(np.argmin(rhs))]
    assert abs(q_mid - orbit.terminal.q[0]) < 2e-3


def test_line_search_integrates_only_backtracking_rows(pendulum, monkeypatch):
    # converged rows in the batch are never integrated by the line search,
    # so the hard rows cost the same line-search rows, and give the same
    # bits, alone; a chord Jacobian 0.6 times too small makes them overshoot
    # and backtrack
    import hjkam.generating as g
    t = 0.1
    n_steps = g._steps_for(t)
    rng = np.random.default_rng(5)
    Q0 = rng.uniform(0, 1, (40, 1))
    Q1 = Q0 + rng.uniform(-0.3, 0.3, (40, 1))
    tol = g.shoot_tol(Q0, Q1)
    p_conv = shoot_rho0(pendulum, 0.0, t, Q0, Q1, sigma_eff=SIGMA_PEND)
    p_start = p_conv.copy()
    p_start[20:] += 3.0
    jacobian, real = g._jacobian, g.integrate_batch
    rows = []

    def small_chord(*args):
        Q, J = jacobian(*args)
        return Q, 0.6 * J

    def counted(model, tau, t, Q0, P0, n_steps, want_monodromy=False, **kw):
        if not want_monodromy:
            rows.append(len(Q0))
        return real(model, tau, t, Q0, P0, n_steps, want_monodromy=want_monodromy, **kw)

    monkeypatch.setattr(g, "_jacobian", small_chord)
    monkeypatch.setattr(g, "integrate_batch", counted)
    p_mixed, res_mixed = g._newton_shoot(pendulum, 0.0, t, Q0, Q1, p_start, n_steps, tol)
    mixed = rows.copy()
    rows.clear()
    p_hard, res_hard = g._newton_shoot(pendulum, 0.0, t, Q0[20:], Q1[20:], p_start[20:],
                                       n_steps, tol[20:])
    assert mixed == rows and sum(mixed) > 0
    assert np.array_equal(p_mixed[20:], p_hard) and np.array_equal(res_mixed[20:], res_hard)
    assert np.array_equal(p_mixed[:20], p_conv[:20])


def test_rows_that_never_land_raise_solver_diverged(pendulum, monkeypatch):
    # the far rows' Newton passes stop after MAX_SHOOT_ITER; here every other
    # row's pass is made to land a fixed distance off its target, whatever
    # its momentum, and the error carries the worst of those landing errors
    import hjkam.generating as g
    rng = np.random.default_rng(8)
    Q0 = rng.uniform(0, 1, (12, 1))
    Q1 = Q0 + rng.uniform(-0.4, 0.4, (12, 1))
    off = np.where(np.arange(12) % 2 == 1, 1e-6 * np.arange(1, 13), 0.0)[:, None]
    real = g.integrate_batch
    passes = []

    def never_land(model, tau, t, Q0_, P0, n_steps, want_monodromy=False, want_action=False):
        Q, *rest = real(model, tau, t, Q0_, P0, n_steps, want_monodromy, want_action)
        if want_action:
            rows = [int(np.flatnonzero(Q0[:, 0] == q)[0]) for q in Q0_[:, 0]]
            Q = np.where(off[rows] > 0, Q1[rows] - off[rows], Q)
            passes.append(len(rows))
        return (Q, *rest)

    monkeypatch.setattr(g, "integrate_batch", never_land)
    with pytest.raises(SolverDiverged) as err:
        generating_batch(pendulum, 0.0, 0.15, Q0, Q1, sigma_eff=SIGMA_PEND)
    assert len(passes) == g.MAX_SHOOT_ITER + 1 and passes[0] == 12 and passes[-1] == 6
    assert err.value.residual == np.max(np.linalg.norm(Q1 - (Q1 - off), axis=-1))


@pytest.mark.parametrize("hard", ["backtracking", "far-rows"])
def test_per_row_times_equal_one_call_per_slot(forced, monkeypatch, hard):
    # rows over four time slots of the forced model in one call give the bits
    # of one call per slot, and take the same rows of work, also where rows
    # backtrack (a chord Jacobian 0.6 times too small and starts 3 off, as in
    # test_line_search_integrates_only_backtracking_rows) or land too far
    # off for the first-order correction and take Newton passes (a pre-solve
    # stopped 1e4 times farther out than the landing slack)
    import hjkam.generating as g
    B, n, tau, dt = 6, 4, 0.1, 0.15
    rng = np.random.default_rng(21)
    Q0 = rng.uniform(0, 1, (B, n, 1))
    Q1 = Q0 + rng.uniform(-0.3, 0.3, (B, n, 1))
    ta, tb = tau + np.arange(n) * dt, tau + np.arange(1, n + 1) * dt
    p_init = None
    if hard == "backtracking":
        jacobian = g._jacobian

        def small_chord(*args):
            Q, J = jacobian(*args)
            return Q, 0.6 * J

        monkeypatch.setattr(g, "_jacobian", small_chord)
        p_init = (Q1 - Q0) / dt
        p_init[B // 2:] += 3.0
    else:
        monkeypatch.setattr(g, "PRESOLVE_SLACK", 1e4 * g.LANDING_SLACK)
    real, rows = g.integrate_batch, []

    def counted(model, tau, t, Q0, P0, n_steps, want_monodromy=False, want_action=False):
        rows.append((want_monodromy, want_action, len(Q0)))
        return real(model, tau, t, Q0, P0, n_steps, want_monodromy, want_action)

    def work():
        per_kind = {}
        for *kind, k in rows:
            per_kind[tuple(kind)] = per_kind.get(tuple(kind), 0) + k
        rows.clear()
        return per_kind

    monkeypatch.setattr(g, "integrate_batch", counted)
    flat = lambda x: None if x is None else x.reshape(B * n, 1)
    whole = generating_batch(forced, np.tile(ta, B), np.tile(tb, B), flat(Q0), flat(Q1),
                             sigma_eff=SIGMA_PEND, p_init=flat(p_init))
    whole_work = work()
    for i in range(n):
        slot = generating_batch(forced, ta[i], tb[i], Q0[:, i], Q1[:, i], sigma_eff=SIGMA_PEND,
                                p_init=None if p_init is None else p_init[:, i])
        for a, b in zip(whole, slot):
            a = a.reshape((B, n) + a.shape[1:])[:, i]
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert work() == whole_work
    if hard == "far-rows":   # every row's first pass with action, then the far rows'
        assert whole_work[(True, True)] > B * n


def test_shoot_rho0_lands_on_the_production_grid(pendulum):
    # shoot_rho0 is rho0 of generating_batch, corrected for the landing
    # error: its orbit lands far inside the shooting tolerance
    rng = np.random.default_rng(12)
    Q0 = rng.uniform(0, 1, (200, 1))
    Q1 = Q0 + rng.uniform(-0.4, 0.4, (200, 1))
    rho0 = shoot_rho0(pendulum, 0.0, 0.1, Q0, Q1, sigma_eff=SIGMA_PEND)
    Q = integrate_batch(pendulum, 0.0, 0.1, Q0, rho0, _steps_for(0.1))[0]
    assert np.max(np.abs(Q - Q1)) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda m: shoot_rho0(m, 0.0, 0.1, [np.nan], [0.3], sigma_eff=SIGMA_PEND),
    lambda m: generating_S(m, 0.0, 0.1, [0.1], [np.inf], sigma_eff=SIGMA_PEND),
    lambda m: minimal_action(m, 0.0, 2.0, [0.1], [np.nan], sigma_eff=SIGMA_PEND),
], ids=["shoot_rho0", "generating_S", "minimal_action"])
def test_non_finite_endpoints_are_refused(pendulum, call):
    with pytest.raises(ConfigError):
        call(pendulum)


def _tight_reference(model, t, Q0, Q1, step):
    # full Newton on the landing from the straight-line momentum, with action
    # and monodromy at every iterate, on the grid of the solve under test
    n_steps = _steps_for(t, step)
    p = (Q1 - Q0) / t
    for _ in range(30):
        Q, P, Mono, W = integrate_batch(model, 0.0, t, Q0, p, n_steps,
                                        want_monodromy=True, want_action=True)
        e = Q1 - Q
        if np.max(np.abs(e)) < 1e-14:
            return W, p, P
        p = p + e / Mono[..., 0, 1:]
    raise AssertionError(f"reference Newton stopped at |e| = {np.max(np.abs(e)):.1e}")


@pytest.mark.parametrize("step", [KERNEL_STEP, TARGET_STEP])
@pytest.mark.parametrize("name", ["pendulum", "multi"])
def test_landing_correction_matches_tight_reference(request, monkeypatch, name, step):
    # a shot lands up to 100 shooting tolerances off its target; the values
    # corrected to first order in that landing error are those of the exact
    # orbit of the same discretization, to 1e-12.  The pre-solve stops at 10
    # tolerances; with 100 more rows at |dq| up to 1.4, rows land beyond the
    # slack and take the far rows' Newton pass
    import hjkam.generating as g
    if name == "multi":
        model, sigma = mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15]), 0.15
    else:
        model, sigma = request.getfixturevalue(name), SIGMA_PEND
    rng = np.random.default_rng(31)
    Q0 = rng.uniform(0, 1, (200, 1))
    Q1 = Q0 + rng.uniform(-0.4, 0.4, (200, 1))
    wide = rng.uniform(0, 1, (100, 1))
    Q0, Q1 = np.vstack([Q0, wide]), np.vstack([Q1, wide + rng.uniform(-1.4, 1.4, (100, 1))])
    far, integrate = [], g.integrate_batch

    def counted(model, tau, t, Q0_, P0, n_steps, want_monodromy=False, want_action=False):
        if want_action and len(Q0_) < len(Q0):
            far.append(len(Q0_))
        return integrate(model, tau, t, Q0_, P0, n_steps, want_monodromy, want_action)

    monkeypatch.setattr(g, "integrate_batch", counted)
    S, r0, r1, res, _ = generating_batch(model, 0.0, 0.1, Q0, Q1, sigma_eff=sigma,
                                         step_target=step)
    monkeypatch.undo()
    assert far
    W, p, P = _tight_reference(model, 0.1, Q0, Q1, step)
    assert np.max(np.abs(S - W)) <= 1e-12
    assert np.max(np.abs(r0 - p)) <= 1e-12
    assert np.max(np.abs(r1 - P)) <= 1e-12


@pytest.mark.parametrize("slack", [None, 1])
def test_far_rows_do_not_depend_on_their_batch(monkeypatch, slack):
    # rows that land beyond LANDING_SLACK tolerances after the coarse
    # pre-solve (here the wide displacements, |dq| >= 1 at t = 0.05) take a
    # Newton step and one more pass as a sub-batch; with a slack of one
    # tolerance most rows take the step, and every row is driven within one
    # tolerance.  Every row equals its one-row call, and the values do not
    # depend on the route, to 1e-12
    import hjkam.generating as g
    model = mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15])
    rng = np.random.default_rng(4)
    Q0 = rng.uniform(-1, 1, (24, 1))
    wide = np.arange(24) % 2 == 1
    Q1 = Q0 + np.where(wide[:, None], rng.uniform(1.0, 1.5, (24, 1)),
                       rng.uniform(-0.1, 0.1, (24, 1)))
    ref = generating_batch(model, 0.0, 0.05, Q0, Q1, sigma_eff=0.05)
    integrate = g.integrate_batch
    passes = []

    def counted(model, tau, t, Q0_, P0, n_steps, want_monodromy=False, want_action=False):
        if want_action:
            passes.append(Q0_.copy())
        return integrate(model, tau, t, Q0_, P0, n_steps, want_monodromy, want_action)

    monkeypatch.setattr(g, "integrate_batch", counted)
    if slack is not None:
        monkeypatch.setattr(g, "LANDING_SLACK", slack)
    batch = generating_batch(model, 0.0, 0.05, Q0, Q1, sigma_eff=0.05)
    assert len(passes) == 2 and len(passes[0]) == 24
    if slack is None:
        assert len(passes[1]) > 0 and np.isin(passes[1], Q0[wide]).all()
    else:
        assert len(passes[1]) > 12
        assert np.all(batch[3] <= g.shoot_tol(Q0, Q1))
    for a, b in zip(batch[:3], ref[:3]):
        assert np.max(np.abs(a - b)) <= 1e-12
    for i in range(24):
        one = generating_batch(model, 0.0, 0.05, Q0[i:i + 1], Q1[i:i + 1], sigma_eff=0.05)
        for a, b in zip(batch, one):
            assert a[i:i + 1].tobytes() == b.tobytes()
