import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_FREE, SIGMA_PEND
from hjkam.action import (TOL_CRIT_BASE, action_bounds, broken_action_value,
                          lagrangian_action, minimal_action, minimal_action_batch,
                          reconstruct_trajectory, tonelli_oracle, triangle_check,
                          waypoint_curves)
from hjkam.errors import ConfigError, MultistartExhausted, SigmaExceeded
from hjkam.generating import KERNEL_STEP, generating_S
from hjkam.hamiltonian import forced_model, free_model, mechanical_model, pendulum_model


def test_broken_value_examples(free, pendulum):
    # n = 1 chain equals the generating value exactly
    s = generating_S(pendulum, 0.0, 0.1, [0.1], [0.3], sigma_eff=SIGMA_PEND)
    v = broken_action_value(pendulum, 0.0, 0.1, [0.1], [0.3], np.zeros((0, 1)),
                            sigma_eff=SIGMA_PEND)
    assert abs(v - s.S) < 1e-12
    assert abs(broken_action_value(free, 0, 2.0, [0.0], [2.0], [[1.0]],
                                   sigma_eff=1.1) - 1.0) < 1e-12
    assert abs(broken_action_value(free, 0, 2.0, [0.0], [2.0], [[0.0]],
                                   sigma_eff=1.1) - 2.0) < 1e-12


def test_A_equals_S_short_time(pendulum):
    A, path = minimal_action(pendulum, 0.0, 0.15, [0.1], [0.4], sigma_eff=SIGMA_PEND)
    S = generating_S(pendulum, 0.0, 0.15, [0.1], [0.4], sigma_eff=SIGMA_PEND).S
    assert abs(A - S) <= 1e-9


def test_free_long_horizon(free):
    A, path = minimal_action(free, 0.0, 2.0, [0.0], [2.0], sigma_eff=SIGMA_FREE)
    assert abs(A - 1.0) < 1e-9
    T = tonelli_oracle(free, 0.0, 2.0, [0.0], [2.0], n_segments=200, restarts=1)
    assert abs(T - 1.0) < 1e-6


def test_first_order_condition_and_bounds(pendulum):
    A, path = minimal_action(pendulum, 0.0, 1.0, [0.3], [0.6], sigma_eff=SIGMA_PEND)
    scale = 1.0 + np.max(np.abs(np.concatenate([path.p_minus, path.p_plus])))
    assert np.max(path.momentum_jumps, initial=0.0) <= 1e-6 * scale
    lo, hi = action_bounds(pendulum, 0.0, 1.0, [0.3], [0.6])
    assert lo <= A <= hi


def test_n_independence(pendulum):
    A1, path = minimal_action(pendulum, 0.0, 1.0, [0.0], [0.0], sigma_eff=SIGMA_PEND)
    A2, _ = minimal_action(pendulum, 0.0, 1.0, [0.0], [0.0], sigma_eff=SIGMA_PEND,
                           n=2 * path.n)
    assert abs(A1 - A2) <= 1e-6 * (1 + abs(A1))
    # waiting at the potential maximum costs -t max V
    assert abs(A1 + 1.0) < 1e-6


def test_oracle_agreement_cases(pendulum):
    for (t, a, b) in ((0.2, 0.5, 0.5), (1.0, 0.1, 0.9), (2.0, 0.3, 0.8)):
        A, _ = minimal_action(pendulum, 0.0, t, [a], [b], sigma_eff=SIGMA_PEND,
                              restarts=3)
        T = tonelli_oracle(pendulum, 0.0, t, [a], [b],
                           n_segments=max(200, int(100 * t)), restarts=2)
        assert abs(A - T) <= 2e-3


@pytest.mark.parametrize("q0, q1, tau, t", [(0.0, 2.0, 0.0, 2.0), (0.1, 0.7, 0.3, 0.8),
                                           (0.9, -0.4, -1.0, 0.5)])
def test_oracle_free_closed_form(free, q0, q1, tau, t):
    T = tonelli_oracle(free, tau, t, [q0], [q1], n_segments=50, restarts=2)
    assert abs(T - (q1 - q0) ** 2 / (2 * (t - tau))) <= 1e-12


def test_oracle_discretisation_is_second_order(pendulum):
    # the unextrapolated midpoint values on one branch, refined by linear
    # interpolation, lose a factor 4 of their error per halving of the step
    import hjkam.action as act
    X = np.linspace(0.3, 0.8, 51)[None]
    values = []
    for n in (50, 100, 200):
        X = np.interp(np.linspace(0, 1, n + 1), np.linspace(0, 1, X.shape[1]), X[0])[None]
        A, _ = act._tonelli_newton(pendulum, 0.0, 2.0, X)
        values.append(A[0])
    ratio = (values[0] - values[1]) / (values[1] - values[2])
    assert 3.5 <= ratio <= 4.5


def test_oracle_best_start_meets_gradient_tolerance(pendulum, monkeypatch):
    import hjkam.action as act
    solves = []
    newton = act._tonelli_newton

    def record(*args):
        out = newton(*args)
        solves.append(out)
        return out

    monkeypatch.setattr(act, "_tonelli_newton", record)
    tonelli_oracle(pendulum, 0.0, 2.0, [0.3], [0.8], n_segments=200, restarts=3)
    assert len(solves) == 2
    for values, gsup in solves:
        assert gsup[np.argmin(values)] <= 1e-8


@pytest.mark.parametrize("t", [0.5, 0.2])
def test_oracle_horizon_not_after_tau_is_config_error(pendulum, t):
    with pytest.raises(ConfigError, match="t > tau"):
        tonelli_oracle(pendulum, 0.5, t, [0.1], [0.4])


@pytest.mark.parametrize("n", [200.0, 2.5])
def test_oracle_segment_count_not_integer_is_config_error(pendulum, n):
    with pytest.raises(ConfigError, match="n_segments"):
        tonelli_oracle(pendulum, 0.0, 1.0, [0.1], [0.4], n_segments=n)


def test_oracle_on_finite_difference_model(pendulum):
    # a differenced H_p rests about 3e-9 above the Legendre residual
    # TOL_NEWTON at the random starts' momenta near 260: its rows stop when
    # their damped step falls below the rounding of p, and the oracle meets
    # the closed-form pendulum's value
    from hjkam.hamiltonian import custom_model
    fd = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(2 * np.pi * q[..., 0]),
                      m=1.0, M=4 * np.pi ** 2, periodic=True)
    assert abs(tonelli_oracle(fd, 0.0, 1.0, [0.1], [0.9]) - 0.2635518866) < 1e-8
    assert abs(tonelli_oracle(pendulum, 0.0, 1.0, [0.1], [0.9]) - 0.2635518866) < 1e-8

def test_oracles_run_without_scipy_optimize_or_integrate():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.modules['scipy.optimize'] = None; "
            "sys.modules['scipy.integrate'] = None; import numpy as np; "
            "from hjkam import forced_model, pendulum_model, tonelli_oracle; "
            "from hjkam.acceptance import pendulum_weak_kam_oracle; "
            "print(tonelli_oracle(pendulum_model(), 0.0, 1.0, [0.1], [0.9]), "
            "tonelli_oracle(forced_model([0.0, 0.3]), 0.1, 0.7, [0.2], [0.7]), "
            "pendulum_weak_kam_oracle(np.linspace(0, 1, 5))[2])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    pend, forced, top = map(float, out.stdout.split())
    assert abs(pend - 0.2635518866) < 1e-8 and np.isfinite(forced)
    assert abs(top - 2 / np.pi) < 1e-15


def test_value_decreases_with_horizon(pendulum):
    # from the well bottom the curve migrates toward the potential maximum
    vals = [tonelli_oracle(pendulum, 0.0, t, [0.5], [0.5],
                           n_segments=max(200, int(100 * t)), restarts=2)
            for t in (1.0, 2.0, 4.0)]
    assert vals[0] > vals[1] > vals[2]


def test_lagrangian_action_examples(free, pendulum):
    ts = np.linspace(0, 2, 201)
    assert abs(lagrangian_action(free, ts, ts) - 1.0) < 1e-12
    ts2 = np.linspace(0, 1, 201)
    assert abs(lagrangian_action(pendulum, ts2, np.zeros(201)) + 1.0) < 1e-12


def test_lagrangian_refinement_order(pendulum):
    # midpoint rule is second order on smooth curves
    def value(n):
        ts = np.linspace(0, 1, n + 1)
        curve = 0.3 * np.sin(np.pi * ts) + 0.2
        return lagrangian_action(pendulum, ts, curve)

    e1 = abs(value(50) - value(800))
    e2 = abs(value(100) - value(800))
    assert 2.5 < e1 / e2 < 6.5


def test_triangle_check(free, pendulum):
    lhs, rhs_min, rhs = triangle_check(free, 0.0, 1.0, 2.0, [0.0], [2.0],
                                       np.linspace(0.0, 2.0, 41), sigma_eff=SIGMA_FREE)
    assert abs(lhs - 1.0) < 1e-9 and abs(rhs_min - 1.0) < 1e-9
    grid = np.linspace(-0.5, 1.5, 41)
    lhs, rhs_min, rhs = triangle_check(pendulum, 0.0, 0.5, 1.0, [0.2], [0.6],
                                       grid, sigma_eff=SIGMA_PEND)
    assert lhs <= rhs_min + 1e-3
    assert np.all(lhs <= rhs + 1e-3)


def test_triangle_degenerate_limit(pendulum):
    # as t1 -> t0 the scan minimum tends to the plain value
    lhs, rhs_min, _ = triangle_check(pendulum, 0.0, 0.01, 0.4, [0.2], [0.6],
                                     np.linspace(0.1, 0.3, 41), sigma_eff=SIGMA_PEND)
    assert abs(lhs - rhs_min) < 5e-3


def test_semiconcavity_of_A(pendulum):
    # discrete second differences of q1 -> A^t(q0, q1) stay below the
    # (m, M)-scaled envelope C_sc (1 + 1/t)
    m, M = 1.0, 4 * np.pi ** 2
    C_sc = 3.0 * 2.0 * (1 + 2 * M * SIGMA_PEND) / (m * min(1.0, SIGMA_PEND))
    for t in (0.3, 0.6):
        grid = np.linspace(0.0, 1.0, 65)[:, None]
        vals = minimal_action_batch(pendulum, 0.0, t, np.full((65, 1), 0.2), grid,
                                    sigma_eff=SIGMA_PEND)[0]
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) * 64.0 ** 2
        assert np.max(second) <= C_sc * (1 + 1 / t)


def test_energy_identity_along_minimizer(pendulum):
    # p dH/dp - H >= (m/M) H - (m + M) at samples of the reconstructed orbit
    _, path = minimal_action(pendulum, 0.0, 1.5, [0.2], [0.7], sigma_eff=SIGMA_PEND)
    traj = reconstruct_trajectory(pendulum, path, step=2e-3)
    idx = np.linspace(0, len(traj.times) - 1, 25).astype(int)
    m, M = 1.0, 4 * np.pi ** 2
    for i in idx:
        q, p = traj.Q[i], traj.P[i]
        Hp = pendulum.jet(traj.times[i], q, p)[1]
        H = float(pendulum.value(traj.times[i], q, p))
        assert float(p @ Hp) - H >= (m / M) * H - (m + M) - 1e-9


def test_reconstructed_chain_consistency(pendulum):
    A, path = minimal_action(pendulum, 0.0, 1.0, [0.1], [0.6], sigma_eff=SIGMA_PEND)
    traj = reconstruct_trajectory(pendulum, path, step=1e-3)
    assert abs(traj.Q[0, 0] - 0.1) < 1e-12
    assert abs(traj.Q[-1, 0] - 0.6) < 1e-7
    # the chain's recorded action matches the Lagrangian action of the orbit
    La = lagrangian_action(pendulum, traj.times, traj.Q[:, 0])
    assert abs(La - A) < 1e-4


def test_multistart_exhausted(pendulum):
    with pytest.raises(MultistartExhausted) as exc:
        minimal_action(pendulum, 0.0, 2.0, [0.1], [0.8], sigma_eff=SIGMA_PEND,
                       max_sweeps=0, restarts=4)
    # the error carries the worst momentum jump, the one its message names
    worst = exc.value.residual
    assert isinstance(worst, float) and np.isfinite(worst) and worst > 0
    assert f"worst jump {worst:.3e}" in str(exc.value)


def test_agreeing_unconverged_starts_raise(pendulum, monkeypatch):
    # starts that agree in value but miss the jump criterion are not accepted
    import hjkam.action as act
    relax = act._relax_chain

    def agreeing(*args):
        pts, jumps, S, r0, r1 = relax(*args)
        return pts, jumps + 1e-3, np.broadcast_to(S[:1], S.shape).copy(), r0, r1

    monkeypatch.setattr(act, "_relax_chain", agreeing)
    with pytest.raises(MultistartExhausted) as exc:
        minimal_action(pendulum, 0.0, 1.0, [0.1], [0.6], sigma_eff=SIGMA_PEND)
    assert exc.value.residual >= 1e-3
    assert f"worst jump {exc.value.residual:.3e}" in str(exc.value)


def test_endpoints_of_two_coordinates_are_config_error(pendulum):
    # the models have one coordinate; minimal_action_batch reads such input
    # as a batch of pairs, minimal_action refuses it
    with pytest.raises(ConfigError, match="length-1"):
        minimal_action(pendulum, 0.0, 1.0, [0.1, 0.2], [0.3, 0.4], sigma_eff=SIGMA_PEND)


@pytest.mark.parametrize("tau, t", [(1.0, 0.5), (0.5, 0.5)])
def test_horizon_not_after_start_is_config_error(pendulum, tau, t):
    with pytest.raises(ConfigError, match="t > tau"):
        minimal_action_batch(pendulum, tau, t, [0.1], [0.4], sigma_eff=SIGMA_PEND)
    with pytest.raises(ConfigError, match="t > tau"):
        minimal_action(pendulum, tau, t, [0.1], [0.4], sigma_eff=SIGMA_PEND)


def test_forced_chain_evaluation_is_one_generating_call(forced, monkeypatch):
    # every segment of every chain shoots in one generating_batch call, each
    # row over its own time slot
    import hjkam.action as act
    chains, calls = [], []
    segments, generating = act._segments, act.generating_batch

    def count_chains(*a, **kw):
        chains.append(len(a[3]))
        return segments(*a, **kw)

    def count_calls(model, tau, t, Q0, *a, **kw):
        calls.append((np.shape(tau), np.shape(t), len(Q0)))
        return generating(model, tau, t, Q0, *a, **kw)

    monkeypatch.setattr(act, "_segments", count_chains)
    monkeypatch.setattr(act, "generating_batch", count_calls)
    _, path = minimal_action(forced, 0.1, 1.3, [0.2], [0.7], sigma_eff=SIGMA_PEND)
    assert len(calls) == len(chains) > 1
    assert calls == [((c * path.n,), (c * path.n,), c * path.n) for c in chains]


@pytest.mark.parametrize("n", [0, -1, 2.5, 3.0])
def test_segment_count_below_one_is_config_error(pendulum, n):
    with pytest.raises(ConfigError, match="segment"):
        minimal_action(pendulum, 0.0, 0.15, [0.1], [0.4], sigma_eff=SIGMA_PEND, n=n)
    with pytest.raises(ConfigError, match="segment"):
        minimal_action_batch(pendulum, 0.0, 0.15, [0.1], [0.4], sigma_eff=SIGMA_PEND, n=n)


def test_segments_beyond_window_raise_sigma_exceeded(pendulum):
    # an explicit segment count whose segments leave the twist window is
    # refused before any shooting
    with pytest.raises(SigmaExceeded):
        broken_action_value(pendulum, 0.0, 2.0, [0.1], [0.8], [[0.4]], sigma_eff=SIGMA_PEND)
    with pytest.raises(SigmaExceeded):
        minimal_action(pendulum, 0.0, 2.0, [0.1], [0.8], sigma_eff=SIGMA_PEND, n=4)
    with pytest.raises(SigmaExceeded):
        minimal_action_batch(pendulum, 0.0, 1.0, [0.1], [0.8], sigma_eff=SIGMA_PEND, n=1)


def test_minimizer_csv(tmp_path, pendulum):
    _, path = minimal_action(pendulum, 0.0, 0.6, [0.1], [0.5], sigma_eff=SIGMA_PEND)
    f = tmp_path / "minimizer.csv"
    path.to_csv(f)
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "t_i,theta_i,p_minus,p_plus"
    assert len(lines) == path.n


def test_chain_escapes_saddle_start(pendulum):
    # resting at the well bottom is a saddle of the chain action; a start
    # just off it must still reach the minimizer, not stall beside it
    k = np.arange(1, 20)
    init = (0.5 + 1e-2 * np.sin(np.pi * k / 20))[None, :, None]
    vals, _, jumps, _ = minimal_action_batch(pendulum, 0.0, 2.0, [[0.5]], [[0.5]],
                                             sigma_eff=SIGMA_PEND, n=20,
                                             init_nodes=init, step_target=2e-3,
                                             max_sweeps=25)
    assert np.max(jumps) <= 1e-6
    T = tonelli_oracle(pendulum, 0.0, 2.0, [0.5], [0.5], n_segments=200, restarts=2)
    assert abs(vals[0] - T) <= 2e-3


@settings(max_examples=25, deadline=None)
@given(q0=st.floats(0.0, 1.0, exclude_max=True), q1=st.floats(0.0, 1.0, exclude_max=True),
       t=st.floats(0.3, 2.0), amp=st.floats(-0.3, 0.3))
def test_free_chain_value_property(q0, q1, t, amp):
    model = free_model()
    n = 8
    lam = np.arange(1, n) / n
    init = (q0 + lam * (q1 - q0) + amp * np.sin(np.pi * lam))[None, :, None]
    vals, _, jumps, _ = minimal_action_batch(model, 0.0, t, [[q0]], [[q1]],
                                             sigma_eff=SIGMA_FREE, n=n, init_nodes=init)
    assert abs(vals[0] - (q1 - q0) ** 2 / (2 * t)) <= 1e-8
    assert np.max(jumps) <= TOL_CRIT_BASE * (1 + abs(q1 - q0) / t)


def test_near_tied_minimizers_pick_first_start(pendulum, monkeypatch):
    # mirror-image minimizers tie up to solver noise; the reported chain must
    # not depend on which of them the noise favours
    import hjkam.action as act

    def relax(model, tau, t, pts, sigma_eff, step_target, max_sweeps, tol_crit):
        B, n1, d = pts.shape
        assert B >= 3
        S = np.ones((B, n1 - 1))
        S[0, 0] += 1e-11   # the straight start, above start 1 by noise only
        S[2:, 0] += 1.0
        r = np.zeros((B, n1 - 1, d))
        return pts, np.zeros((B, n1 - 2)), S, r, r

    monkeypatch.setattr(act, "_relax_chain", relax)
    value, path = act.minimal_action(pendulum, 0.0, 0.4, [0.1], [0.5],
                                     sigma_eff=SIGMA_PEND, restarts=3)
    assert abs(value - (4.0 + 1e-11)) < 1e-14
    assert np.allclose(path.nodes[:, 0], [0.2, 0.3, 0.4])


def test_forced_chain_in_time_slots(forced):
    # a non-autonomous model solves each segment in its own time slot; the
    # relaxed chain must match the independent Lagrangian oracle
    A, path = minimal_action(forced, 0.1, 0.7, [0.2], [0.7], sigma_eff=SIGMA_PEND)
    assert path.n == 6 and np.max(path.momentum_jumps) <= 1e-6
    T = tonelli_oracle(forced, 0.1, 0.7, [0.2], [0.7], n_segments=200, restarts=1)
    assert abs(A - T) <= 1e-4
    B = broken_action_value(forced, 0.1, 0.7, [0.2], [0.7], path.nodes,
                            sigma_eff=SIGMA_PEND)
    assert abs(A - B) <= 1e-8


def test_chain_value_equals_broken_action_at_its_nodes(forced):
    # segment values are corrected for their landing error, so a relaxed
    # chain's value is the broken action through its own nodes to rounding,
    # not to the shooting tolerance
    A, path = minimal_action(forced, 0.1, 1.3, [0.2], [0.7], sigma_eff=SIGMA_PEND)
    B = broken_action_value(forced, 0.1, 1.3, [0.2], [0.7], path.nodes,
                            sigma_eff=SIGMA_PEND)
    assert abs(A - B) <= 1e-10


def _sequential_relax(model, tau, t, pts, sigma_eff, step_target, max_sweeps, tol_crit):
    """Chain relaxation that backtracks one halving per ``_segments`` solve.

    The reference for ``_relax_chain``'s line search, written out on its
    own.  Also returns, per chain, the most halvings an accepted step took
    and whether it stalled.
    """
    import hjkam.action as act
    S, r0, r1, Mono = act._segments(model, tau, t, pts, sigma_eff, step_target)
    stalled = np.zeros(len(pts), bool)
    halvings = np.zeros(len(pts), int)
    for _ in range(max_sweeps):
        g = r1[:, :-1] - r0[:, 1:]
        gmax = np.linalg.norm(g, axis=-1).max(axis=1, initial=0.0)
        active = np.flatnonzero((gmax > tol_crit) & ~stalled)
        if len(active) == 0:
            break
        ga = g[active]
        delta, ok = act._newton_direction(Mono[active], ga)
        slope = np.sum(ga * delta, axis=(1, 2))
        ascent = ~ok | ~(slope > 0)
        delta[ascent] = ga[ascent]
        slope[ascent] = np.sum(ga[ascent] ** 2, axis=(1, 2))
        S_act = S[active].sum(axis=1)
        lam = np.ones(len(active))
        todo = np.ones(len(active), bool)
        for bt in range(10):
            k = np.flatnonzero(todo)
            trial = pts[active[k]]
            trial[:, 1:-1] -= lam[k, None, None] * delta[k]
            St, r0t, r1t, Mt = act._segments(model, tau, t, trial, sigma_eff, step_target,
                                             p_init=r0[active[k]])
            good = St.sum(axis=1) <= S_act[k] - 1e-4 * lam[k] * slope[k]
            i = active[k[good]]
            pts[i], S[i], r0[i], r1[i], Mono[i] = (trial[good], St[good], r0t[good],
                                                  r1t[good], Mt[good])
            halvings[i] = np.maximum(halvings[i], bt)
            todo[k[good]] = False
            if not todo.any():
                break
            lam[todo] *= 0.5
        stalled[active[todo]] = True
    jumps = np.linalg.norm(r1[:, :-1] - r0[:, 1:], axis=-1)
    return (pts, jumps, S, r0, r1), halvings, stalled


@pytest.mark.parametrize("model_name, amp, seed, chains, most_halvings",
                         [("pendulum", 0.4, 3, 6, 3), ("forced", 0.6, 3, 2, 4)])
def test_ladder_matches_sequential_backtracking(model_name, amp, seed, chains, most_halvings,
                                                pendulum, forced):
    import hjkam.action as act
    model = {"pendulum": pendulum, "forced": forced}[model_name]
    t, n = 1.2, 6
    lam = np.linspace(0, 1, n + 1)
    rng = np.random.default_rng(seed)
    pts = np.repeat((0.1 + 0.5 * lam)[None, :, None], 6, axis=0)
    pts[:, 1:-1, 0] += rng.normal(0.0, amp, (6, n - 1)) * np.sin(np.pi * lam[1:-1])
    pts = pts[:chains]
    # a zero tolerance keeps chain 0 iterating until its line search fails
    tol = np.full(chains, 1e-6)
    tol[0] = 0.0
    args = (model, 0.0, t)
    ref, halvings, stalled = _sequential_relax(*args, pts.copy(), SIGMA_PEND, 5e-3, 12, tol)
    # a stalled chain, and a step that four halvings accept (forced) or
    # three (pendulum)
    assert stalled.any() and halvings[~stalled].max() == most_halvings
    new = act._relax_chain(*args, pts.copy(), SIGMA_PEND, 5e-3, 12, tol)
    for a, b in zip(new, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("call", [
    lambda m: minimal_action(m, 0.0, 1.0, [0.1], [0.5], sigma_eff=0.0),
    lambda m: minimal_action(m, 0.0, np.inf, [0.1], [0.5], sigma_eff=SIGMA_PEND),
    lambda m: minimal_action_batch(m, np.nan, 1.0, [0.1], [0.5], sigma_eff=SIGMA_PEND),
    # endpoints are checked before the grid pass, which sizes its windows from them
    lambda m: minimal_action(m, 0.0, 2.0, [0.1], [np.nan], sigma_eff=SIGMA_PEND),
    lambda m: minimal_action(m, 0.0, 2.0, [-np.inf], [0.5], sigma_eff=SIGMA_PEND),
], ids=["window-zero", "horizon-inf", "batch-tau-nan", "endpoint-nan", "endpoint-inf"])
def test_non_finite_horizon_or_window_is_config_error(pendulum, call):
    with pytest.raises(ConfigError):
        call(pendulum)


@pytest.mark.parametrize("model_name", ["pendulum", "multi", "forced"])
@pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
def test_two_steps_match_one_step_relaxation(model_name, t, pendulum, forced, monkeypatch):
    # chains relaxed at KERNEL_STEP and then corrected at the production step
    # reach the least value that relaxing at the production step alone reaches
    import hjkam.action as act
    model, sigma, tau = {"pendulum": (pendulum, SIGMA_PEND, 0.0),
                         "multi": (mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15]), 0.15, 0.0),
                         "forced": (forced, SIGMA_PEND, 0.1)}[model_name]
    starts = []
    relax = act._relax_chain

    def spy(model, tau, t, pts, *rest):
        starts.append((pts.copy(),) + rest)
        return relax(model, tau, t, pts, *rest)

    monkeypatch.setattr(act, "_relax_chain", spy)
    A, path = minimal_action(model, tau, tau + t, [0.1], [0.6], sigma_eff=sigma)
    pts, sig, step, max_sweeps, tol = starts[0]
    assert step == 2e-3 and np.max(path.momentum_jumps) <= tol
    (_, jumps, S, _, _), _, _ = _sequential_relax(model, tau, tau + t, pts, sig, step,
                                                  max_sweeps, tol)
    ref = S.sum(axis=1)[jumps.max(axis=1) <= tol].min()
    assert abs(A - ref) <= 1e-12 * (1 + abs(A))


def test_sweeps_run_at_kernel_step_and_unconverged_chains_freeze(pendulum, monkeypatch):
    import hjkam.action as act
    t, n = 1.2, 6
    lam = np.linspace(0, 1, n + 1)
    # the chains start from different points, so a solve's rows name their chain
    pts = np.stack([q0 + (0.6 - q0) * lam for q0 in (0.1, 0.15)])[..., None]
    pts[:, 1:-1, 0] += 0.3 * np.sin(np.pi * lam[1:-1])
    # a zero tolerance leaves chain 0 above it after the coarse sweeps
    tol = np.array([0.0, 1e-6])
    calls = []
    segments = act._segments

    def spy(*a, **kw):
        calls.append((a[5], set(a[3][:, 0, 0])))
        return segments(*a, **kw)

    monkeypatch.setattr(act, "_segments", spy)
    _, jumps, _, _, _ = act._relax_chain(pendulum, 0.0, t, pts.copy(), SIGMA_PEND, 2e-3, 12, tol)
    steps = [step for step, _ in calls]
    coarse = steps.count(KERNEL_STEP)
    # sweeps at KERNEL_STEP, then one evaluation of every chain at 2e-3, then
    # sweeps at 2e-3 for the chains that met their tolerance only
    assert coarse > 1 and steps == [KERNEL_STEP] * coarse + [2e-3] * (len(steps) - coarse)
    assert calls[coarse][1] == {0.1, 0.15}
    assert all(0.1 not in rows for _, rows in calls[coarse + 1:])
    assert jumps[1].max() <= tol[1]
    for step in (KERNEL_STEP, 1e-2):
        calls.clear()
        act._relax_chain(pendulum, 0.0, t, pts.copy(), SIGMA_PEND, step, 12, tol)
        assert len(calls) > 1 and {s for s, _ in calls} == {step}


def test_batch_rows_equal_one_row_calls_at_production_step(pendulum):
    # the freeze after the coarse sweeps is decided per chain
    rng = np.random.default_rng(5)
    Q0 = rng.uniform(0, 1, (4, 1))
    Q1 = rng.uniform(0, 1, (4, 1))
    n = 10
    lam = np.arange(1, n) / n
    init = (Q0 + lam * (Q1 - Q0) + rng.normal(0, 0.3, (4, 1)) * np.sin(np.pi * lam))[..., None]
    kw = dict(sigma_eff=SIGMA_PEND, n=n, step_target=2e-3)
    batch = minimal_action_batch(pendulum, 0.0, 1.0, Q0, Q1, init_nodes=init, **kw)
    for i in range(4):
        one = minimal_action_batch(pendulum, 0.0, 1.0, Q0[i:i + 1], Q1[i:i + 1],
                                   init_nodes=init[i:i + 1], **kw)
        for a, b in zip(batch, one):
            assert a[i:i + 1].tobytes() == b.tobytes()


@pytest.mark.parametrize("restarts", [0, -3, 2.5, None])
def test_restarts_not_positive_integer_is_config_error(pendulum, restarts):
    with pytest.raises(ConfigError, match="restarts"):
        minimal_action(pendulum, 0.0, 1.0, [0.1], [0.4], sigma_eff=SIGMA_PEND, restarts=restarts)
    with pytest.raises(ConfigError, match="restarts"):
        tonelli_oracle(pendulum, 0.0, 1.0, [0.1], [0.4], restarts=restarts)


def test_grid_start_finds_the_long_route(pendulum):
    # the chains from the straight line and from travel-hold-travel curves
    # settle in a route that is 0.028 too high
    A, path = minimal_action(pendulum, 0.0, 6.0, [0.01453628036381327], [0.9332239002254337],
                             sigma_eff=SIGMA_PEND)
    assert abs(A - -4.740053952153257) <= 1e-9
    traj = reconstruct_trajectory(pendulum, path)
    assert abs(lagrangian_action(pendulum, traj.times, traj.Q[:, 0]) - A) <= 1e-5


def test_grid_start_finds_the_forced_route(forced):
    A, _ = minimal_action(forced, 0.3, 6.3, [0.982203888122707], [0.03225359142589068],
                          sigma_eff=SIGMA_PEND)
    assert abs(A - -1.1240961391289255) <= 1e-9


def test_one_grid_start_per_cell_keeps_both_wells():
    # the midpoint rule ranks the routes through the two wells wrongly by
    # about 0.008, so the least through-cost alone picks the wrong one
    two_well = mechanical_model([0.0, 0.3, 0.0, 0.5])
    A, _ = minimal_action(two_well, 0.0, 2.0, [0.5], [0.5], sigma_eff=0.15)
    assert abs(A - -0.40800921936281376) <= 1e-9


def test_minimal_action_leaves_kernel_cache_untouched(pendulum):
    from hjkam import laxoleinik
    from hjkam.laxoleinik import GridFunction, apply_T
    apply_T(pendulum, GridFunction.from_callable(np.zeros_like, 16), 0.0, 0.1,
            sigma_eff=SIGMA_PEND)
    before = {k: id(v) for k, v in laxoleinik._KERNEL_CACHE.items()}
    minimal_action(pendulum, 0.0, 2.0, [0.3], [0.8], sigma_eff=SIGMA_PEND)
    assert before and {k: id(v) for k, v in laxoleinik._KERNEL_CACHE.items()} == before


_MODELS = {"pendulum": (pendulum_model(), SIGMA_PEND),
           "multi": (mechanical_model([0.1, 0.5, 0.3, 0.2, -0.15]), 0.15),
           "forced": (forced_model([0.0, 0.3], epsilon=0.2), SIGMA_PEND)}


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(_MODELS)), t=st.floats(0.5, 3.0),
       q0=st.floats(0.0, 1.0, exclude_max=True), q1=st.floats(0.0, 1.0, exclude_max=True))
def test_grid_starts_do_no_worse_than_waypoint_curves(name, t, q0, q1):
    # the starts that the grid starts replace, the travel-hold-travel curves
    # through seven waypoints and four seeded perturbations of the straight
    # line, relaxed alone reach no value below the solve's; the solve fails
    # only where every one of them fails too
    import hjkam.action as act
    model, sigma = _MODELS[name]
    n = act._straight_chains(model, 0.0, t, q0, q1, sigma, None)[1]
    lam = np.linspace(0, 1, n + 1)
    lo, hi = sorted((q0, q1))
    curves = np.stack(waypoint_curves(q0, q1, lam, np.linspace(lo - 1, hi + 1, 7)))[:, 1:-1]
    pert = (q0 + (q1 - q0) * lam[1:-1] + np.sin(np.pi * lam[1:-1])
            * np.random.default_rng(0).normal(0.0, 0.25 * (1 + abs(q1 - q0)), (4, n - 1)))
    init = np.concatenate([curves, pert])[..., None]
    vals, _, jumps, _ = minimal_action_batch(model, 0.0, t, np.full((11, 1), q0),
                                             np.full((11, 1), q1), sigma_eff=sigma,
                                             init_nodes=init, step_target=2e-3, max_sweeps=25)
    ok = jumps.max(axis=1) <= TOL_CRIT_BASE * (1 + abs(q1 - q0) / t)
    try:
        A, _ = minimal_action(model, 0.0, t, [q0], [q1], sigma_eff=sigma)
    except MultistartExhausted:
        assert not ok.any()
        return
    assert A <= np.min(vals, where=ok, initial=np.inf) + 1e-9 * (1 + abs(A))


@pytest.mark.parametrize("name, t, value", [("multi", 2.0, -0.5092706064193891),
                                            ("pendulum", 2.5, -1.2267724330976517)])
def test_slow_transit_relaxes_a_second_round(name, t, value, monkeypatch):
    # endpoints a turn apart next to a hill top: the transit between them can
    # shift in time almost for free, so no start meets the jump criterion in
    # the first max_sweeps; the second round converges to the value that the
    # straight line and travel-hold-travel curves with random restarts found
    import hjkam.action as act
    relax, calls = act._relax_chain, []

    def spy(*args):
        calls.append(args[3].shape)
        return relax(*args)

    monkeypatch.setattr(act, "_relax_chain", spy)
    model, sigma = _MODELS[name]
    A, path = minimal_action(model, 0.0, t, [0.0], [0.998046875], sigma_eff=sigma)
    assert len(calls) == 2 and calls[0] == calls[1]
    assert abs(A - value) <= 1e-9
    assert np.max(path.momentum_jumps) <= TOL_CRIT_BASE * (1 + 0.998046875 / t)


@pytest.mark.parametrize("q1", [0.7, 50.0, 1e5])
def test_grid_starts_one_per_cell_in_ascending_cost(pendulum, q1):
    # a unit cell per start, within one cell of the straight chain's middle
    # node, and every node within 2 of the straight chain's, however far
    # apart the endpoints lie
    import hjkam.action as act
    starts = act._grid_starts(pendulum, 0.0, 4.0, 0.2, q1, 40)
    assert starts.shape == (3, 41, 1)
    assert np.all(starts[:, 0, 0] == 0.2) and np.all(starts[:, -1, 0] == q1)
    assert np.all(np.abs(starts[..., 0] - np.linspace(0.2, q1, 41)) <= 2.0)
    cells = np.floor(starts[:, 20, 0])
    assert sorted(cells) == list(np.floor((0.2 + q1) / 2) + np.array([-1, 0, 1]))
    costs = act._midpoint_action(pendulum, np.linspace(0.0, 4.0, 41), starts[..., 0])
    assert np.all(np.diff(costs) >= -1e-12)


def test_grid_starts_of_a_model_that_is_not_periodic(pendulum):
    # a custom model tabulates one row per node, not per residue class, and
    # finds the pendulum's starts
    from hjkam.hamiltonian import custom_model
    w = 2 * np.pi
    flat = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, -1) + np.cos(w * q[..., 0]),
                        m=1.0, M=w ** 2, grad=lambda t, q, p: (-w * np.sin(w * q), p),
                        hessian=lambda t, q, p: (-w ** 2 * np.cos(w * q[..., 0]), 0.0, 1.0))
    import hjkam.action as act
    for t, q0, q1 in ((2.0, 0.23, 0.71), (3.0, 0.9, 0.05)):
        n = round(t / 0.1)
        assert np.array_equal(act._grid_starts(flat, 0.0, t, q0, q1, n),
                              act._grid_starts(pendulum, 0.0, t, q0, q1, n))


def test_grid_starts_grow_the_band_by_new_columns(forced, monkeypatch):
    # 60 segments: the band starts at D = 3 and doubles twice.  Each growth
    # tabulates only D_old < |e| <= D, one plane per interior segment (58)
    # and one row per residue class (64): 7, 6 and 12 columns, 92,800 segment
    # costs in place of the 167,040 that rebuilding each band takes, after
    # the first and last segments (160 window nodes each).  The starts dwell
    # on the hill top q = 0 (one of them a node off at slice 30) or q = 1
    import hjkam.action as act
    rows, midpoint = [], act._midpoint_action

    def counting(model, times, X, derivs=False):
        rows.append(int(np.prod(np.broadcast_shapes(np.shape(times)[:-1], X.shape[:-1]))))
        return midpoint(model, times, X, derivs)

    monkeypatch.setattr(act, "_midpoint_action", counting)
    starts = act._grid_starts(forced, 0.0, 6.0, 0.2, 0.7, 60)
    assert rows == [2 * 160, 58 * 64 * 7, 58 * 64 * 6, 58 * 64 * 12]
    descent, ascent = [9, 6, 4, 3, 2, 1], [1, 2, 3, 4, 5, 7, 10, 14, 19, 25, 32, 39]
    nodes = [descent + [0] * 41 + ascent,
             descent + [0] * 23 + [-1] + [0] * 17 + ascent,
             [16, 21, 27, 33, 39, 45, 50, 54, 57, 59, 61, 62, 63] + [64] * 38
             + [63, 62, 61, 60, 58, 56, 53, 49]]
    assert np.array_equal(starts[:, 1:-1, 0], np.array(nodes) / 64)
    assert np.all(starts[:, 0, 0] == 0.2) and np.all(starts[:, -1, 0] == 0.7)


def test_oracle_drops_a_stalled_start_above_the_least(pendulum, monkeypatch):
    # on the long pendulum route, two starts stall at -4.7116 with gradient
    # sups of 1e-4 and 1e-6, above the converged ones at -4.7395: the oracle
    # returns the converged least, close to minimal_action's
    # -4.740053952153257 (5.8e-8 at 300 segments)
    import hjkam.action as act
    stalled, newton = [], act._tonelli_newton

    def record(model, tau, t, X):
        A, gsup = newton(model, tau, t, X)
        stalled.append(A[gsup > 1e-6])
        return A, gsup

    monkeypatch.setattr(act, "_tonelli_newton", record)
    value = tonelli_oracle(pendulum, 0.0, 6.0, [0.01453628036381327], [0.9332239002254337],
                           n_segments=300)
    assert len(stalled[0]) == 2 and stalled[0].min() > -4.72
    assert abs(value - -4.740053952153257) <= 1e-7


def test_oracle_raises_when_the_least_start_stalls(pendulum, monkeypatch):
    # one Newton iteration: no start converges, and the least is among them
    import hjkam.action as act
    from hjkam.errors import SolverDiverged
    monkeypatch.setattr(act, "MAX_ORACLE_ITER", 1)
    with pytest.raises(SolverDiverged) as exc:
        tonelli_oracle(pendulum, 0.0, 2.0, [0.3], [0.8], n_segments=200)
    assert exc.value.residual > act.TOL_ORACLE_GRAD
