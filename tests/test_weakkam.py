import numpy as np
import pytest

from conftest import SIGMA_FREE, SIGMA_PEND
from hjkam.action import minimal_action, reconstruct_trajectory
from hjkam.errors import ConfigError, LevelBelowCritical, NonConvergence
from hjkam.hamiltonian import custom_model, mechanical_model
from hjkam.laxoleinik import GridFunction, action_kernel
from hjkam.weakkam import (aubry_set, calibrated_curve, critical_value,
                           fixed_point_residual, invariant_set, is_subsolution,
                           mane_pair, mane_potential, weak_kam_solve)


def closed_form_pendulum_u(q):
    u = np.where(q <= 0.5, (2 / np.pi) * (1 - np.cos(np.pi * q)),
                 (2 / np.pi) * (1 + np.cos(np.pi * q)))
    return u - u.min()


def test_critical_value_free(free):
    res = critical_value(free, grid_n=64, t_step=0.2, t_max=4.0, sigma_eff=SIGMA_FREE)
    assert abs(res.alpha) < 1e-12
    # bounded oscillation of the recorded history
    plus = np.array([h[1] for h in res.history])
    minus = np.array([h[2] for h in res.history])
    assert np.max(plus - minus) < 1e-12


def test_critical_value_pendulum_and_family(pendulum):
    res = critical_value(pendulum, grid_n=64, t_step=0.2, t_max=8.0,
                         sigma_eff=SIGMA_PEND)
    assert abs(res.alpha - 1.0) <= 1e-2
    model2 = mechanical_model([0.2, 0.3], m=1.0)
    res2 = critical_value(model2, grid_n=64, t_step=0.2, t_max=8.0, sigma_eff=0.2)
    assert abs(res2.alpha - 0.5) <= 1e-2


def karp_min_cycle_mean(W):
    """Minimum cycle mean of the dense min-plus matrix ``W`` (``W[i, j]`` is
    the weight of the edge i -> j), by Karp's formula from node 0."""
    n = len(W)
    Dk = np.full((n + 1, n), np.inf)
    Dk[0, 0] = 0.0
    for k in range(n):
        Dk[k + 1] = np.min(Dk[k][:, None] + W, axis=0)
    k = np.arange(n)[:, None]
    with np.errstate(invalid="ignore"):
        ratios = (Dk[n][None, :] - Dk[:n]) / (n - k)
    ratios[~np.isfinite(Dk[:n])] = -np.inf
    return float(np.min(np.max(ratios, axis=0)[np.isfinite(Dk[n])]))


def _offgrid_pendulum(n):
    # cos(2 pi q - phi) with phi = pi / n: the maximum sits half a cell off
    phi = np.pi / n
    return mechanical_model([0.0, np.cos(phi), np.sin(phi)], m=1.0, M=4 * np.pi ** 2)


@pytest.mark.parametrize("name", ["pendulum", "family", "two_well", "offgrid"])
def test_critical_value_matches_karp(pendulum, name):
    # alpha = -lambda / t for the minimum cycle mean lambda of the grid kernel
    n, t = 64, 0.1
    model, sigma = {"pendulum": (pendulum, SIGMA_PEND),
                    "family": (mechanical_model([0.2, 0.3], m=1.0), 0.2),
                    "two_well": (mechanical_model([0.0, 0.0, 0.0, 0.5], m=1.0), 0.1),
                    "offgrid": (_offgrid_pendulum(n), SIGMA_PEND)}[name]
    D = n // 2 - 1
    K = action_kernel(model, 0.0, t, n, D, sigma_eff=sigma)
    W = np.full((n, n), np.inf)
    i = np.arange(n)[:, None]
    W[i, (i + np.arange(-D, D + 1)) % n] = K
    lam = karp_min_cycle_mean(W)
    res = critical_value(model, grid_n=n, t_step=t, sigma_eff=sigma)
    assert abs(res.alpha + lam / t) <= 1e-12


def test_history_subadditive(pendulum):
    res = critical_value(pendulum, grid_n=32, t_step=0.2, t_max=4.0,
                         sigma_eff=SIGMA_PEND)
    ts = [h[0] for h in res.history]
    plus = {round(h[0], 9): h[1] for h in res.history}
    minus = {round(h[0], 9): h[2] for h in res.history}
    slack = 2e-2  # grid slack on a 32 grid
    for t in ts:
        for s in ts:
            key = round(t + s, 9)
            if key in plus:
                assert plus[key] <= plus[round(t, 9)] + plus[round(s, 9)] + slack
                assert minus[key] >= minus[round(t, 9)] + minus[round(s, 9)] - slack
    # a^-(t) - t alpha brackets hold at the tail
    T = ts[-1]
    assert minus[round(T, 9)] / T - 1e-2 <= -res.alpha <= plus[round(T, 9)] / T + 1e-2


def test_weak_kam_free(free):
    res = weak_kam_solve(free, grid_n=64, alpha=0.0, t_step=0.2, sigma_eff=SIGMA_FREE)
    assert res.residual <= 1e-10
    assert np.max(np.abs(res.u.values)) <= 1e-12


def test_weak_kam_pendulum_oracle(pendulum):
    res = weak_kam_solve(pendulum, grid_n=64, alpha=1.0, t_step=0.1,
                         sigma_eff=SIGMA_PEND)
    assert res.residual <= 5e-3
    dist = np.max(np.abs(res.u.values - closed_form_pendulum_u(res.u.nodes)))
    assert dist <= 5e-3
    # second probe horizon consistent with the semigroup
    r2 = fixed_point_residual(pendulum, res.u, 1.0, 0.2, sigma_eff=SIGMA_PEND)
    assert r2 <= 5e-3


def test_weak_kam_off_level_plateau(pendulum):
    t_probe = 0.1
    with pytest.raises(NonConvergence) as info:
        weak_kam_solve(pendulum, grid_n=32, alpha=1.2, t_step=t_probe,
                       sigma_eff=SIGMA_PEND, t_max=6.0)
    res = info.value.result
    assert res is not None
    assert res.residual >= 0.2 * t_probe / 2
    assert abs(res.residual - 0.2 * t_probe) < 0.05 * t_probe


def test_weak_kam_offgrid_maximum_converges():
    # the discrete critical value of a pendulum whose maximum sits between
    # nodes is not 1; at alpha = 1 the increment settles at a constant and
    # the residual, that constant, is within tolerance
    res = weak_kam_solve(_offgrid_pendulum(64), grid_n=64, alpha=1.0, t_step=0.1,
                         sigma_eff=SIGMA_PEND)
    assert res.residual <= 5e-3 and res.converged
    assert len(res.history) < 40


def test_weak_kam_rejects_seed_on_other_grid(pendulum, monkeypatch):
    import hjkam.weakkam as wk

    def no_apply(*args, **kwargs):
        raise AssertionError("iterated before checking the seed's grid")

    monkeypatch.setattr(wk, "apply_T", no_apply)
    with pytest.raises(ConfigError):
        weak_kam_solve(pendulum, grid_n=32, alpha=1.0, t_step=0.1, sigma_eff=SIGMA_PEND,
                       u0=GridFunction(1, 16, np.zeros(16)))


@pytest.mark.parametrize("t_step, t_max", [(0.1, 0.0), (0.1, -1.0), (0.0, 4.0), (-0.1, 4.0),
                                           (np.nan, 4.0), (0.1, np.inf)])
def test_step_and_cap_validated_up_front(pendulum, monkeypatch, t_step, t_max):
    # a cap of 0 used to leave the iteration without a single step
    # (UnboundLocalError) and a step of 0 divided by zero
    import hjkam.weakkam as wk

    def no_apply(*args, **kwargs):
        raise AssertionError("iterated before checking t_step and t_max")

    monkeypatch.setattr(wk, "apply_T", no_apply)
    with pytest.raises(ConfigError):
        critical_value(pendulum, grid_n=16, t_step=t_step, t_max=t_max, sigma_eff=SIGMA_PEND)
    for alpha in (None, 1.0):
        with pytest.raises(ConfigError):
            weak_kam_solve(pendulum, grid_n=16, alpha=alpha, t_step=t_step, t_max=t_max,
                           sigma_eff=SIGMA_PEND)


def test_tiny_cap_takes_one_step(free):
    # t_max far below t_step still makes one application
    res = critical_value(free, grid_n=16, t_step=0.2, t_max=1e-12, sigma_eff=SIGMA_FREE)
    assert res.converged and len(res.history) == 1 and res.alpha == 0.0


def test_weak_kam_default_alpha_iterates_once(pendulum, monkeypatch):
    # with alpha=None the solve starts from critical_value's eigenvector:
    # one more application to see the increment constant, one residual
    import hjkam.weakkam as wk
    real = wk.apply_T
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(wk, "apply_T", counted)
    critical_value(pendulum, grid_n=64, t_step=0.1, sigma_eff=SIGMA_PEND)
    n_crit = len(calls)
    calls.clear()
    res = weak_kam_solve(pendulum, grid_n=64, alpha=None, t_step=0.1, sigma_eff=SIGMA_PEND)
    assert len(calls) <= n_crit + 2
    assert res.converged and res.residual <= 1e-12


def test_is_subsolution_examples(pendulum, free):
    n = 64
    zero = GridFunction(1, n, np.zeros(n))
    ok, worst = is_subsolution(pendulum, zero, 1.0, slack=1e-9, sigma_eff=SIGMA_PEND)
    assert ok and worst <= 0.0 + 1e-12
    ok, worst = is_subsolution(pendulum, zero, 0.5, sigma_eff=SIGMA_PEND)
    assert not ok and abs(worst - 0.5) < 1e-9
    q = np.arange(n) / n
    u = GridFunction(1, n, 0.1 * np.sin(2 * np.pi * q) / (2 * np.pi))
    ok, _ = is_subsolution(free, u, 0.005, slack=1e-9, sigma_eff=SIGMA_FREE)
    assert ok



@pytest.mark.parametrize("name", ["pendulum", "free"])
def test_is_subsolution_one_shoot_per_horizon(request, monkeypatch, name):
    # the winding representatives w = -1, 0, 1 go in one batch per horizon;
    # rows are solved independently of their batch, so each row block equals
    # its own per-winding call bit for bit, and so does the verdict
    import hjkam.weakkam as wk
    model = request.getfixturevalue(name)
    sig = SIGMA_FREE if name == "free" else SIGMA_PEND
    n, n_pairs, a = 64, 50, 0.5
    u = GridFunction(1, n, 0.3 * np.sin(2 * np.pi * np.arange(n) / n))
    calls = []
    pair_actions = wk._pair_actions

    def recording(model, tau, t, Q0, Q1, sigma):
        calls.append((t, pair_actions(model, tau, t, Q0, Q1, sigma)))
        return calls[-1][1]

    monkeypatch.setattr(wk, "_pair_actions", recording)
    ok, worst = is_subsolution(model, u, a, n_pairs=n_pairs, sigma_eff=sig)
    assert len(calls) == 3  # one call per horizon
    rng = np.random.default_rng(0)
    i, j = rng.integers(0, n, n_pairs), rng.integers(0, n, n_pairs)
    want = -np.inf
    for t, out in calls:
        per_winding = [pair_actions(model, 0.0, t, (i / n)[:, None], (j / n + w)[:, None], sig)
                       for w in (-1.0, 0.0, 1.0)]
        assert np.array_equal(out.reshape(3, -1), per_winding)
        act = np.min(per_winding, axis=0)
        want = max(want, float((u.values[j] - u.values[i] - act - a * t).max()))
    _, _, du_c, consistent = wk._slopes(u)
    H = model.value(0.0, u.nodes[consistent][:, None], du_c[consistent][:, None])
    want = max(want, float((H - a).max()))
    assert np.float64(worst).tobytes() == np.float64(want).tobytes()


def test_mane_free_closed_form(free):
    field = mane_potential(free, 0.5, 0.0, grid_n=64, sigma_eff=SIGMA_FREE)
    q = field.phi.nodes
    exact = np.minimum(q, 1 - q)
    assert np.max(np.abs(field.phi.values - exact)) <= 2e-3
    assert abs(field.phi.values[0]) <= 1e-3
    assert field.phi.values.min() >= -1e-3


def test_mane_lipschitz_bound(free):
    # |phi(q) - phi(q')| <= 2 sqrt(2 m (M + a)) dist + slack
    field = mane_potential(free, 0.5, 0.0, grid_n=64, sigma_eff=SIGMA_FREE)
    v = field.phi.values
    bound = 2 * np.sqrt(2 * 1.0 * (1.0 + 0.5)) / 64
    assert np.max(np.abs(np.diff(v))) <= bound + 1e-3


def test_mane_pendulum_matches_weak_kam(pendulum):
    field = mane_potential(pendulum, 1.0, 0.0, grid_n=64, sigma_eff=SIGMA_PEND)
    res = weak_kam_solve(pendulum, grid_n=64, alpha=1.0, t_step=0.1,
                         sigma_eff=SIGMA_PEND)
    diff = field.phi.values - res.u.values
    assert np.max(np.abs(diff - diff[0])) <= 5e-3


def test_mane_triangle_and_maximality(free):
    a, n = 0.5, 64
    field = mane_potential(free, a, 0.0, grid_n=n, sigma_eff=SIGMA_FREE)
    rng = np.random.default_rng(1)
    for _ in range(15):
        th = rng.integers(0, n) / n
        q1 = rng.integers(0, n) / n
        lhs = field.phi.values[int(q1 * n)]
        rhs = field.phi.values[int(th * n)] + mane_pair(free, a, th, q1, grid_n=n,
                                                        sigma_eff=SIGMA_FREE)
        assert lhs <= rhs + 1e-3
    # certified sub-solutions vanishing at the base stay below phi
    q = np.arange(n) / n
    for c in (0.0, 0.5, 0.9):
        u = GridFunction(1, n, c * np.sin(2 * np.pi * q) / (2 * np.pi))
        ok, _ = is_subsolution(free, u, a, slack=1e-9, sigma_eff=SIGMA_FREE)
        assert ok
        assert np.max(u.values - field.phi.values) <= 2e-3


def test_mane_below_critical_detected(pendulum):
    with pytest.raises(LevelBelowCritical):
        mane_potential(pendulum, 0.5, 0.0, grid_n=32, sigma_eff=SIGMA_PEND)


def test_mane_just_below_critical_detected(pendulum):
    # the hilltop self-loop of the kernel graph costs t (a - alpha) < 0
    alpha = critical_value(pendulum, grid_n=64, t_step=0.1, sigma_eff=SIGMA_PEND).alpha
    with pytest.raises(LevelBelowCritical):
        mane_potential(pendulum, alpha - 1e-3, 0.0, grid_n=64, sigma_eff=SIGMA_PEND)


def _mane_rows(model, a, n, sigma):
    return np.stack([mane_potential(model, a, i / n, grid_n=n, sigma_eff=sigma).phi.values
                     for i in range(n)])


def test_mane_triangle_on_nodes(pendulum):
    S = _mane_rows(pendulum, 1.0, 64, SIGMA_PEND)
    assert np.all(np.diag(S) == 0.0)
    # S[i, k] <= S[i, j] + S[j, k]
    assert np.max(S[:, None, :] - S[:, :, None] - S[None, :, :]) <= 1e-12


def test_mane_matches_floyd_warshall(pendulum):
    import hjkam.weakkam as wk
    n, a = 16, 1.0
    hs, Ds = wk._mane_horizons(pendulum, a, n, SIGMA_PEND)
    # brute-force edge matrices: the kernel entries within each horizon's
    # radius, and every entry at every horizon
    W, W_all = np.full((n, n), np.inf), np.full((n, n), np.inf)
    for h, D in zip(hs, Ds):
        K = action_kernel(pendulum, 0.0, h, n, n // 2, sigma_eff=SIGMA_PEND)
        for i in range(n):
            for c, dd in enumerate(range(-(n // 2), n // 2 + 1)):
                j = (i + dd) % n
                W_all[i, j] = min(W_all[i, j], K[i, c] + a * h)
                if abs(dd) <= D:
                    W[i, j] = min(W[i, j], K[i, c] + a * h)
    assert np.array_equal(W, wk._kernel_graph(pendulum, a, n, SIGMA_PEND)[0])
    S = _mane_rows(pendulum, a, n, SIGMA_PEND)
    # the radii drop no edge a shortest path needs
    for edges in (W, W_all):
        dist = edges.copy()
        np.fill_diagonal(dist, 0.0)
        for k in range(n):
            dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
        assert np.max(np.abs(S - dist)) <= 1e-12


@pytest.mark.parametrize("a", [0.3, 2.0])
def test_mane_free_closed_form_off_unit_speed(free, a):
    # the shortest horizon lets the level's speed sqrt(2 a) take one cell;
    # measured error 2.8e-16 at a = 0.3 and 0 at a = 2
    field = mane_potential(free, a, 0.0, grid_n=64, sigma_eff=SIGMA_FREE)
    q = field.phi.nodes
    exact = np.sqrt(2 * a) * np.minimum(q, 1 - q)
    assert np.max(np.abs(field.phi.values - exact)) <= 2e-3


@pytest.mark.parametrize("a", [0.3, 0.5, 2.0])
def test_mane_free_t_argmin(free, a):
    # a minimizer at level a moves at speed sqrt(2 a); measured error
    # 1.1e-16 at a = 0.3 and 0 at a = 0.5 and 2
    field = mane_potential(free, a, 0.0, grid_n=64, sigma_eff=SIGMA_FREE)
    q = field.phi.nodes
    assert np.max(np.abs(field.t_argmin - np.minimum(q, 1 - q) / np.sqrt(2 * a))) <= 2e-3


def test_calibrated_free(free):
    traj = calibrated_curve(free, 0.5, 0.0, 1.0, horizon_cap=4.0,
                            sigma_eff=SIGMA_FREE)
    assert abs(traj.times[-1] - 1.0) < 1e-5
    assert abs(traj.P[0, 0] - 1.0) < 1e-6
    assert np.max(np.abs(traj.energy - 0.5)) < 1e-6


def test_calibrated_pendulum_energy_and_splitting(pendulum):
    traj = calibrated_curve(pendulum, 1.0, 0.15, 0.45, horizon_cap=3.0,
                            sigma_eff=SIGMA_PEND)
    assert np.max(np.abs(traj.energy - 1.0)) <= 1e-4
    # optimal horizon equals the separatrix transit time
    from scipy.integrate import quad
    T_oracle = quad(lambda s: 1 / (2 * np.sin(np.pi * s)), 0.15, 0.45)[0]
    assert abs(traj.times[-1] - T_oracle) < 1e-3
    full = mane_pair(pendulum, 1.0, 0.15, 0.45, grid_n=64, sigma_eff=SIGMA_PEND)
    for frac in (0.25, 0.5, 0.75):
        i = int(frac * (len(traj.times) - 1))
        qs = float(np.mod(traj.Q[i, 0], 1.0))
        split = (mane_pair(pendulum, 1.0, 0.15, qs, grid_n=64, sigma_eff=SIGMA_PEND)
                 + mane_pair(pendulum, 1.0, qs, 0.45, grid_n=64, sigma_eff=SIGMA_PEND))
        assert abs(split - full) <= 1e-2


@pytest.mark.parametrize("q0, q1", [(0.15, 0.45), (0.6, 0.9), (0.45, 0.15)])
def test_calibrated_separatrix_transit_time(pendulum, q0, q1):
    # on the separatrix |p| = 2 sin(pi q), whose transit time is a log tangent
    traj = calibrated_curve(pendulum, 1.0, q0, q1, horizon_cap=3.0, sigma_eff=SIGMA_PEND)
    exact = abs(np.log(np.tan(np.pi * q1 / 2)) - np.log(np.tan(np.pi * q0 / 2))) / (2 * np.pi)
    assert abs(traj.times[-1] - exact) <= 1e-10


@pytest.mark.parametrize("q0, q1, top", [(-0.2, 0.7, 0.0), (0.15, 1.45, 1.0)])
def test_calibrated_over_the_hilltop(pendulum, q0, q1, top):
    # just above the critical level the speed dips to sqrt(2 (a - 1)) at the
    # hilltop; a 64-node Gauss-Legendre rule missed q1 by 5.9e-2 on (-0.2, 0.7)
    from scipy.integrate import quad
    a = 1.001
    t_ref = quad(lambda q: 1 / np.sqrt(2 * (a - np.cos(2 * np.pi * q))), q0, q1,
                 points=[top], epsabs=1e-13, epsrel=1e-13)[0]
    traj = calibrated_curve(pendulum, a, q0, q1, horizon_cap=3.0, sigma_eff=SIGMA_PEND)
    assert abs(traj.times[-1] - t_ref) <= 1e-9
    assert abs(traj.Q[-1, 0] - q1) <= 1e-8


@pytest.mark.parametrize("q0, q1", [(0.0, 0.3), (-0.2, 0.7)])
def test_calibrated_through_hilltop_is_capped_chain(pendulum, q0, q1):
    # at the critical level no orbit on H = 1 passes the hilltop q = 0, so
    # t* is infinite and the orbit is the minimal-action chain at the cap
    traj = calibrated_curve(pendulum, 1.0, q0, q1, horizon_cap=3.0, sigma_eff=SIGMA_PEND)
    _, path = minimal_action(pendulum, 0.0, 3.0, [q0], [q1], sigma_eff=SIGMA_PEND,
                             restarts=2)
    ref = reconstruct_trajectory(pendulum, path)
    for got, want in ((traj.times, ref.times), (traj.Q, ref.Q), (traj.P, ref.P),
                      (traj.energy, ref.energy)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("q0, q1", [(0.1, 0.8), (0.8, 0.1)])
def test_calibrated_level_newton_off_the_zero_momentum(q0, q1):
    # H = (p - 0.3)^2 / 2 + p^4 / 8 + cos(2 pi q) / 2: min_p H sits at p != 0
    # and the level momentum takes Newton steps; the reference brackets it
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def value(t, q, p):
        p, q = np.asarray(p)[..., 0], np.asarray(q)[..., 0]
        return 0.5 * (p - 0.3) ** 2 + p ** 4 / 8 + 0.5 * np.cos(2 * np.pi * q)

    def grad(t, q, p):
        return -np.pi * np.sin(2 * np.pi * np.asarray(q)), (p - 0.3) + np.asarray(p) ** 3 / 2

    model = custom_model(value, m=1.0, M=60.0, grad=grad, periodic=True)
    a, sign = 1.5, np.sign(q1 - q0)
    p_min = brentq(lambda p: p - 0.3 + p ** 3 / 2, -1.0, 1.0)

    def speed(q):
        lo, hi = sorted((p_min, p_min + 10 * sign))
        p = brentq(lambda p: value(0, [q], [p]) - a, lo, hi)
        return abs(p - 0.3 + p ** 3 / 2)

    t_ref = sign * quad(lambda q: 1 / speed(q), q0, q1, epsabs=1e-13, epsrel=1e-13)[0]
    traj = calibrated_curve(model, a, q0, q1, horizon_cap=4.0, sigma_eff=0.1)
    assert abs(traj.times[-1] - t_ref) <= 1e-10
    assert abs(traj.Q[-1, 0] - q1) <= 1e-8
    assert np.max(np.abs(traj.energy - a)) <= 1e-8


def test_calibrated_non_autonomous_raises(forced):
    with pytest.raises(ConfigError, match="energy level undefined"):
        calibrated_curve(forced, 1.5, 0.15, 0.45, sigma_eff=SIGMA_PEND)


def test_aubry_masks(free, pendulum):
    # the critical graph: every node is a zero-mean self-loop of the free
    # kernel; the pendulum's only critical cycle is the self-loop at 0
    res = aubry_set(free, grid_n=64, sigma_eff=SIGMA_FREE)
    assert np.all(res.mask)
    resp = aubry_set(pendulum, grid_n=64, sigma_eff=SIGMA_PEND)
    assert resp.marked_nodes().tolist() == [0]


def test_aubry_two_well():
    model = mechanical_model([0.0, 0.0, 0.0, 0.5], m=1.0)
    res = aubry_set(model, grid_n=64, sigma_eff=0.1)
    assert res.marked_nodes().tolist() == [0, 32]
    assert abs(res.alpha - 0.5) <= 1e-2


def test_invariant_sets(free, pendulum):
    sf = weak_kam_solve(free, grid_n=64, alpha=0.0, t_step=0.2, sigma_eff=SIGMA_FREE)
    invf = invariant_set(free, sf.u, t_step=0.2, n_steps=10)
    assert len(invf.points) == 64 and invf.stable

    sp = weak_kam_solve(pendulum, grid_n=64, alpha=1.0, t_step=0.1,
                        sigma_eff=SIGMA_PEND)
    inv = invariant_set(pendulum, sp.u, t_step=0.2, n_steps=40)
    pts = inv.points
    assert len(pts) >= 1
    dist = np.sqrt(np.minimum(pts[:, 0], 1 - pts[:, 0]) ** 2 + pts[:, 1] ** 2)
    assert np.max(dist) <= 1.0 / 64 + 1e-9
    # aubry mask lifts into the surviving set
    resp = aubry_set(pendulum, grid_n=64, sigma_eff=SIGMA_PEND)
    du = (np.roll(sp.u.values, -1) - np.roll(sp.u.values, 1)) * 64 / 2
    for i in resp.marked_nodes():
        dq = pts[:, 0] - i / 64
        dq -= np.round(dq)
        assert np.min(np.sqrt(dq ** 2 + (pts[:, 1] - du[i]) ** 2)) <= inv.tol_graph


def test_invariant_set_step_rule(pendulum, monkeypatch):
    # each flow of t_step = 0.7 takes _steps_for's 350 steps of at most
    # 2e-3, as every other integrator caller does; the truncated quotient
    # 0.7 / 2e-3 would give 349.  tol_graph keeps every seed, so the two
    # stability flows run too
    import hjkam.weakkam as wk
    steps = []
    integrate_batch = wk.integrate_batch

    def recording(model, tau, t, Q0, P0, n_steps, *args, **kwargs):
        steps.append(n_steps)
        return integrate_batch(model, tau, t, Q0, P0, n_steps, *args, **kwargs)

    monkeypatch.setattr(wk, "integrate_batch", recording)
    u = GridFunction(1, 16, 0.1 * np.cos(2 * np.pi * np.arange(16) / 16))
    invariant_set(pendulum, u, t_step=0.7, n_steps=2, tol_graph=10.0)
    assert steps == [350] * 4


def test_calibration_on_aubry_nodes(pendulum):
    # T^t u + t alpha = u = dual - t alpha on the marked set
    from hjkam.laxoleinik import apply_T, apply_T_dual
    res = aubry_set(pendulum, grid_n=64, sigma_eff=SIGMA_PEND)
    u = weak_kam_solve(pendulum, grid_n=64, alpha=res.alpha, t_step=0.1,
                       sigma_eff=SIGMA_PEND).u
    fwd = apply_T(pendulum, u, 0.0, 0.1, sigma_eff=SIGMA_PEND).shifted(0.1 * res.alpha)
    bwd = apply_T_dual(pendulum, u, 0.0, 0.1, sigma_eff=SIGMA_PEND).shifted(-0.1 * res.alpha)
    for i in res.marked_nodes():
        assert abs(fwd.values[i] - u.values[i]) <= 5e-3
        assert abs(bwd.values[i] - u.values[i]) <= 5e-3
