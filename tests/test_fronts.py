import numpy as np
import pytest

from hjkam.errors import ConfigError, ExistenceHorizonExceeded
from hjkam.generating import classical_cauchy, lip_of_samples, propagate_front

QS = np.linspace(-1, 1, 401)
FRONT = (QS, -2 * QS, -QS ** 2)       # (q, du0, u0)
CAUCHY = (QS, -QS ** 2, -2 * QS)      # (q, u0, du0)


def test_zero_section_invariant(free):
    qs = np.linspace(-1, 1, 51)
    front = propagate_front(free, (qs, np.zeros(51), np.zeros(51)), 0.7)
    assert not front.fold_flag
    assert np.allclose(front.q, qs) and np.allclose(front.p, 0.0)
    assert np.allclose(front.w, 0.0)


def test_quadratic_fold_at_half(free):
    # characteristics q0 (1 - 2t) all meet at t = 1/2
    fold_at = None
    for t in np.arange(0.40, 0.601, 0.005):
        if propagate_front(free, FRONT, float(t)).fold_flag:
            fold_at = t
            break
    assert fold_at is not None and abs(fold_at - 0.5) <= 0.0100001


def test_front_matches_cauchy_slope(free):
    # du_t(q) = -2q / (1 - 2t) for the quadratic data
    t = 0.25
    front = propagate_front(free, FRONT, t)
    assert not front.fold_flag
    query = np.linspace(-0.4, 0.4, 17)
    u, du = classical_cauchy(free, CAUCHY, t, query, allow_past_horizon=True)
    p_interp = np.interp(query, front.q, front.p)
    assert np.max(np.abs(p_interp - du)) < 1e-6
    assert np.max(np.abs(du - (-2 * query / (1 - 2 * t)))) < 1e-6


def test_inconsistent_graph_rejected(free):
    qs = np.linspace(-1, 1, 101)
    with pytest.raises(ConfigError):
        propagate_front(free, (qs, -2 * qs, np.cos(qs)), 0.1)


@pytest.mark.parametrize("qs", [[-1.0, -0.5, 0.0, 0.0, 0.5, 1.0], [0.0]],
                         ids=["repeated", "single"])
def test_cauchy_positions_must_be_distinct(free, qs):
    # a repeated position, or a lone one, has no slope: Lip(du0) is undefined
    qs = np.array(qs)
    with pytest.raises(ConfigError, match="distinct"):
        classical_cauchy(free, (qs, -qs ** 2, -2 * qs), 0.05, [0.0])


def test_horizon_formula(free):
    # Lip(du0) = 2, M = 1: T = 1/12; 0.08 accepted, 0.09 refused
    query = np.linspace(-0.5, 0.5, 21)
    u, du = classical_cauchy(free, CAUCHY, 0.08, query)
    exact = -query ** 2 / (1 - 2 * 0.08)
    assert np.max(np.abs(u - exact)) < 1e-6
    with pytest.raises(ExistenceHorizonExceeded):
        classical_cauchy(free, CAUCHY, 0.09, query)
    with pytest.raises(ExistenceHorizonExceeded):
        classical_cauchy(free, CAUCHY, 1.0 / 12.0, query)


def test_constant_initial_condition(free):
    qs = np.linspace(-1, 1, 101)
    u, du = classical_cauchy(free, (qs, np.full(101, 2.5), np.zeros(101)), 0.1,
                             np.linspace(-0.5, 0.5, 11))
    assert np.max(np.abs(u - 2.5)) < 1e-12
    assert np.max(np.abs(du)) < 1e-12


def test_override_exact_solution(free):
    # u(t, q) = -q^2 / (1 - 2t): valid past T while the front is a graph
    u, du = classical_cauchy(free, CAUCHY, 0.25, np.array([0.5]),
                             allow_past_horizon=True)
    assert abs(u[0] + 0.5) < 1e-9
    assert abs(du[0] + 2.0) < 1e-7


def test_lipschitz_growth_bound(free):
    t = 0.08
    front = propagate_front(free, FRONT, t)
    ell = 2.0
    measured = lip_of_samples(front.q, front.p)
    bound = ell + 4 * t * free.M * (1 + ell) ** 2
    assert measured <= bound + 1e-6


def test_in_flow_margin_enforced(free):
    with pytest.raises(ConfigError):
        classical_cauchy(free, CAUCHY, 0.08, np.array([0.95]))


def test_front_replay_invariant(pendulum):
    # replaying the flow from a recorded seed reproduces the sample
    from hjkam.flow import integrate_flow
    qs = np.linspace(0.1, 0.4, 31)
    du0 = 0.5 * np.cos(2 * np.pi * qs)
    u0 = 0.5 * np.sin(2 * np.pi * qs) / (2 * np.pi)
    front = propagate_front(pendulum, (qs, du0, u0), 0.3)
    i = 17
    seed_q = front.seeds[i]
    seed_p = 0.5 * np.cos(2 * np.pi * seed_q)
    traj = integrate_flow(pendulum, ([seed_q], [seed_p]), 0.0, 0.3, step=1e-3)
    assert abs(traj.terminal.q[0] - front.q[i]) < 1e-6
    assert abs(traj.terminal.p[0] - front.p[i]) < 1e-6


def test_escaping_samples_dropped():
    # samples whose characteristics blow up are dropped and counted
    from hjkam.hamiltonian import custom_model
    runaway = custom_model(lambda t, q, p: 0.5 * np.sum(p * p, axis=-1)
                           - 25.0 * np.sum(q ** 4, axis=-1), m=1.0, M=1.0)
    qs = np.linspace(-2.0, 2.0, 41)
    front = propagate_front(runaway, (qs, np.zeros(41), np.zeros(41)), 3.0)
    assert front.dropped > 0
    assert len(front.q) + front.dropped == 41


def test_front_csv(tmp_path, free):
    front = propagate_front(free, FRONT, 0.2)
    path = tmp_path / "front.csv"
    front.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "q,p,w"
    assert len(lines) == len(front.q) + 1
