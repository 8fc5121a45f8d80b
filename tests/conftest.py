import numpy as np
import pytest

from hjkam.flow import _steps_for, integrate_batch
from hjkam.hamiltonian import (forced_model, free_model, mechanical_model,
                               pendulum_model, quadratic_model)

# working twist windows: the pendulum value is covered by an explicit
# scan in test_flow.py::test_certify_pendulum_window
SIGMA_FREE = 0.25
SIGMA_PEND = 0.2


@pytest.fixture(scope="session")
def free():
    return free_model()


@pytest.fixture(scope="session")
def quad2():
    return quadratic_model(2.0)


@pytest.fixture(scope="session")
def pendulum():
    return pendulum_model()


@pytest.fixture(scope="session")
def shifted_pendulum():
    # pendulum plus the constant 0.5: H0 <= H1 comparison pair
    return mechanical_model([0.5, 1.0], m=1.0, M=4 * np.pi ** 2)


@pytest.fixture(scope="session")
def forced():
    return forced_model([0.0, 0.3], epsilon=0.2)


def tight_reference(model, tau, t, Q0, Q1, step):
    """``(W, p, P)`` of the orbits that land on ``Q1``: full Newton from the
    straight-line momentum, with action and monodromy at every iterate, on
    the grid of a solve at ``step``."""
    n_steps = _steps_for(t - tau, step)
    p = (Q1 - Q0) / (t - tau)
    for _ in range(30):
        Q, P, Mono, W = integrate_batch(model, tau, t, Q0, p, n_steps,
                                        want_monodromy=True, want_action=True)
        e = Q1 - Q
        if np.max(np.abs(e)) < 1e-14:
            return W, p, P
        p = p + e / Mono[..., 0, 1:]
    raise AssertionError(f"reference Newton stopped at |e| = {np.max(np.abs(e)):.1e}")
