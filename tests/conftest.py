import numpy as np
import pytest

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
