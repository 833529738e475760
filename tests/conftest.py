import tempfile

import pytest
from hypothesis import configuration

from cvpost import build_joint, fock_state, s_prime, squeezed_number_state


def pytest_configure(config):
    """Even with database=None, hypothesis caches the constants it reads from
    the local source under its storage directory, ./.hypothesis by default,
    as the tests are collected; keep that cache in a directory removed when
    the session ends."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def fig2_joint():
    """Single-photon squeezing configuration (R 0.98, s 0.7) at full working dimension."""
    return build_joint(fock_state(1, 60), 0.98, 0.7)


@pytest.fixture(scope="session")
def fig2_target():
    """Its zero-outcome target S(s')|1>."""
    return squeezed_number_state(1, s_prime(0.98, 0.7), 60)
