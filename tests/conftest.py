import pytest

from cvpost import ProtocolConfig, build_joint


@pytest.fixture(scope="session")
def fig2_config():
    """Single-photon squeezing configuration at full working dimension."""
    return ProtocolConfig(reflectivity=0.98, squeezing=0.7, x0=0.025, dim=60)


@pytest.fixture(scope="session")
def fig2_joint(fig2_config):
    return build_joint(fig2_config)

