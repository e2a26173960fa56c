import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pilothop.channels import LogNormalShadowing, RingPathLoss, UniformPowerError

# property tests explore the same cases on every run; the suite stays
# deterministic end to end
settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def power_controlled():
    return UniformPowerError(10.0, 0.0)


@pytest.fixture
def uniform_spread():
    return UniformPowerError(10.0, 0.5)


@pytest.fixture
def shadowed():
    return LogNormalShadowing(10.0, 0.25)


@pytest.fixture
def ring():
    return RingPathLoss(10.0, 0.25)


@pytest.fixture
def search_grid(monkeypatch):
    """Set grid_opt's stage-one points per axis and its refinement points for one test."""
    from pilothop import optimize

    def set_grid(tau_p_points, pak_points, refine_points):
        monkeypatch.setattr(optimize, "TAU_P_POINTS", tau_p_points)
        monkeypatch.setattr(optimize, "PAK_POINTS", pak_points)
        monkeypatch.setattr(optimize, "REFINE_POINTS", refine_points)

    return set_grid
