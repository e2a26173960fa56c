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


@pytest.fixture
def set_rho(monkeypatch):
    """Set match_patterns' identification threshold for one test."""
    from pilothop import protocol

    return lambda rho: monkeypatch.setattr(protocol, "RHO", rho)


@pytest.fixture
def replayed(monkeypatch):
    """``run(cfg, n_slots, seed, frame_index=0)``: run_frame and its slot-by-slot
    replay (``reference.replay_frame``), each on ``default_rng(seed)``. Checks
    that they agree, ``==``, in the active set, the rates and the detection map
    run_frame hands to match_patterns, and returns the frame and the replay's
    slots."""
    from pilothop import protocol
    from reference import frame_outputs, replay_frame

    maps, match = [], protocol.match_patterns

    def recorded(detected, *args):
        maps.append(detected.copy())
        return match(detected, *args)

    monkeypatch.setattr(protocol, "match_patterns", recorded)

    def run(cfg, n_slots, seed, frame_index=0):
        fr = protocol.run_frame(cfg, n_slots, np.random.default_rng(seed), frame_index=frame_index)
        active, slots = replay_frame(cfg, n_slots, np.random.default_rng(seed), frame_index)
        rates, detected = frame_outputs(cfg, slots)
        assert np.array_equal(fr.active, active)
        assert np.array_equal(fr.rates, rates)
        assert np.array_equal(maps[-1], detected)
        return fr, slots

    return run
