import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from icci.channel import ChannelGains
from icci.sweep import _sample_rows

settings.register_profile(
    "default",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def worked_channel() -> ChannelGains:
    # symmetric channel with direct power 100 and cross power 10
    return ChannelGains(10.0, math.sqrt(10.0), math.sqrt(10.0), 10.0)


@pytest.fixture
def unit_channel() -> ChannelGains:
    return ChannelGains(1.0, 1.0, 1.0, 1.0)


def seeded_channels(seed: int, count: int, mag_min: float = 1e-3, mag_max: float = 1e3):
    """``sample_gains(seed, i, mag_min, mag_max)`` for i < count, drawn in one pass."""
    return [ChannelGains(*row) for row in _sample_rows(seed, 0, count, mag_min, mag_max).tolist()]
