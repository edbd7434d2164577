import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def nan_weights(monkeypatch):
    """`nan_weights(j)` makes the gradient-penalty interpolation weights of
    discriminator chain j NaN in every later `train`, so that chain
    diverges in epoch 1."""
    from fraudsig import training

    class NaNWeights:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def uniform(self, size):
            return np.full(size, np.nan)

    real = training.derive_rng

    def patch(chain: int) -> None:
        def derive_rng(seed, *key):
            # Key (4, j) seeds discriminator chain j's stream.
            return NaNWeights(real(seed, *key)) if key == (4, chain) else real(seed, *key)

        monkeypatch.setattr(training, "derive_rng", derive_rng)

    return patch
