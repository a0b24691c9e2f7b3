"""Small-scale fading statistics, over distinct keys."""

import numpy as np
import pytest

from repro.errors import RadioError
from repro.radio.fading import NoFading, RayleighFading, RicianFading


class TestNoFading:
    def test_zero(self):
        assert NoFading().sample_db((1, 1)) == 0.0


class TestRayleigh:
    def test_mean_linear_power_is_unity(self):
        model = RayleighFading(np.random.default_rng(1))
        gains = [10 ** (model.sample_db((1, i)) / 10.0) for i in range(20_000)]
        assert np.mean(gains) == pytest.approx(1.0, rel=0.05)

    def test_produces_deep_fades(self):
        model = RayleighFading(np.random.default_rng(2))
        samples = [model.sample_db((1, i)) for i in range(5_000)]
        assert min(samples) < -15.0  # deep fades exist

    def test_no_infinities(self):
        model = RayleighFading(np.random.default_rng(3))
        assert all(np.isfinite(model.sample_db((1, i))) for i in range(1000))


class TestRician:
    def test_mean_linear_power_is_unity(self):
        model = RicianFading(np.random.default_rng(4), k_factor=4.0)
        gains = [10 ** (model.sample_db((1, i)) / 10.0) for i in range(20_000)]
        assert np.mean(gains) == pytest.approx(1.0, rel=0.05)

    def test_large_k_approaches_no_fading(self):
        model = RicianFading(np.random.default_rng(5), k_factor=1000.0)
        samples = [model.sample_db((1, i)) for i in range(1000)]
        assert np.std(samples) < 0.5

    def test_small_k_has_more_spread_than_large_k(self):
        low = RicianFading(np.random.default_rng(6), k_factor=0.5)
        high = RicianFading(np.random.default_rng(6), k_factor=20.0)
        spread_low = np.std([low.sample_db((1, i)) for i in range(5000)])
        spread_high = np.std([high.sample_db((1, i)) for i in range(5000)])
        assert spread_low > spread_high

    def test_negative_k_rejected(self):
        with pytest.raises(RadioError):
            RicianFading(np.random.default_rng(7), k_factor=-1.0)
