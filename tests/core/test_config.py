"""CarqConfig and RadioConfig validation."""

import pytest

from repro.core.config import CarqConfig
from repro.errors import ConfigurationError
from repro.radio.phy import RadioConfig


class TestCarqConfigDefaults:
    def test_paper_prototype_values(self):
        cfg = CarqConfig()
        assert cfg.coverage_timeout_s == 5.0     # §3.3: "5 seconds"
        assert cfg.hello_period_s == 1.0
        assert cfg.max_batch == 1                # base protocol: one seq/REQUEST
        assert cfg.recovery_range == "platoon"
        assert cfg.buffer_capacity is None

    def test_responder_slot_exceeds_coop_airtime(self):
        """The ordering only prevents duplicates if a lower-order response
        finishes (and is overheard) before the next slot opens."""
        from repro.mac.frames import DataFrame
        from repro.mac.timing import frame_airtime
        from repro.radio.modulation import rate_by_name

        airtime = frame_airtime(
            DataFrame.size_for_payload(1000), rate_by_name("dsss-1")
        )
        assert CarqConfig().responder_slot_s > airtime


class TestCarqConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hello_period_s": 0.0},
            {"hello_jitter_fraction": 1.0},
            {"hello_jitter_fraction": -0.1},
            {"coverage_timeout_s": 0.0},
            {"cooperator_ttl_s": 0.0},
            {"responder_slot_s": 0.0},
            {"request_guard_s": -0.001},
            {"max_batch": 0},
            {"recovery_range": "everything"},
            {"max_stagnant_passes": 0},
            {"buffer_capacity": 0},
            {"buffer_capacity": -1},
            {"buffer_capacity": True},
            {"buffer_capacity": 16.0},
            {"buffer_capacity": "16"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CarqConfig(**kwargs)

    def test_frozen(self):
        cfg = CarqConfig()
        with pytest.raises(Exception):
            cfg.hello_period_s = 2.0  # type: ignore[misc]


class TestRadioConfig:
    def test_noise_floor_derivation(self):
        cfg = RadioConfig(bandwidth_hz=22e6, noise_figure_db=5.0)
        # kTB(22 MHz) ≈ -100.5 dBm, +5 dB NF.
        assert cfg.noise_floor_dbm == pytest.approx(-95.5, abs=0.2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RadioConfig(bandwidth_hz=0.0)
        with pytest.raises(ConfigurationError):
            RadioConfig(noise_figure_db=-1.0)

    def test_default_rate_is_1mbps_dsss(self):
        assert RadioConfig().rate.name == "dsss-1"
