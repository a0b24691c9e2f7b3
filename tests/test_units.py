"""Unit-conversion helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestDecibels:
    def test_db_to_linear_zero_db_is_unity(self):
        assert units.db_to_linear(0.0) == pytest.approx(1.0)

    def test_db_to_linear_ten_db_is_ten(self):
        assert units.db_to_linear(10.0) == pytest.approx(10.0)

    def test_linear_to_db_inverse(self):
        assert units.linear_to_db(100.0) == pytest.approx(20.0)

    def test_linear_to_db_rejects_zero(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)

    def test_linear_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            units.linear_to_db(-3.0)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_roundtrip(self, value_db):
        assert units.linear_to_db(units.db_to_linear(value_db)) == pytest.approx(
            value_db, abs=1e-9
        )

    def test_dbm_watts_known_point(self):
        # 30 dBm = 1 W.
        assert units.dbm_to_watts(30.0) == pytest.approx(1.0)
        assert units.watts_to_dbm(1.0) == pytest.approx(30.0)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.watts_to_dbm(0.0)

    def test_dbm_sum_of_equal_powers_adds_three_db(self):
        assert units.dbm_sum(0.0, 0.0) == pytest.approx(3.0103, abs=1e-3)

    def test_dbm_sum_single_value_identity(self):
        assert units.dbm_sum(-42.0) == pytest.approx(-42.0)

    def test_dbm_sum_requires_values(self):
        with pytest.raises(ValueError):
            units.dbm_sum()

    def test_dbm_sum_dominated_by_strongest(self):
        total = units.dbm_sum(-50.0, -90.0)
        assert total == pytest.approx(-50.0, abs=0.01)


class TestConversions:
    def test_kmh_roundtrip(self):
        assert units.ms_to_kmh(units.kmh_to_ms(72.0)) == pytest.approx(72.0)

    def test_twenty_kmh_in_ms(self):
        assert units.kmh_to_ms(20.0) == pytest.approx(5.5556, abs=1e-3)

    def test_bytes_to_bits(self):
        assert units.bytes_to_bits(1000) == 8000

    def test_transmission_time_1000_bytes_at_1mbps(self):
        assert units.transmission_time(1000, units.MBPS) == pytest.approx(0.008)

    def test_transmission_time_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            units.transmission_time(100, 0.0)

    def test_transmission_time_rejects_negative_size(self):
        with pytest.raises(ValueError):
            units.transmission_time(-1, units.MBPS)


class TestThermalNoise:
    def test_noise_floor_22mhz(self):
        # kTB at 290 K over 22 MHz ≈ -100.5 dBm.
        assert units.thermal_noise_dbm(22e6) == pytest.approx(-100.55, abs=0.1)

    def test_noise_figure_adds_directly(self):
        base = units.thermal_noise_dbm(20e6)
        assert units.thermal_noise_dbm(20e6, 5.0) == pytest.approx(base + 5.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            units.thermal_noise_dbm(0.0)

    def test_psd_constant_is_minus_174(self):
        assert units.THERMAL_NOISE_DBM_PER_HZ == pytest.approx(-173.98, abs=0.05)
