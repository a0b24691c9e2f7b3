"""Channel façade: link budget assembly and delivery draws."""

import numpy as np
import pytest

from repro.geom import Vec2
from repro.radio.channel import Channel
from repro.radio.modulation import rate_by_name
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.obstruction import BuildingObstruction
from repro.geom.shapes import AxisRect
from repro.radio.shadowing import NoShadowing

RATE = rate_by_name("dsss-1")


def ideal_channel():
    return Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        shadowing=NoShadowing(),
        rng=np.random.default_rng(0),
    )


class TestLinkKey:
    def test_symmetric(self):
        assert Channel.link_key(1, 2) == Channel.link_key(2, 1)

    def test_distinct_links_distinct_keys(self):
        assert Channel.link_key(1, 2) != Channel.link_key(1, 3)


class TestSample:
    def test_deterministic_without_random_components(self):
        channel = ideal_channel()
        s1 = channel.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        s2 = channel.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        assert s1.rx_power_dbm == s2.rx_power_dbm

    def test_budget_arithmetic(self):
        channel = ideal_channel()
        sample = channel.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        # 15 dBm - (40 + 30·log10(10)) = 15 - 70 = -55 dBm.
        assert sample.rx_power_dbm == pytest.approx(-55.0)
        assert sample.mean_rx_power_dbm == pytest.approx(-55.0)
        assert sample.distance_m == pytest.approx(10.0)

    def test_rx_gain_adds(self):
        channel = ideal_channel()
        with_gain = channel.sample(
            "a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, rx_gain_db=6.0, tx_seq=1
        )
        assert with_gain.rx_power_dbm == pytest.approx(-49.0)

    def test_power_decreases_with_distance(self):
        channel = ideal_channel()
        near = channel.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        far = channel.sample("a", "b", Vec2(0, 0), Vec2(100, 0), 15.0, tx_seq=1)
        assert far.rx_power_dbm < near.rx_power_dbm

    def test_obstruction_applied(self):
        blocked = Channel(
            pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
            obstruction=BuildingObstruction(
                [AxisRect(4.0, -1.0, 6.0, 1.0)], loss_per_building_db=30.0
            ),
            rng=np.random.default_rng(0),
        )
        clear = ideal_channel()
        b = blocked.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        c = clear.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        assert b.rx_power_dbm == pytest.approx(c.rx_power_dbm - 30.0)


class TestDelivery:
    def test_strong_signal_always_delivered(self):
        channel = ideal_channel()
        sample = channel.sample("a", "b", Vec2(0, 0), Vec2(5, 0), 15.0, tx_seq=1)

        class F:
            size_bytes = 1000

        assert all(
            channel.frame_delivered(sample, RATE, F(), -95.0) for _ in range(100)
        )

    def test_buried_signal_never_delivered(self):
        channel = ideal_channel()
        sample = channel.sample("a", "b", Vec2(0, 0), Vec2(5000, 0), 15.0, tx_seq=1)

        class F:
            size_bytes = 1000

        assert not any(
            channel.frame_delivered(sample, RATE, F(), -95.0) for _ in range(100)
        )

    def test_reset_clears_shadowing(self):
        from repro.radio.shadowing import GudmundsonShadowing

        shadowing = GudmundsonShadowing(np.random.default_rng(1), sigma_db=6.0)
        channel = Channel(shadowing=shadowing, rng=np.random.default_rng(2))
        s1 = channel.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        channel.reset()
        s2 = channel.sample("a", "b", Vec2(0, 0), Vec2(10, 0), 15.0, tx_seq=1)
        assert s1.rx_power_dbm != s2.rx_power_dbm
