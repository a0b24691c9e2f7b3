"""Shadowing processes: correlation structure and composition."""

import math

import numpy as np
import pytest

from repro.errors import RadioError
from repro.geom import Vec2
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    NoShadowing,
    TemporalTxShadowing,
)
from repro.radio.keyed import stable_hash64


def rng():
    return np.random.default_rng(123)


class TestNoShadowing:
    def test_always_zero(self):
        model = NoShadowing()
        assert model.sample_db(("a", "b"), Vec2(0, 0), Vec2(5, 5)) == 0.0

    def test_reset_is_noop(self):
        NoShadowing().reset()


class TestGudmundson:
    def test_stationary_link_keeps_value(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        link = ("ap", "car")
        first = model.sample_db(link, Vec2(0, 0), Vec2(10, 0))
        second = model.sample_db(link, Vec2(0, 0), Vec2(10, 0))
        assert second == pytest.approx(first)

    def test_long_movement_decorrelates(self):
        model = GudmundsonShadowing(
            rng(), sigma_db=6.0, decorrelation_distance_m=10.0
        )
        link = ("ap", "car")
        values = [model.sample_db(link, Vec2(0, 0), Vec2(1000.0 * i, 0)) for i in range(300)]
        # Essentially i.i.d. N(0, 6²): sample std close to 6.
        assert np.std(values) == pytest.approx(6.0, rel=0.25)

    def test_small_steps_are_correlated(self):
        model = GudmundsonShadowing(
            rng(), sigma_db=6.0, decorrelation_distance_m=50.0
        )
        link = ("ap", "car")
        previous = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        diffs = []
        for i in range(1, 200):
            value = model.sample_db(link, Vec2(0, 0), Vec2(0.5 * i, 0))
            diffs.append(value - previous)
            previous = value
        # Step-to-step changes must be much smaller than the marginal std.
        assert np.std(diffs) < 2.5

    def test_different_links_independent(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        a = [model.sample_db(("ap", f"c{i}"), Vec2(0, 0), Vec2(5, 0)) for i in range(200)]
        assert np.std(a) == pytest.approx(6.0, rel=0.3)

    def test_reset_forgets_state(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        link = ("ap", "car")
        first = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        model.reset()
        second = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        assert first != second  # fresh draw, not the stored value

    def test_head_on_pass_decorrelates(self):
        """Two cars passing each other must not share one frozen draw.

        In a head-on pass the endpoint position *sum* is stationary —
        only the separation changes — so the field must also be indexed
        by separation (regression for the bidirectional scenario's
        oncoming-car links).
        """
        model = GudmundsonShadowing(
            rng(), sigma_db=6.0, decorrelation_distance_m=10.0
        )
        link = ("east", "west")
        values = [
            model.sample_db(link, Vec2(25.0 * t, 0.0), Vec2(1000.0 - 25.0 * t, 3.0))
            for t in range(40)
        ]
        assert np.std(values) > 2.0  # decorrelates over the pass
        assert len(set(values)) > 10  # not one frozen realisation

    def test_reciprocal_in_endpoint_order(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        link = ("a", "b")
        forward = model.sample_db(link, Vec2(3, 1), Vec2(40, 2))
        reverse = model.sample_db(link, Vec2(40, 2), Vec2(3, 1))
        assert forward == pytest.approx(reverse)

    @pytest.mark.parametrize("path", ["scalar", "batch"])
    def test_link_keeps_one_cell_and_values_do_not_depend_on_it(self, path):
        """A link driven through dozens of lattice cells leaves one memo
        entry, and its values equal those of a fresh model that samples
        the same points in reverse order: every corner Gaussian is a
        pure keyed value, so forgetting a cell loses nothing."""
        link = ("ap", "car")
        tx = Vec2(0.0, 0.0)
        rxs = [Vec2(7.0 * i, 40.0 + 0.3 * i) for i in range(60)]
        cell_m = 10.0
        cells = {
            (
                math.floor((tx.x + rx.x) / cell_m),
                math.floor((tx.y + rx.y) / cell_m),
                math.floor(tx.distance_to(rx) / cell_m),
            )
            for rx in rxs
        }
        assert len(cells) >= 20

        def sample(model, rx):
            if path == "scalar":
                return model.sample_db(link, tx, rx)
            return model.sample_db_batch(
                [link],
                np.array([stable_hash64(link)], dtype=np.uint64),
                tx,
                np.array([rx.x]),
                np.array([rx.y]),
                np.array([tx.distance_to(rx)]),
            )[0]

        forward, backward = (
            GudmundsonShadowing(rng(), sigma_db=6.0, decorrelation_distance_m=cell_m)
            for _ in range(2)
        )
        values = [sample(forward, rx) for rx in rxs]
        assert len(forward._corner_blocks) == 1
        reverse = [sample(backward, rx) for rx in reversed(rxs)]
        assert len(backward._corner_blocks) == 1
        assert values == reverse[::-1]

    def test_validation(self):
        with pytest.raises(RadioError):
            GudmundsonShadowing(rng(), sigma_db=-1.0)
        with pytest.raises(RadioError):
            GudmundsonShadowing(rng(), decorrelation_distance_m=0.0)


class TestTemporalTx:
    def test_same_instant_same_value_for_all_hub_links(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=2.0, hub="ap")
        a = model.sample_db(("ap", "car1"), Vec2(0, 0), Vec2(5, 0), time=1.0)
        b = model.sample_db(("car2", "ap"), Vec2(0, 0), Vec2(9, 0), time=1.0)
        assert b == pytest.approx(a)

    def test_non_hub_links_have_own_processes(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=2.0, hub="ap")
        a = model.sample_db(("car1", "car2"), Vec2(0, 0), Vec2(5, 0), time=1.0)
        b = model.sample_db(("car1", "car3"), Vec2(0, 0), Vec2(5, 0), time=1.0)
        assert a != b

    def test_long_gap_decorrelates(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=1.0, hub="ap")
        values = [
            model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=100.0 * i)
            for i in range(300)
        ]
        assert np.std(values) == pytest.approx(4.0, rel=0.25)

    def test_short_gap_correlated(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=10.0, hub="ap")
        v0 = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.0)
        v1 = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.01)
        assert abs(v1 - v0) < 1.0

    def test_validation(self):
        with pytest.raises(RadioError):
            TemporalTxShadowing(rng(), sigma_db=-1.0)
        with pytest.raises(RadioError):
            TemporalTxShadowing(rng(), tau_s=0.0)

    def test_reset(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, hub="ap")
        first = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.0)
        model.reset()
        second = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.0)
        assert first != second


class TestComposite:
    def test_sums_components(self):
        class Constant(NoShadowing):
            def __init__(self, value):
                self.value = value

            def sample_db(self, link, tx_pos, rx_pos, time=0.0):
                return self.value

        model = CompositeShadowing([Constant(2.0), Constant(-0.5)])
        assert model.sample_db(("a", "b"), Vec2(0, 0), Vec2(0, 0)) == pytest.approx(1.5)

    def test_requires_components(self):
        with pytest.raises(RadioError):
            CompositeShadowing([])

    def test_reset_propagates(self):
        inner = GudmundsonShadowing(rng(), sigma_db=6.0)
        model = CompositeShadowing([inner])
        link = ("a", "b")
        first = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        model.reset()
        second = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        assert first != second
