"""Property pin: the batch channel kernel is bit-identical to the scalar path.

Every ``*_batch`` method must return, lane for lane, *exactly* the float
the scalar reference produces — ``==``, never ``isclose``.  Hypothesis
drives random topologies, link identities, and keys through each layer
(path loss, obstruction, shadowing, fading, the channel façade) and the
full medium broadcast, so any reordering of float operations or
NumPy/libm divergence fails loudly here before it can rot the
scenario-level A/B pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import Vec2
from repro.geom.shapes import AxisRect
from repro.radio.batch import DRAW_CROSSOVER, broadcast_samples
from repro.radio.channel import Channel
from repro.radio.fading import NoFading, RayleighFading, RicianFading
from repro.radio.obstruction import BuildingObstruction
from repro.radio.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    TwoRayGroundPathLoss,
)
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    NoShadowing,
    TemporalTxShadowing,
)

coords = st.floats(
    min_value=-5e3, max_value=5e3, allow_nan=False, allow_infinity=False
)
distances = st.lists(
    st.floats(min_value=0.0, max_value=2e4, allow_nan=False),
    min_size=1,
    max_size=40,
)


def positions_strategy(max_size=24):
    return st.lists(st.tuples(coords, coords), min_size=1, max_size=max_size)


@st.composite
def topology(draw, max_nodes=24):
    tx = draw(st.tuples(coords, coords))
    rxs = draw(positions_strategy(max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return tx, rxs, seed


class TestPathLossBatchParity:
    @given(distances)
    def test_log_distance(self, values):
        model = LogDistancePathLoss(exponent=3.2, reference_loss_db=41.0)
        arr = np.array(values)
        assert np.array_equal(
            model.loss_db_batch(arr), np.array([model.loss_db(d) for d in values])
        )

    @given(distances)
    def test_free_space(self, values):
        model = FreeSpacePathLoss()
        arr = np.array(values)
        assert np.array_equal(
            model.loss_db_batch(arr), np.array([model.loss_db(d) for d in values])
        )

    @given(distances)
    def test_two_ray(self, values):
        model = TwoRayGroundPathLoss(tx_height_m=6.0, rx_height_m=1.5)
        arr = np.array(values)
        assert np.array_equal(
            model.loss_db_batch(arr), np.array([model.loss_db(d) for d in values])
        )


class TestObstructionBatchParity:
    @given(topology(max_nodes=12))
    def test_buildings(self, topo):
        (tx_x, tx_y), rxs, _ = topo
        model = BuildingObstruction(
            [AxisRect(-50.0, -50.0, 60.0, 40.0)],
            loss_per_building_db=28.0,
        )
        tx = Vec2(tx_x, tx_y)
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        expected = np.array(
            [model.extra_loss_db(tx, Vec2(x, y)) for x, y in rxs]
        )
        assert np.array_equal(model.extra_loss_db_batch(tx, xs, ys), expected)


def _links_for(rxs):
    links = [(0, i + 1) for i in range(len(rxs))]
    from repro.radio.keyed import stable_hash64

    hashes = np.empty(len(rxs), dtype=np.uint64)
    for i, link in enumerate(links):
        hashes[i] = stable_hash64(link)
    return links, hashes


class TestShadowingBatchParity:
    @settings(deadline=None)
    @given(topology())
    def test_gudmundson(self, topo):
        (tx_x, tx_y), rxs, seed = topo
        model = GudmundsonShadowing(
            np.random.default_rng(seed), sigma_db=5.0, decorrelation_distance_m=17.0
        )
        tx = Vec2(tx_x, tx_y)
        links, hashes = _links_for(rxs)
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        dists = np.array([tx.distance_to(Vec2(x, y)) for x, y in rxs])
        batch = model.sample_db_batch(links, hashes, tx, xs, ys, dists)
        reference = np.array(
            [model.sample_db(link, tx, Vec2(x, y)) for link, (x, y) in zip(links, rxs)]
        )
        assert np.array_equal(batch, reference)
        # Second pass hits the corner-block memo — still identical.
        assert np.array_equal(
            model.sample_db_batch(links, hashes, tx, xs, ys, dists), reference
        )

    @settings(deadline=None)
    @given(topology())
    def test_gudmundson_scalar_and_batch_fill_the_same_memo(self, topo):
        """Scalar samples on a fresh model memoise exactly the corner
        blocks the batch path draws on another fresh model."""
        (tx_x, tx_y), rxs, seed = topo
        scalar_model, batch_model = (
            GudmundsonShadowing(
                np.random.default_rng(seed), sigma_db=5.0,
                decorrelation_distance_m=17.0,
            )
            for _ in range(2)
        )
        tx = Vec2(tx_x, tx_y)
        links, hashes = _links_for(rxs)
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        dists = np.array([tx.distance_to(Vec2(x, y)) for x, y in rxs])
        reference = np.array(
            [
                scalar_model.sample_db(link, tx, Vec2(x, y))
                for link, (x, y) in zip(links, rxs)
            ]
        )
        batch = batch_model.sample_db_batch(links, hashes, tx, xs, ys, dists)
        assert np.array_equal(batch, reference)
        assert scalar_model._corner_blocks == batch_model._corner_blocks
        # The batch path reading blocks the scalar path filled.
        assert np.array_equal(
            scalar_model.sample_db_batch(links, hashes, tx, xs, ys, dists),
            reference,
        )

    @settings(deadline=None)
    @given(topology(), st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_temporal_tx_with_hub(self, topo, time):
        (tx_x, tx_y), rxs, seed = topo
        model = TemporalTxShadowing(
            np.random.default_rng(seed), sigma_db=4.0, tau_s=2.0, hub=0
        )
        tx = Vec2(tx_x, tx_y)
        links, hashes = _links_for(rxs)
        # Make some links hub-free so both process shapes are exercised.
        links = [
            link if i % 3 else (i + 1, i + 100) for i, link in enumerate(links)
        ]
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        dists = np.array([tx.distance_to(Vec2(x, y)) for x, y in rxs])
        batch = model.sample_db_batch(links, hashes, tx, xs, ys, dists, time)
        reference = np.array(
            [
                model.sample_db(link, tx, Vec2(x, y), time)
                for link, (x, y) in zip(links, rxs)
            ]
        )
        assert np.array_equal(batch, reference)

    def test_temporal_tx_advances_like_scalar_over_time(self):
        scalar = TemporalTxShadowing(
            np.random.default_rng(3), sigma_db=4.0, tau_s=1.0, hub=None
        )
        batch = TemporalTxShadowing(
            np.random.default_rng(3), sigma_db=4.0, tau_s=1.0, hub=None
        )
        rxs = [(10.0 * i, 0.0) for i in range(8)]
        links, hashes = _links_for(rxs)
        tx = Vec2(0.0, 0.0)
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        dists = np.hypot(xs, ys)
        # Interleaved queries at increasing times: the lazily advanced
        # chains must stay in lockstep between the two instances.
        for time in [0.0, 0.3, 1.7, 1.8, 6.0, 6.1, 30.0]:
            reference = np.array(
                [
                    scalar.sample_db(link, tx, Vec2(x, y), time)
                    for link, (x, y) in zip(links, rxs)
                ]
            )
            got = batch.sample_db_batch(links, hashes, tx, xs, ys, dists, time)
            assert np.array_equal(got, reference)

    @settings(deadline=None)
    @given(topology())
    def test_composite(self, topo):
        (tx_x, tx_y), rxs, seed = topo
        model = CompositeShadowing(
            [
                GudmundsonShadowing(np.random.default_rng(seed), sigma_db=3.0),
                TemporalTxShadowing(
                    np.random.default_rng(seed + 1), sigma_db=2.0, hub=0
                ),
            ]
        )
        tx = Vec2(tx_x, tx_y)
        links, hashes = _links_for(rxs)
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        dists = np.array([tx.distance_to(Vec2(x, y)) for x, y in rxs])
        batch = model.sample_db_batch(links, hashes, tx, xs, ys, dists)
        reference = np.array(
            [model.sample_db(link, tx, Vec2(x, y)) for link, (x, y) in zip(links, rxs)]
        )
        assert np.array_equal(batch, reference)


class TestFadingBatchParity:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=40),
    )
    def test_rician(self, seed, tx_seq, n):
        model = RicianFading(np.random.default_rng(seed), k_factor=4.0)
        hashes = np.random.default_rng(seed + 1).integers(
            0, 1 << 63, n
        ).astype(np.uint64)
        batch = model.sample_db_batch(hashes, tx_seq)
        reference = np.array(
            [model.sample_db((int(h), tx_seq)) for h in hashes.tolist()]
        )
        assert np.array_equal(batch, reference)

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_rayleigh(self, seed, tx_seq):
        model = RayleighFading(np.random.default_rng(seed))
        hashes = np.random.default_rng(seed + 1).integers(
            0, 1 << 63, 32
        ).astype(np.uint64)
        batch = model.sample_db_batch(hashes, tx_seq)
        reference = np.array(
            [model.sample_db((int(h), tx_seq)) for h in hashes.tolist()]
        )
        assert np.array_equal(batch, reference)


def _full_channel(seed):
    return Channel(
        pathloss=LogDistancePathLoss(exponent=3.4, reference_loss_db=40.0),
        shadowing=CompositeShadowing(
            [
                GudmundsonShadowing(np.random.default_rng(seed), sigma_db=4.0),
                TemporalTxShadowing(
                    np.random.default_rng(seed + 1), sigma_db=3.0, hub=0
                ),
            ]
        ),
        fading=RicianFading(np.random.default_rng(seed + 2), k_factor=4.0),
        rng=np.random.default_rng(seed + 3),
    )


def _scalar_pipeline(channel, tx, rxs, thresholds, headroom, tx_seq):
    """The medium's scalar loop: cull, sample, sensitivity filter.

    Returns ``(lane, sample)`` per kept receiver; receiver ``i`` has
    node id ``i + 1``, the transmitter is node 0 at 17 dBm.
    """
    kept = []
    for i, (x, y) in enumerate(rxs):
        budget = channel.link_budget(tx, Vec2(x, y))
        if 17.0 + 0.0 - budget[1] + headroom < thresholds[i]:
            continue
        sample = channel.sample(
            0, i + 1, tx, Vec2(x, y), 17.0, 0.0,
            time=0.25, tx_seq=tx_seq, budget=budget,
        )
        if sample.mean_rx_power_dbm >= thresholds[i]:
            kept.append((i, sample))
    return kept


class TestChannelBatchParity:
    """The satellite property pin: for random topologies and keys, the
    batch kernel's output arrays equal the scalar reference lane for
    lane — ``==``, not ``isclose``."""

    @settings(deadline=None, max_examples=60)
    @given(topology(), st.integers(min_value=1, max_value=100_000))
    def test_sample_batch_equals_scalar_samples(self, topo, tx_seq):
        (tx_x, tx_y), rxs, seed = topo
        channel = _full_channel(seed)
        tx = Vec2(tx_x, tx_y)
        rx_ids = [i + 1 for i in range(len(rxs))]
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        budget = channel.link_budget_batch(tx, xs, ys)
        rx_power, mean_power = channel.sample_batch(
            0, rx_ids, tx, xs, ys, 17.0, np.zeros(len(rxs)), 0.25, tx_seq, budget
        )
        for i, (x, y) in enumerate(rxs):
            sample = channel.sample(
                0, rx_ids[i], tx, Vec2(x, y), 17.0, 0.0, time=0.25, tx_seq=tx_seq
            )
            assert rx_power[i] == sample.rx_power_dbm
            assert mean_power[i] == sample.mean_rx_power_dbm
            assert budget[0][i] == sample.distance_m

    @settings(deadline=None, max_examples=60)
    @given(topology())
    def test_link_budget_batch_equals_scalar(self, topo):
        (tx_x, tx_y), rxs, seed = topo
        channel = _full_channel(seed)
        tx = Vec2(tx_x, tx_y)
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        dists, losses = channel.link_budget_batch(tx, xs, ys)
        for i, (x, y) in enumerate(rxs):
            d, loss = channel.link_budget(tx, Vec2(x, y))
            assert dists[i] == d
            assert losses[i] == loss

    @settings(deadline=None, max_examples=40)
    @given(topology(), st.integers(min_value=1, max_value=100_000))
    def test_broadcast_samples_equals_scalar_pipeline(self, topo, tx_seq):
        """The whole kernel: cull + sample + sensitivity filter."""
        (tx_x, tx_y), rxs, seed = topo
        channel = _full_channel(seed)
        tx = Vec2(tx_x, tx_y)
        rx_ids = [i + 1 for i in range(len(rxs))]
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        thresholds = np.full(len(rxs), -105.0)
        headroom = 12.0
        result = broadcast_samples(
            channel, 0, rx_ids, tx, xs, ys, np.zeros(len(rxs)), thresholds,
            17.0, headroom, 0.25, tx_seq,
        )
        kept = _scalar_pipeline(
            channel, tx, rxs, thresholds.tolist(), headroom, tx_seq
        )
        # LinkSample equality compares every field with float ==.
        assert result == kept


class TestDrawCrossover:
    """Explicit topologies on both sides of ``DRAW_CROSSOVER``.

    Below it the kernel draws each survivor of the cull with the scalar
    ``Channel.sample``; at and above it, in one vectorized pass.  Either
    way its ``(lane, LinkSample)`` pairs equal the scalar pipeline's, run
    on an independent channel of the same seed, so no memo is shared with
    the kernel.
    """

    @staticmethod
    def _topology(reachable):
        # Survivors 25–425 m from the transmitter (the far ones sit in
        # the band where the sensitivity filter drops some), interleaved
        # with lanes 20 km and more out that the reachability bound culls.
        rxs = []
        for i in range(reachable):
            rxs.append((25.0 * (i + 1), 7.0 * (i % 3)))
            rxs.append((20_000.0 + 2_000.0 * i, -40.0))
        return rxs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "reachable", [DRAW_CROSSOVER - 1, DRAW_CROSSOVER, DRAW_CROSSOVER + 1]
    )
    def test_broadcast_samples_equals_scalar_pipeline(
        self, reachable, seed, monkeypatch
    ):
        rxs = self._topology(reachable)
        tx = Vec2(-10.0, 3.0)
        tx_seq = 4242 + seed
        rx_ids = [i + 1 for i in range(len(rxs))]
        xs = np.array([x for x, _ in rxs])
        ys = np.array([y for _, y in rxs])
        thresholds = np.full(len(rxs), -105.0)
        headroom = 12.0
        channel = _full_channel(seed)
        losses = channel.link_budget_batch(tx, xs, ys)[1]
        assert np.count_nonzero(17.0 - losses + headroom >= thresholds) == reachable

        scalar_draws = []
        scalar_sample = Channel.sample

        def counted_sample(self, *args, **kwargs):
            scalar_draws.append(args[1])
            return scalar_sample(self, *args, **kwargs)

        monkeypatch.setattr(Channel, "sample", counted_sample)
        result = broadcast_samples(
            channel, 0, rx_ids, tx, xs, ys, np.zeros(len(rxs)), thresholds,
            17.0, headroom, 0.25, tx_seq,
        )
        monkeypatch.undo()
        if reachable < DRAW_CROSSOVER:
            assert scalar_draws == rx_ids[0::2]  # every survivor, in order
        else:
            assert scalar_draws == []

        kept = _scalar_pipeline(
            _full_channel(seed), tx, rxs, thresholds.tolist(), headroom, tx_seq
        )
        assert 0 < len(kept) < reachable  # the sensitivity filter bites
        assert result == kept

    def test_no_survivor_after_the_sensitivity_filter(self):
        # Reachable (inside the 12 dB headroom) but below sensitivity on
        # every draw: both branches return no pairs.
        tx = Vec2(0.0, 0.0)
        for reachable in (DRAW_CROSSOVER - 1, DRAW_CROSSOVER):
            xs = np.full(reachable, 560.0)
            ys = np.arange(reachable, dtype=np.float64)
            channel = Channel(
                pathloss=LogDistancePathLoss(exponent=3.4, reference_loss_db=40.0)
            )
            result = broadcast_samples(
                channel, 0, list(range(1, reachable + 1)), tx, xs, ys,
                np.zeros(reachable), np.full(reachable, -105.0),
                17.0, 12.0, 0.0, 1,
            )
            assert result == []


class TestSimpleModelsBatch:
    def test_no_shadowing_and_no_fading_zero_lanes(self):
        links, hashes = _links_for([(1.0, 2.0), (3.0, 4.0)])
        xs = np.array([1.0, 3.0])
        ys = np.array([2.0, 4.0])
        assert np.array_equal(
            NoShadowing().sample_db_batch(
                links, hashes, Vec2(0, 0), xs, ys, np.hypot(xs, ys)
            ),
            np.zeros(2),
        )
        assert np.array_equal(NoFading().sample_db_batch(hashes, 7), np.zeros(2))
