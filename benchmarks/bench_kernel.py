"""Experiment ``kernel`` — discrete-event kernel microbenchmarks.

Not a paper artifact: these keep the substrate honest.  A full urban
round schedules on the order of 10⁵ events; the kernel must sustain
hundreds of thousands of events per second for the 30-round experiment
to stay interactive.

Each benchmark also records its headline number into
``BENCH_kernel.json`` (via ``bench_json_sink``) so the perf trajectory
is machine-readable across PRs.
"""

import time

from repro.geom import Vec2
from repro.mac.frames import DataFrame, NodeId
from repro.mac.interface import NetworkInterface
from repro.mac.medium import Medium, _Arrival
from repro.mobility.static import StaticMobility
from repro.radio.channel import Channel, LinkSample
from repro.radio.fading import RicianFading
from repro.radio.modulation import rate_by_name
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.phy import RadioConfig
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    TemporalTxShadowing,
)
from repro.sim import Simulator, gc_paused


def test_event_throughput(benchmark, bench_json_sink):
    """Schedule-and-drain 50k events.

    Runs under the kernel's ``gc_paused()`` bulk-load mode: scheduling
    50k events up front otherwise triggers full cyclic-GC collections
    that re-scan the entire pending set mid-burst and dominate the
    measurement (``run()`` already pauses collection internally; the
    context manager extends that to the pre-load loop, which is how any
    bulk-loading driver is expected to use the kernel).
    """

    def run():
        sim = Simulator()
        with gc_paused():
            for i in range(50_000):
                sim.schedule(i * 1e-4, lambda: None)
            sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 0
    t0 = time.perf_counter()
    run()
    bench_json_sink(
        "kernel.event_throughput",
        {"events": 50_000, "events_per_s": round(50_000 / (time.perf_counter() - t0))},
    )


def test_process_context_switching(benchmark):
    """10k generator-process wake-ups."""

    def run():
        sim = Simulator()
        counter = []

        def ticker():
            for _ in range(10_000):
                yield 0.001
            counter.append(sim.now)

        sim.process(ticker())
        sim.run()
        return counter[0]

    result = benchmark(run)
    assert result > 9.9


def _line_network(
    n_nodes: int, *, fast_path: bool, spacing_m: float = 25.0, seed: int = 11,
):
    """One medium with *n_nodes* static interfaces spaced along a line.

    The channel is the representative urban stack — Gudmundson +
    transmitter-anchored OU shadowing and Rician fading — so the storm
    exercises the full per-frame reception pipeline the scenarios run,
    not just path-loss arithmetic.  The default 25 m spacing makes the
    broadcast neighborhoods dense (~100 reachable candidates), the
    regime the batch kernel targets; pass a wider spacing for the
    sparse O(reachable) culling pin.
    """
    sim = Simulator(seed=seed)
    channel = Channel(
        pathloss=LogDistancePathLoss(exponent=3.0, reference_loss_db=40.0),
        shadowing=CompositeShadowing(
            [
                GudmundsonShadowing(
                    sim.streams.get("shadowing"),
                    sigma_db=4.0,
                    decorrelation_distance_m=20.0,
                ),
                TemporalTxShadowing(
                    sim.streams.get("shadowing-common"),
                    sigma_db=3.0,
                    tau_s=2.0,
                    hub=NodeId(1),
                ),
            ]
        ),
        fading=RicianFading(sim.streams.get("fading"), k_factor=4.0),
        rng=sim.streams.get("channel"),
    )
    medium = Medium(sim, channel, fast_path=fast_path)
    ifaces = []
    for index in range(n_nodes):
        ifaces.append(
            NetworkInterface(
                sim,
                medium,
                NodeId(index + 1),
                StaticMobility(Vec2(spacing_m * index, 0.0)),
                RadioConfig(),
                sim.streams.get(f"mac-{index}"),
                name=f"if{index + 1}",
            )
        )
    return sim, medium, ifaces


def _broadcast_storm(
    n_nodes: int, broadcasts: int, *, fast_path: bool, spacing_m: float = 25.0,
) -> float:
    """Wall-clock seconds for *broadcasts* medium-level transmissions."""
    sim, medium, ifaces = _line_network(
        n_nodes, fast_path=fast_path, spacing_m=spacing_m
    )
    rate = rate_by_name("dsss-11")
    frame = DataFrame(
        src=ifaces[0].node_id,
        dst=ifaces[-1].node_id,
        size_bytes=1000,
        flow_dst=ifaces[-1].node_id,
        seq=1,
    )
    for i in range(broadcasts):
        tx = ifaces[i % n_nodes]
        shifted = DataFrame(
            src=tx.node_id, dst=frame.dst, size_bytes=1000, flow_dst=frame.dst, seq=i
        )
        sim.schedule(i * 2e-3, medium.transmit, tx, shifted, rate)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def test_medium_broadcast_batch_kernel(benchmark, bench_json_sink):
    """The tentpole pin: dense broadcasts run as one NumPy batch.

    200 nodes on a 5 km line with the full stochastic channel stack.
    Two arms, bit-identical by the A/B pins: the production path
    (culling + batch kernel, the default) and the exhaustive scalar
    oracle.  The production path must crush the oracle at this density;
    N=50 is recorded for the scaling story.
    """
    # Warm NumPy's dispatch caches off the clock so the measured batch
    # arm is not charged for one-time import/ufunc setup.
    _broadcast_storm(50, 40, fast_path=True)
    batch = benchmark.pedantic(
        _broadcast_storm, args=(200, 400), kwargs={"fast_path": True},
        rounds=1, iterations=1,
    )
    exhaustive = _broadcast_storm(200, 400, fast_path=False)
    small_batch = _broadcast_storm(50, 400, fast_path=True)
    small_exhaustive = _broadcast_storm(50, 400, fast_path=False)
    bench_json_sink(
        "medium.broadcast_storm",
        {
            "nodes": 200,
            "broadcasts": 400,
            "batch_s": round(batch, 4),
            "exhaustive_s": round(exhaustive, 4),
            "speedup": round(exhaustive / batch, 2),
            "n50_batch_s": round(small_batch, 4),
            "n50_exhaustive_s": round(small_exhaustive, 4),
            # Named "ratio", not "speedup", deliberately: sub-second
            # single-iteration timings jitter too much on shared runners
            # for the CI regression gate (which keys on *speedup*).
            "n50_ratio": round(small_exhaustive / small_batch, 2),
        },
    )
    # Generous floor (CI machines are noisy); the committed
    # BENCH_kernel.json records the actual measured ratio.
    assert exhaustive / batch > 2.0


def test_medium_broadcast_o_reachable_sparse(bench_json_sink):
    """PR 3's pin, kept alive: sparse broadcasts stay O(reachable).

    200 nodes at 60 m spacing (12 km line): each broadcast reaches only
    its ~40-node neighborhood, so the production path — which culls the
    rest before sampling — must beat the exhaustive oracle, which
    samples every attached interface, by a wide margin.
    """
    fast = _broadcast_storm(200, 400, fast_path=True, spacing_m=60.0)
    exhaustive = _broadcast_storm(200, 400, fast_path=False, spacing_m=60.0)
    bench_json_sink(
        "medium.broadcast_storm_sparse",
        {
            "nodes": 200,
            "broadcasts": 400,
            "spacing_m": 60.0,
            "fast_s": round(fast, 4),
            "exhaustive_s": round(exhaustive, 4),
            "cull_speedup": round(exhaustive / fast, 2),
        },
    )
    assert exhaustive / fast > 1.5


def test_broadcast_storm_counter_snapshot(bench_json_sink):
    """Observability satellite: the storm's shape, in counters.

    One dense and one sparse storm under ``obs.instrumented()``, with
    the medium/kernel counter snapshot recorded next to the wall-clock
    numbers above — so the perf record says not just *how fast* but
    *how much work*: events fired, candidates before/after the cull,
    batch-vs-scalar broadcast split, batch lane distribution.  The
    regression gate only compares ``*speedup*`` keys, so these are
    informational (and tolerated by ``check_bench_regression.py``).
    """
    from repro import obs

    def storm_snapshot(spacing_m: float) -> dict:
        with obs.instrumented():
            _broadcast_storm(100, 200, fast_path=True, spacing_m=spacing_m)
            snap = obs.registry().snapshot()
        before = snap["medium.candidates_before_cull"]["value"]
        after = snap["medium.candidates_after_cull"]["value"]
        lanes = snap["medium.batch_lanes"]
        return {
            "events_fired": snap["sim.events_fired"]["value"],
            "broadcasts": snap["medium.broadcasts"]["value"],
            "batch_broadcasts": snap["medium.batch_broadcasts"]["value"],
            "scalar_broadcasts": snap["medium.scalar_broadcasts"]["value"],
            "candidates_before_cull": before,
            "candidates_after_cull": after,
            "cull_keep_pct": round(100.0 * after / before, 1) if before else 0.0,
            "batch_lanes_mean": (
                round(lanes["total"] / lanes["count"], 1) if lanes["count"] else 0.0
            ),
        }

    dense = storm_snapshot(25.0)
    sparse = storm_snapshot(60.0)
    assert dense["broadcasts"] == sparse["broadcasts"] == 200
    # Dense 25 m spacing is the batch regime; sparse keeps fewer
    # neighbors per broadcast, so the cull must discard more.
    assert dense["batch_broadcasts"] > 0
    assert sparse["candidates_after_cull"] < dense["candidates_after_cull"]
    bench_json_sink(
        "medium.storm_counters",
        {"nodes": 100, "broadcasts": 200, "dense": dense, "sparse": sparse},
    )


def test_hot_object_alloc_slots(benchmark, bench_json_sink):
    """The satellite pin: hot per-frame objects stay ``__slots__``-lean.

    Every broadcast allocates one ``LinkSample`` + ``_Arrival`` per
    surviving receiver and the queue churns ``Event`` objects; slotted
    classes drop the per-instance dict.  Measured against dict-based
    stand-ins of the same shape so the delta is visible in the record.
    """

    import sys
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class DictSample:  # LinkSample minus slots=True — the control
        rx_power_dbm: float
        mean_rx_power_dbm: float
        distance_m: float

    class DictArrival:  # _Arrival minus __slots__ — the control
        def __init__(self, frame, rate, sample, start, end):
            self.frame = frame
            self.rate = rate
            self.sample = sample
            self.start = start
            self.end = end
            self.interferers_dbm = []
            self.half_duplex = False

    frame = DataFrame(
        src=NodeId(1), dst=NodeId(2), size_bytes=1000, flow_dst=NodeId(2), seq=1
    )
    rate = rate_by_name("dsss-11")

    def alloc_slotted(count=20_000):
        for i in range(count):
            sample = LinkSample(-70.0 - i, -72.0, 120.0)
            _Arrival(frame, rate, sample, 0.0, 1.0)
        return count

    def alloc_dict(count=20_000):
        for i in range(count):
            sample = DictSample(-70.0 - i, -72.0, 120.0)
            DictArrival(frame, rate, sample, 0.0, 1.0)
        return count

    assert LinkSample.__slots__ and _Arrival.__slots__
    assert not hasattr(LinkSample(-70.0, -72.0, 1.0), "__dict__")
    benchmark(alloc_slotted)
    alloc_dict()  # warm the control off the clock too
    t0 = time.perf_counter()
    alloc_slotted()
    slotted_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    alloc_dict()
    dict_s = time.perf_counter() - t0
    slotted_bytes = sys.getsizeof(LinkSample(-70.0, -72.0, 1.0))
    dict_sample = DictSample(-70.0, -72.0, 1.0)
    dict_bytes = sys.getsizeof(dict_sample) + sys.getsizeof(dict_sample.__dict__)
    bench_json_sink(
        "kernel.hot_object_alloc",
        {
            "objects": 40_000,
            "slots_s": round(slotted_s, 4),
            "dict_control_s": round(dict_s, 4),
            "slots_gain": round(dict_s / slotted_s, 2),
            "sample_bytes_slots": slotted_bytes,
            "sample_bytes_dict": dict_bytes,
        },
    )
