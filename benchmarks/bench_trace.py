"""Experiment ``trace`` — the reception ladder on real-trace geometry.

A tidy synthetic line of *static* radios is the batch kernel's easiest
case.  Trace-driven scenarios are the opposite regime: irregular curved
paths, per-vehicle time spans, vehicles entering and leaving, and
TraceMobility interpolation behind every position query.  Two pins:

* ``test_trace_broadcast_storm`` — the medium-level kernel pin: dense
  broadcasts through a *moving* trace-driven population must keep the
  storm's production-vs-oracle ratio (this is where "the speedup holds
  on irregular geometry" is actually proven);
* ``test_trace_scenario_ladder`` — the honest end-to-end number: a full
  protocol round is event-kernel- and protocol-bound (HELLO beaconing,
  REQUEST recovery, per-receiver delivery callbacks), so the ladder
  shows up damped, exactly as the multi-AP large-N bench documents for
  its regime.  The profile that motivated the per-flow buffer index
  (repro/net/buffer.py) came from this workload.

No CI job runs these timings: CI's perf gate judges the shipped
workloads (``tools/ab_pairs.py``).  Run them by hand with
``python -m pytest -q -s benchmarks/bench_trace.py``; each test prints
what it measured.
"""

import dataclasses
import time

import numpy as np

from repro.geom import Vec2
from repro.mac.frames import DataFrame, NodeId
from repro.mac.interface import NetworkInterface
from repro.mac.medium import Medium
from repro.mobility.base import TraceMobility
from repro.mobility.traceio import synth_traces
from repro.radio.channel import Channel
from repro.radio.fading import RicianFading
from repro.radio.modulation import rate_by_name
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.phy import RadioConfig
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    TemporalTxShadowing,
)
from repro.scenarios.trace import SynthTraceConfig, TraceScenarioConfig, build_trace_round
from repro.sim import Simulator

#: Dense drive-thru for the end-to-end ladder: 32 vehicles one second
#: apart (≈20 m gaps) on a curving 1.2 km road.  Twelve served flows
#: keep the AP's transmit load realistic while every vehicle beacons
#: and cooperates through the dark area.
DENSE = TraceScenarioConfig(
    seed=2300,
    synth=SynthTraceConfig(
        vehicles=32,
        duration_s=70.0,
        road_length_m=1200.0,
        mean_speed_ms=20.0,
        entry_gap_s=1.0,
        lanes=3,
    ),
    served_vehicles=12,
    packet_rate_hz=5.0,
)


def _trace_network(*, fast_path: bool, vehicles: int = 64, seed: int = 23):
    """A medium whose interfaces move along a dense synthetic trace.

    The urban stochastic stack (Gudmundson + transmitter-anchored OU
    shadowing, Rician fading) over a moving, irregular population.  All
    moving vehicles share one scene track, so the batch kernel's grouped
    mobility query covers the whole set.
    """
    traces = synth_traces(
        vehicles=vehicles,
        duration_s=90.0,
        road_length_m=1800.0,
        mean_speed_ms=20.0,
        entry_gap_s=1.0,
        lanes=3,
        seed=seed,
    )
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
    models = list(traces.to_mobility().values())
    ifaces = []
    for index, mobility in enumerate(models):
        ifaces.append(
            NetworkInterface(
                sim,
                medium,
                NodeId(index + 1),
                mobility,
                RadioConfig(),
                sim.streams.get(f"mac-{index}"),
                name=f"veh{index + 1}",
            )
        )
    return sim, medium, ifaces


def _trace_storm(broadcasts: int, *, fast_path: bool) -> float:
    """Wall-clock seconds for *broadcasts* transmissions while the
    population drives past (transmitters rotate; the window 10–70 s keeps
    most of the fleet on the road and moving)."""
    sim, medium, ifaces = _trace_network(fast_path=fast_path)
    rate = rate_by_name("dsss-11")
    for i in range(broadcasts):
        tx = ifaces[i % len(ifaces)]
        frame = DataFrame(
            src=tx.node_id,
            dst=ifaces[(i + 1) % len(ifaces)].node_id,
            size_bytes=1000,
            flow_dst=ifaces[(i + 1) % len(ifaces)].node_id,
            seq=i,
        )
        sim.schedule(10.0 + (i * 60.0) / broadcasts, medium.transmit, tx, frame, rate)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def test_trace_broadcast_storm(benchmark):
    """The kernel pin on irregular geometry: moving trace population."""
    _trace_storm(60, fast_path=True)  # warm dispatch caches
    batch = benchmark.pedantic(
        _trace_storm, args=(400,), kwargs={"fast_path": True},
        rounds=1, iterations=1,
    )
    exhaustive = _trace_storm(400, fast_path=False)
    print(f"\n64 vehicles, 400 broadcasts: batch {batch:.4f} s, "
          f"exhaustive {exhaustive:.4f} s, speedup {exhaustive / batch:.2f}")
    # Generous floor: one single-window timing per arm is noisy.
    assert exhaustive / batch > 1.5


def _round_seconds(config: TraceScenarioConfig, *, fast_path: bool) -> float:
    """Wall-clock seconds for one fully-built-and-run scenario round."""
    radio = dataclasses.replace(config.radio, reception_fast_path=fast_path)
    ctx = build_trace_round(dataclasses.replace(config, radio=radio), 0)
    t0 = time.perf_counter()
    ctx.run()
    return time.perf_counter() - t0


def test_trace_scenario_ladder():
    """The honest end-to-end number: protocol-bound, kernel still ahead.

    A full dense round spends most of its time in the event kernel and
    protocol layers (beaconing, recovery, per-receiver deliveries), so
    the batch kernel's end-to-end margin over the scalar oracle is
    Amdahl-damped.  Culling cannot help here at all: a 20 m-gap convoy is
    genuinely all-reachable, so the whole margin is the batch kernel's.
    """
    # Warm NumPy dispatch caches and the synth/trace memo off the clock.
    small = dataclasses.replace(
        DENSE, synth=dataclasses.replace(DENSE.synth, vehicles=8, duration_s=20.0)
    )
    _round_seconds(small, fast_path=True)
    # Best-of-2 per arm: a full round is ~10 s, single samples swing by
    # ~20% under scheduler noise while the end-to-end margin is only
    # ~1.2×, so one bad draw flips the floor below.  The minimum is the
    # honest hot-path number.
    batch = min(_round_seconds(DENSE, fast_path=True) for _ in range(2))
    exhaustive = min(_round_seconds(DENSE, fast_path=False) for _ in range(2))
    print(f"\n{DENSE.synth.vehicles} vehicles, {DENSE.served_vehicles} served: "
          f"batch {batch:.4f} s, exhaustive {exhaustive:.4f} s, "
          f"speedup {exhaustive / batch:.2f}")
    # The end-to-end floor is deliberately modest: the kernel's own
    # ratio is pinned by test_trace_broadcast_storm above.
    assert exhaustive / batch > 1.05


def test_trace_mobility_batch_query():
    """Scene-track batching: one vectorized pass vs per-model queries.

    The medium issues one ``positions_at_time`` per mobility batch group
    per timestamp; because ``TraceSet.to_mobility`` puts every moving
    vehicle on one shared polyline, that is a single call for the whole
    population.
    """
    traces = synth_traces(
        vehicles=64, duration_s=120.0, road_length_m=2400.0, entry_gap_s=1.0, seed=5
    )
    models = [
        m for m in traces.to_mobility().values() if isinstance(m, TraceMobility)
    ]
    assert len({m.batch_key() for m in models}) == 1
    times = np.linspace(0.0, 120.0, 2000)

    t0 = time.perf_counter()
    for t in times.tolist():
        TraceMobility.positions_at_time(models, t)
    batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    for t in times.tolist():
        for m in models:
            m.position(t)
    scalar = time.perf_counter() - t0

    print(f"\n{len(models)} models x {len(times)} timestamps: batched "
          f"{batched:.4f} s, scalar {scalar:.4f} s, ratio {scalar / batched:.2f}")
    assert scalar / batched > 1.0
