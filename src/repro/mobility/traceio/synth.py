"""Deterministic synthetic traces — the no-external-files workload.

Tests, CI, benchmarks, and the ``trace`` scenario's default
configuration all need realistic-looking trace geometry without
shipping (or downloading) a real recording.  :func:`synth_traces`
generates one deterministically from a seed: a platoon-free stream of
vehicles entering a gently curving multi-lane road at staggered times,
each with its own cruise speed and slowly varying speed noise, sampled
on a fixed tick until it leaves the far end.  The result intentionally
has the irregularities real FCD exports show — vehicles appearing and
disappearing mid-recording, different per-vehicle time spans, curved
paths, non-constant speeds — which is exactly what the trace benchmarks
need to prove the batch kernel's speedup holds off the parametric
platoon geometry.

Determinism: the only randomness is ``numpy.random.default_rng(seed)``
consumed in a fixed order, so a (seed, parameters) pair always produces
the identical :class:`TraceSet` on every platform — the synthetic trace
is part of the experiment configuration, not of the per-round
stochastics (channel randomness still varies per round as usual).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TraceFormatError
from repro.mobility.traceio.traceset import TraceSet, VehicleTrace


def synth_traces(
    *,
    vehicles: int = 8,
    duration_s: float = 120.0,
    tick_s: float = 1.0,
    seed: int = 97,
    road_length_m: float = 2000.0,
    mean_speed_ms: float = 20.0,
    speed_jitter: float = 0.15,
    entry_gap_s: float = 4.0,
    lanes: int = 2,
    lane_width_m: float = 3.5,
    curve_amplitude_m: float = 30.0,
    curve_wavelength_m: float = 600.0,
) -> TraceSet:
    """One deterministic synthetic recording (see module notes).

    Vehicle ``veh<i>`` enters lane ``i % lanes`` at ``i · entry_gap_s``
    with cruise speed ``mean_speed_ms`` times a per-vehicle factor, and
    follows the lane's sinusoidal centreline until it passes
    ``road_length_m`` or the recording ends.
    """
    if vehicles < 1:
        raise TraceFormatError("synth needs at least one vehicle")
    for name, value in (
        ("duration_s", duration_s),
        ("tick_s", tick_s),
        ("road_length_m", road_length_m),
        ("mean_speed_ms", mean_speed_ms),
    ):
        # Written so that NaN fails it too.
        if not 0.0 < value < math.inf:
            raise TraceFormatError(
                f"synth {name} must be positive and finite, got {value!r}"
            )
    if not 0.0 <= speed_jitter < 1.0:
        raise TraceFormatError("speed_jitter must be in [0, 1)")
    if lanes < 1:
        raise TraceFormatError("synth needs at least one lane")
    rng = np.random.default_rng(seed)
    ticks = int(math.floor(duration_s / tick_s)) + 1
    traces = []
    for index in range(vehicles):
        cruise = mean_speed_ms * float(rng.normal(1.0, 0.08))
        cruise = max(cruise, 0.25 * mean_speed_ms)
        # Slowly varying multiplicative speed noise: an AR(1) chain in
        # the jitter band, one step per tick (drawn for every tick of
        # the recording so vehicle count/order fixes the stream layout).
        noise = rng.normal(0.0, 1.0, size=ticks)
        entry = index * entry_gap_s
        lane = index % lanes
        samples: list[tuple[float, float, float]] = []
        s = 0.0
        level = 0.0
        for k in range(ticks):
            t = k * tick_s
            level = 0.8 * level + 0.2 * float(noise[k])
            if t < entry:
                continue
            if s > road_length_m:
                break
            x = s
            y = (
                lane * lane_width_m
                + curve_amplitude_m
                * math.sin(2.0 * math.pi * x / curve_wavelength_m)
            )
            samples.append((t, x, y))
            speed = cruise * (1.0 + speed_jitter * math.tanh(level))
            s += speed * tick_s
        if samples:
            traces.append(VehicleTrace.from_samples(f"veh{index}", samples))
    if not traces:
        raise TraceFormatError(
            "synth produced no samples; lengthen duration_s or shrink entry_gap_s"
        )
    return TraceSet(traces)
