#!/usr/bin/env python3
"""Trace-driven mobility: a recorded (here: synthesized) stream of cars.

Every other example synthesizes motion from parametric platoons; this
one drives the simulation from a *mobility trace* — the same path any
real SUMO FCD / ns-2 setdest / CSV recording takes.  To stay
self-contained it first writes a deterministic synthetic recording to
CSV (exactly what ``repro trace synth`` does), then loads it back
through the parser like a foreign dataset and runs the paired
C-ARQ vs no-cooperation comparison on it.

Run:  python examples/trace_scenario.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro.mobility.traceio import dump_traces, load_traces, synth_traces
from repro.scenarios import get_scenario
from repro.scenarios.summaries import summarize_matrices
from repro.scenarios.trace import TraceScenarioConfig


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "recording.csv"
        recording = synth_traces(
            vehicles=6, duration_s=90.0, road_length_m=1800.0, seed=42
        )
        dump_traces(recording, trace_path, fmt="csv")
        summary = load_traces(trace_path).summary()
        print(
            f"Recording: {summary['vehicles']} vehicles, "
            f"{summary['samples']} samples over {summary['duration_s']:.0f} s, "
            f"mean speed {summary['mean_speed_ms']:.1f} m/s\n"
        )

        base = TraceScenarioConfig(
            trace_file=str(trace_path), seed=2024, rounds=2
        )
        trace = get_scenario("trace")
        print(f"{'mode':>8} {'pkts':>7} {'before':>8} {'after':>7} {'gain':>6}")
        for mode in ("carq", "nocoop"):
            config = dataclasses.replace(base, mode=mode)
            rows = [trace.run_round(config, i) for i in range(config.rounds)]
            point = summarize_matrices(rows, mode)
            print(
                f"{mode:>8} {point.tx_by_ap_mean:>7.0f} "
                f"{100 * point.lost_before_fraction:>7.1f}% "
                f"{100 * point.lost_after_fraction:>6.1f}% "
                f"{100 * point.reduction_fraction:>5.0f}%"
            )

    print(
        "\nThe AP sits early along the recording, so most of it is dark "
        "area: C-ARQ recovers a large share of the drive-thru losses, "
        "the no-cooperation baseline none.  Swap the CSV for any real "
        "recording (see `repro trace info`) to rerun the comparison on it."
    )


if __name__ == "__main__":
    main()
