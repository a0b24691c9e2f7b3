"""The trace-driven scenario: any real recording as a runnable workload.

The paper's results hinge on real vehicle motion past an AP window;
every other scenario synthesizes that motion from parametric platoons.
This plugin instead drives the simulation from a *mobility trace* —
SUMO FCD XML, ns-2 ``setdest``, or timestamped CSV, ingested through
:mod:`repro.mobility.traceio` — so any published vehicular dataset
becomes a C-ARQ experiment: pick a file, place the AP, choose which
vehicles the AP serves, and sweep the protocol ``mode`` like anywhere
else.

With no ``trace_file`` configured the scenario generates a
deterministic synthetic recording from its ``synth`` sub-config
(:func:`repro.mobility.traceio.synth_traces`), which is what tests, CI,
and the presets run — no external files anywhere in the loop.  Either
way the recording is *part of the configuration*: identical across
rounds (the road does not reshuffle between repetitions) while the
channel randomness varies per round as usual.

Cooperator grouping: every vehicle in the trace runs the configured
protocol, but only the first ``served_vehicles`` (sorted-id order; 0 =
all) are flow destinations.  The rest are pure cooperators — they
beacon, buffer overheard packets, and answer REQUESTs without being
served themselves — so sweeping ``served_vehicles`` isolates what
bystander traffic contributes, the trace-driven cousin of the
bidirectional scenario's oncoming platoon.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.config import CarqConfig
from repro.errors import ConfigurationError, TraceFormatError
from repro.geom import Vec2
from repro.mac.frames import NodeId
from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticMobility
from repro.mobility.traceio import FORMATS, TraceSet, load_traces, synth_traces
from repro.scenarios import channels
from repro.scenarios.common import (
    AP_NODE_ID,
    build_medium,
    collect_matrices,
    make_flows,
    round_seed,
    spawn_platoon,
)
from repro.scenarios.configs import config_to_dict
from repro.scenarios.highway import _HIGHWAY_RADIO
from repro.scenarios.modes import PROTOCOL_MODES, ap_class, validate_mode
from repro.scenarios.registry import ScenarioPlugin, ScenarioPreset, register
from repro.scenarios.summaries import (
    SWEEP_REPORT_HEADER,
    SweepPoint,
    encode_matrix,
    summarize_matrices,
    sweep_report_line,
)
from repro.scenarios.urban import RadioEnvironment
from repro.sim import Simulator
from repro.trace.capture import TraceCollector

#: Quiet tail after the last trace sample: vehicles have parked, the
#: dark-area REQUEST/REPLY recovery needs time to finish.
ROUND_SLACK_S = 40.0


@dataclass(frozen=True)
class SynthTraceConfig:
    """Parameters of the built-in synthetic recording.

    Mirrors :func:`repro.mobility.traceio.synth_traces`; only consulted
    when the scenario has no ``trace_file``.  ``seed`` is separate from
    the campaign seed on purpose: rounds re-randomize the channel, never
    the road.
    """

    vehicles: int = 8
    duration_s: float = 120.0
    tick_s: float = 1.0
    seed: int = 97
    road_length_m: float = 2000.0
    mean_speed_ms: float = 20.0
    speed_jitter: float = 0.15
    entry_gap_s: float = 4.0
    lanes: int = 2
    lane_width_m: float = 3.5
    curve_amplitude_m: float = 30.0
    curve_wavelength_m: float = 600.0

    def build(self) -> TraceSet:
        """Generate the recording this config describes."""
        return synth_traces(
            vehicles=self.vehicles,
            duration_s=self.duration_s,
            tick_s=self.tick_s,
            seed=self.seed,
            road_length_m=self.road_length_m,
            mean_speed_ms=self.mean_speed_ms,
            speed_jitter=self.speed_jitter,
            entry_gap_s=self.entry_gap_s,
            lanes=self.lanes,
            lane_width_m=self.lane_width_m,
            curve_amplitude_m=self.curve_amplitude_m,
            curve_wavelength_m=self.curve_wavelength_m,
        )


@dataclass(frozen=True)
class TraceScenarioConfig:
    """One trace-driven experiment.

    Attributes
    ----------
    trace_file / trace_format / trace_unit:
        The recording to ingest (``None`` = generate from ``synth``).
        ``trace_format`` is ``auto`` / ``sumo-fcd`` / ``ns2`` / ``csv``;
        ``trace_unit`` converts the file's coordinates to metres.
    tick_s:
        Resample the recording onto this fixed tick (0 = keep the
        file's native sampling).
    t_min / t_max / x_min / y_min / x_max / y_max:
        Optional time-window and bounding-box crop, applied before the
        recording is rebased to round time 0.
    ap_x / ap_y / ap_road_fraction / ap_offset_m:
        AP placement.  Explicit coordinates win; otherwise the AP sits
        ``ap_road_fraction`` of the way along the cropped recording's
        x-span, ``ap_offset_m`` south of its bounding box.  The default
        fraction (0.15) puts the coverage window early in the
        recording, leaving most of it as the dark area where
        cooperative recovery happens — the paper's drive-thru shape.
        Mid-road placement (0.5) can leave parked vehicles inside
        coverage, where the watchdog never fires and C-ARQ has nothing
        to do.
    served_vehicles:
        How many vehicles (sorted-id order) the AP streams flows to;
        0 = all.  Unserved vehicles still cooperate (see module notes).
    mode:
        Protocol every vehicle runs (``carq`` or any baseline mode).
    """

    trace_file: str | None = None
    trace_format: str = "auto"
    trace_unit: str = "m"
    synth: SynthTraceConfig = field(default_factory=SynthTraceConfig)
    tick_s: float = 0.0
    t_min: float | None = None
    t_max: float | None = None
    x_min: float | None = None
    y_min: float | None = None
    x_max: float | None = None
    y_max: float | None = None
    ap_x: float | None = None
    ap_y: float | None = None
    ap_road_fraction: float = 0.15
    ap_offset_m: float = 20.0
    served_vehicles: int = 0
    packet_rate_hz: float = 10.0
    payload_bytes: int = 1000
    seed: int = 1205
    rounds: int = 3
    radio: RadioEnvironment = field(default_factory=lambda: _HIGHWAY_RADIO)
    carq: CarqConfig = field(
        default_factory=lambda: CarqConfig(batch_requests=True, max_batch=64)
    )
    mode: str = "carq"

    def __post_init__(self) -> None:
        if self.trace_format != "auto" and self.trace_format not in FORMATS:
            raise ConfigurationError(
                f"unknown trace_format {self.trace_format!r}; choose auto, "
                f"{', '.join(sorted(FORMATS))}"
            )
        if self.tick_s < 0.0:
            raise ConfigurationError("tick_s cannot be negative")
        if self.served_vehicles < 0:
            raise ConfigurationError("served_vehicles cannot be negative")
        if not 0.0 <= self.ap_road_fraction <= 1.0:
            raise ConfigurationError("ap_road_fraction must be in [0, 1]")
        if self.packet_rate_hz <= 0.0:
            raise ConfigurationError("packet rate must be positive")
        validate_mode(self.mode)

    def load_traces(self) -> TraceSet:
        """The recording, cropped / resampled / rebased per this config.

        File loads are memoized per (path, mtime, format, unit) so a
        multi-round campaign parses each file once per worker process.
        """
        if self.trace_file is None:
            traces = self.synth.build()
        else:
            traces = _load_file_cached(
                os.path.abspath(self.trace_file),
                self.trace_format,
                self.trace_unit,
            )
        if any(
            bound is not None
            for bound in (
                self.t_min, self.t_max,
                self.x_min, self.y_min, self.x_max, self.y_max,
            )
        ):
            traces = traces.cropped(
                t_min=self.t_min,
                t_max=self.t_max,
                x_min=self.x_min,
                y_min=self.y_min,
                x_max=self.x_max,
                y_max=self.y_max,
            )
        traces = traces.rebased()
        if self.tick_s > 0.0:
            traces = traces.resampled(self.tick_s)
        return traces

    def ap_position(self, traces: TraceSet) -> Vec2:
        """Where the AP stands for this recording (see class docs)."""
        x_min, y_min, x_max, _ = traces.bounds()
        if self.ap_x is not None:
            x = self.ap_x
        else:
            x = x_min + self.ap_road_fraction * (x_max - x_min)
        y = self.ap_y if self.ap_y is not None else y_min - self.ap_offset_m
        return Vec2(x, y)

    def vehicle_node_ids(self, traces: TraceSet) -> dict[NodeId, str]:
        """Node id → trace vehicle id, sorted-id order from 1."""
        return {
            NodeId(index + 1): vehicle_id
            for index, vehicle_id in enumerate(traces.vehicle_ids)
        }

    def served_ids(self, node_ids: dict[NodeId, str]) -> list[NodeId]:
        """The flow destinations (first ``served_vehicles``; 0 = all)."""
        ids = list(node_ids)
        if self.served_vehicles:
            return ids[: self.served_vehicles]
        return ids


#: Parsed-file memo: (abspath, mtime_ns, format, unit) → TraceSet.
#: TraceSet transformations are pure, so sharing the parsed object
#: across rounds (and configs pointing at the same file) is safe.
_FILE_CACHE: dict[tuple[str, int, str, str], TraceSet] = {}


def _load_file_cached(path: str, fmt: str, unit: str) -> TraceSet:
    try:
        mtime_ns = os.stat(path).st_mtime_ns
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file: {exc}") from None
    key = (path, mtime_ns, fmt, unit)
    cached = _FILE_CACHE.get(key)
    if cached is None:
        cached = load_traces(path, fmt=fmt, unit=unit)
        if len(_FILE_CACHE) > 8:  # campaigns touch a handful of files, not many
            _FILE_CACHE.clear()
        _FILE_CACHE[key] = cached
    return cached


@dataclass
class TraceRoundContext:
    """One built trace-driven round."""

    sim: Simulator
    capture: TraceCollector
    ap: object
    cars: dict[NodeId, object]
    vehicle_ids: dict[NodeId, str]
    served: list[NodeId]
    duration_s: float
    config: TraceScenarioConfig

    def run(self) -> None:
        """Execute the recording (plus the recovery slack)."""
        self.sim.run(until=self.duration_s)


def build_trace_round(
    cfg: TraceScenarioConfig, round_index: int
) -> TraceRoundContext:
    """Wire one round driven by the configured recording."""
    traces = cfg.load_traces()
    sim = Simulator(seed=round_seed(cfg.seed, round_index, stride=3907))
    capture = TraceCollector()
    medium = build_medium(
        sim,
        channels.highway_channel(cfg.radio, sim, AP_NODE_ID),
        cfg.radio,
        trace=capture,
    )
    node_ids = cfg.vehicle_node_ids(traces)
    served = cfg.served_ids(node_ids)
    mobility_by_vehicle = traces.to_mobility()
    mobilities: list[MobilityModel] = [
        mobility_by_vehicle[vehicle_id] for vehicle_id in node_ids.values()
    ]
    flows = make_flows(served, cfg.packet_rate_hz, cfg.payload_bytes)
    ap = ap_class(cfg.mode)(
        sim,
        medium,
        AP_NODE_ID,
        StaticMobility(cfg.ap_position(traces)),
        cfg.radio.ap_radio(),
        sim.streams.get("ap"),
        flows,
    )
    cars = spawn_platoon(
        cfg.mode,
        sim,
        medium,
        list(node_ids),
        mobilities,
        cfg.radio.car_radio(),
        AP_NODE_ID,
        cfg.carq,
    )
    ap.start()
    for car in cars.values():
        car.start()
    return TraceRoundContext(
        sim=sim,
        capture=capture,
        ap=ap,
        cars=cars,
        vehicle_ids=node_ids,
        served=served,
        duration_s=traces.duration + ROUND_SLACK_S,
        config=cfg,
    )


def collect_trace_row(ctx: TraceRoundContext) -> dict:
    """Reduce a finished round to its campaign result row.

    Matrices cover the served flows only; every vehicle — served or
    pure cooperator — acts as an observer, so bystander help lands in
    the after-coop column exactly like the bidirectional scenario's
    oncoming platoon.
    """
    matrices = collect_matrices(ctx.capture, ctx.cars, flows=ctx.served)
    return {"matrices": [encode_matrix(m) for m in matrices.values()]}


# -- presets -----------------------------------------------------------------


def _modes_preset() -> dict:
    """Table-1-style protocol comparison on the synthetic recording.

    All arms share the campaign seed, so every mode sees the identical
    recording and channel realisation structure — the paired comparison,
    on trace-driven motion.
    """
    base = TraceScenarioConfig(rounds=3)
    return {
        "name": "trace-modes",
        "scenario": "trace",
        "seed": base.seed,
        "rounds": base.rounds,
        "base": config_to_dict(base),
        "axes": [
            {
                "name": "mode",
                "points": [
                    {"label": m, "overrides": {"mode": m}} for m in PROTOCOL_MODES
                ],
            }
        ],
    }


def _density_preset() -> dict:
    """Loss vs how many of the trace's vehicles the AP actually serves.

    The unserved remainder stays on the road as pure cooperators, so
    the axis isolates the bystander contribution on fixed geometry.
    """
    base = TraceScenarioConfig(rounds=3)
    return {
        "name": "trace-served",
        "scenario": "trace",
        "seed": base.seed,
        "rounds": base.rounds,
        "base": config_to_dict(base),
        "axes": [
            {
                "name": "served_vehicles",
                "points": [
                    {"label": n, "overrides": {"served_vehicles": n}}
                    for n in (2, 4, 8)
                ],
            }
        ],
    }


PLUGIN = register(
    ScenarioPlugin(
        name="trace",
        description=(
            "Trace-driven mobility: SUMO FCD / ns-2 setdest / CSV recordings "
            "(or a deterministic synthetic trace) drive vehicles past one AP"
        ),
        config_cls=TraceScenarioConfig,
        build_round=build_trace_round,
        collect_row=collect_trace_row,
        summarize=summarize_matrices,
        summary_cls=SweepPoint,
        report_header=SWEEP_REPORT_HEADER,
        report_line=sweep_report_line,
        modes=PROTOCOL_MODES,
        presets=(
            ScenarioPreset(
                "trace-modes",
                "C-ARQ vs every baseline on the synthetic recording, paired seeds",
                _modes_preset,
            ),
            ScenarioPreset(
                "trace-served",
                "after-coop loss vs served-vehicle count (rest are bystander cooperators)",
                _density_preset,
            ),
        ),
    )
)
