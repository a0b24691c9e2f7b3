"""The §6 future-work study: file download across multiple APs, as a plugin.

"Even more important is to study how the presented loss reduction can
reduce the number of APs that a vehicular node needs to visit to download
a file."  This experiment answers that: a platoon drives a long road with
infostations every ``ap_spacing_m`` metres, each cyclically broadcasting
the *B* blocks of a file per car; we measure how many APs each car must
pass before holding the complete file — with cooperative recovery in the
gaps, versus direct reception only.

The no-cooperation reference is computed *post-hoc from the same run*
(the direct-reception times recorded in the trace), so both numbers share
one channel realisation and the comparison is paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import CarqConfig
from repro.errors import ConfigurationError, require_finite, require_positive
from repro.geom import Polyline, Vec2
from repro.mac.frames import NodeId
from repro.mac.medium import Medium
from repro.mobility.path import PathMobility
from repro.mobility.static import StaticMobility
from repro.net.ap import AccessPoint
from repro.scenarios import channels
from repro.scenarios.common import (
    build_medium,
    car_ids as _car_ids,
    make_flows,
    round_seed,
)
from repro.scenarios.configs import config_to_dict
from repro.scenarios.modes import build_vehicle, reception_state
from repro.scenarios.registry import ScenarioPlugin, ScenarioPreset, register
from repro.scenarios.summaries import (
    DOWNLOAD_REPORT_HEADER,
    DownloadSummary,
    download_report_line,
    summarize_downloads,
)
from repro.scenarios.urban import RadioEnvironment
from repro.sim import Simulator
from repro.trace.capture import TraceCollector


@dataclass(frozen=True)
class MultiApConfig:
    """The multi-AP file-download road."""

    road_length_m: float = 8000.0
    ap_spacing_m: float = 800.0
    ap_offset_m: float = 15.0
    file_blocks: int = 250
    speed_ms: float = 15.0
    n_cars: int = 3
    gap_m: float = 25.0
    packet_rate_hz: float = 10.0
    payload_bytes: int = 1000
    seed: int = 77
    rounds: int = 5
    radio: RadioEnvironment = field(default_factory=RadioEnvironment)
    carq: CarqConfig = field(default_factory=CarqConfig)
    mode: str = "carq"

    def __post_init__(self) -> None:
        require_positive(
            "lengths", ap_spacing_m=self.ap_spacing_m,
            road_length_m=self.road_length_m, gap_m=self.gap_m,
        )
        if self.road_length_m <= self.ap_spacing_m:
            raise ConfigurationError("road must be longer than the AP spacing")
        require_positive("speed", speed_ms=self.speed_ms)
        require_finite("AP offset", ap_offset_m=self.ap_offset_m)
        require_positive("packet rate", packet_rate_hz=self.packet_rate_hz)
        if self.file_blocks <= 0:
            raise ConfigurationError("file needs at least one block")
        if self.mode != "carq":
            # The direct-reception baseline is computed post-hoc from the
            # same cooperative run; a separate baseline arm would unpair it.
            raise ConfigurationError(
                "the multi-AP study runs C-ARQ only (its no-cooperation "
                "reference is paired, derived from the same trace)"
            )

    def ap_positions(self) -> list[Vec2]:
        """Infostation positions along the road."""
        count = int(self.road_length_m // self.ap_spacing_m)
        return [
            Vec2(self.ap_spacing_m * (i + 0.5), self.ap_offset_m)
            for i in range(count)
        ]

    @property
    def round_duration_s(self) -> float:
        """Full traversal of the road by the last car."""
        return (self.road_length_m + self.n_cars * self.gap_m) / self.speed_ms


@dataclass(frozen=True)
class DownloadOutcome:
    """Completion result for one car in one round.

    ``aps_visited`` is the number of infostations passed when the file
    became complete (``math.inf`` if it never completed on this road).
    """

    car: NodeId
    aps_visited_coop: float
    aps_visited_direct: float
    completion_time_coop: float | None
    completion_time_direct: float | None


@dataclass
class MultiApRoundContext:
    """One built multi-AP traversal, ready to run."""

    sim: Simulator
    capture: TraceCollector
    cars: dict[NodeId, object]
    config: MultiApConfig

    def run(self) -> None:
        """Execute the traversal."""
        self.sim.run(until=self.config.round_duration_s)


def _aps_passed(cfg: MultiApConfig, car_index: int, time: float | None) -> float:
    """How many APs the car has passed by *time* (∞ when never done)."""
    if time is None:
        return math.inf
    start_delay = car_index * cfg.gap_m / cfg.speed_ms
    position = max(0.0, (time - start_delay) * cfg.speed_ms)
    return sum(1 for ap in cfg.ap_positions() if ap.x <= position)


def build_multi_ap_round(cfg: MultiApConfig, round_index: int) -> MultiApRoundContext:
    """Wire one traversal of the infostation road."""
    sim = Simulator(seed=round_seed(cfg.seed, round_index, stride=4099))
    track = Polyline.straight(cfg.road_length_m)
    capture = TraceCollector()
    channel = channels.corridor_channel(cfg.radio, sim)
    medium = build_medium(sim, channel, cfg.radio, trace=capture)
    car_ids = _car_ids(cfg.n_cars)
    ap_ids = [NodeId(200 + i) for i in range(len(cfg.ap_positions()))]
    flows = make_flows(
        car_ids, cfg.packet_rate_hz, cfg.payload_bytes, blocks=cfg.file_blocks
    )
    for ap_id, position in zip(ap_ids, cfg.ap_positions()):
        ap = AccessPoint(
            sim,
            medium,
            ap_id,
            StaticMobility(position),
            cfg.radio.ap_radio(),
            sim.streams.get(f"ap-{ap_id}"),
            flows,
            name=f"ap-{ap_id}",
        )
        ap.start()
    cars: dict[NodeId, object] = {}
    for index, car_id in enumerate(car_ids):
        mobility = PathMobility(
            track,
            cfg.speed_ms,
            start_time=index * cfg.gap_m / cfg.speed_ms,
        )
        car = build_vehicle(
            cfg.mode,
            sim,
            medium,
            car_id,
            mobility,
            cfg.radio.car_radio(),
            sim.streams.get(f"car-{car_id}"),
            ap_ids,
            cfg.carq,
            name=f"car-{car_id}",
        )
        cars[car_id] = car
        car.start()
    return MultiApRoundContext(sim=sim, capture=capture, cars=cars, config=cfg)


def collect_download_outcomes(ctx: MultiApRoundContext) -> list[DownloadOutcome]:
    """Per-car download outcomes of one finished traversal."""
    cfg = ctx.config
    outcomes = []
    for index, (car_id, car) in enumerate(ctx.cars.items()):
        coop_events = [
            (time, seq)
            for seq, time in reception_state(car).recovered.items()
            if 1 <= seq <= cfg.file_blocks
        ]
        direct_events = [
            (ctx.capture.delivery_time(car_id, car_id, seq), seq)
            for seq in ctx.capture.delivered_seqs(car_id, car_id)
            if 1 <= seq <= cfg.file_blocks
        ]
        completion_direct = _completion_time(direct_events, cfg.file_blocks)
        completion_coop = _completion_time(direct_events + coop_events, cfg.file_blocks)
        outcomes.append(
            DownloadOutcome(
                car=car_id,
                aps_visited_coop=_aps_passed(cfg, index, completion_coop),
                aps_visited_direct=_aps_passed(cfg, index, completion_direct),
                completion_time_coop=completion_coop,
                completion_time_direct=completion_direct,
            )
        )
    return outcomes


def _completion_time(events: list[tuple[float, int]], blocks: int) -> float | None:
    """Instant at which the set of distinct blocks first reaches *blocks*."""
    held: set[int] = set()
    for time, seq in sorted(events):
        held.add(seq)
        if len(held) >= blocks:
            return time
    return None


def collect_multi_ap_row(ctx: MultiApRoundContext) -> dict:
    """Reduce a finished traversal to its campaign result row."""
    encoded = []
    for outcome in collect_download_outcomes(ctx):
        encoded.append(
            {
                "car": int(outcome.car),
                "aps_visited_coop": (
                    None
                    if math.isinf(outcome.aps_visited_coop)
                    else outcome.aps_visited_coop
                ),
                "aps_visited_direct": (
                    None
                    if math.isinf(outcome.aps_visited_direct)
                    else outcome.aps_visited_direct
                ),
                "completion_time_coop": outcome.completion_time_coop,
                "completion_time_direct": outcome.completion_time_direct,
            }
        )
    return {"outcomes": encoded}


def _download_preset() -> dict:
    """The §6 study at its published scale (no grid)."""
    return {
        "name": "download",
        "scenario": "multi_ap",
        "seed": 77,
        "rounds": 5,
        "base": config_to_dict(MultiApConfig()),
        "axes": [],
    }


PLUGIN = register(
    ScenarioPlugin(
        name="multi_ap",
        description=(
            "§6 file download along an infostation road: APs a car must "
            "visit with vs without cooperative recovery"
        ),
        config_cls=MultiApConfig,
        build_round=build_multi_ap_round,
        collect_row=collect_multi_ap_row,
        summarize=summarize_downloads,
        summary_cls=DownloadSummary,
        report_header=DOWNLOAD_REPORT_HEADER,
        report_line=download_report_line,
        modes=("carq",),
        presets=(
            ScenarioPreset(
                "download",
                "file download across infostations, paired coop vs direct",
                _download_preset,
            ),
        ),
    )
)
