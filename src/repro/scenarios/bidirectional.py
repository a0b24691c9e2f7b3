"""Bidirectional highway: an oncoming platoon as transient cooperators.

The paper's cooperators are platoon mates that stay together.  This
scenario probes the opposite regime the authors leave open: cooperation
from vehicles that are only *briefly* adjacent.  A platoon drives east
past a roadside AP and into its dark area; an oncoming platoon on the
opposite lane — timed to cross just beyond the AP — overhears nothing of
value on its own behalf (no flows address it) but runs the full C-ARQ
cooperator role: it beacons HELLOs, buffers overheard packets while near
the AP, and answers REQUESTs during the seconds the two platoons pass.

Reception matrices are built over the main platoon only, so the sweep
axis ``oncoming_cars`` (0 = plain one-way reference) isolates exactly
what the transient cooperators add.
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
from repro.scenarios import channels
from repro.scenarios.common import (
    AP_NODE_ID,
    build_medium,
    car_ids as _car_ids,
    collect_matrices,
    make_flows,
    round_seed,
    spawn_platoon,
)
from repro.scenarios.configs import config_to_dict
from repro.scenarios.highway import _HIGHWAY_RADIO
from repro.scenarios.modes import PROTOCOL_MODES, ap_class, validate_mode
from repro.scenarios.registry import ScenarioPlugin, ScenarioPreset, register
from repro.scenarios.urban import RadioEnvironment
from repro.scenarios.summaries import (
    SWEEP_REPORT_HEADER,
    SweepPoint,
    encode_matrix,
    summarize_matrices,
    sweep_report_line,
)
from repro.sim import Simulator
from repro.trace.capture import TraceCollector

#: Oncoming vehicles get ids from 51 up, clear of main-platoon ids (1…)
#: and AP ids (100, 200…).
ONCOMING_BASE_ID = 51


@dataclass(frozen=True)
class BidirectionalConfig:
    """One bidirectional pass: main platoon east, oncoming platoon west.

    Attributes
    ----------
    speed_ms / n_cars / gap_m:
        The main (served) platoon, as in the highway scenario.
    oncoming_cars / oncoming_speed_ms / oncoming_gap_m:
        The opposite-lane platoon (0 cars = one-way reference run).
    oncoming_delay_s:
        Departure delay of the oncoming platoon from the east end.  With
        equal speeds the platoons then cross ``speed_ms·delay/2`` metres
        past the AP — i.e. inside the main platoon's dark area, where
        REQUESTs happen.
    lane_offset_m:
        Perpendicular separation of the two lanes.
    road_length_m / ap_offset_m:
        Geometry, as in the highway scenario.
    """

    speed_ms: float = 25.0
    n_cars: int = 3
    gap_m: float = 35.0
    oncoming_cars: int = 3
    oncoming_speed_ms: float = 25.0
    oncoming_gap_m: float = 35.0
    oncoming_delay_s: float = 20.0
    lane_offset_m: float = 7.0
    road_length_m: float = 3000.0
    ap_offset_m: float = 20.0
    packet_rate_hz: float = 10.0
    payload_bytes: int = 1000
    seed: int = 1651
    rounds: int = 5
    radio: RadioEnvironment = field(default_factory=lambda: _HIGHWAY_RADIO)
    carq: CarqConfig = field(
        default_factory=lambda: CarqConfig(max_batch=64)
    )
    mode: str = "carq"

    def __post_init__(self) -> None:
        require_positive(
            "speeds", speed_ms=self.speed_ms,
            oncoming_speed_ms=self.oncoming_speed_ms,
        )
        if self.n_cars < 1:
            raise ConfigurationError("need at least one car")
        if self.oncoming_cars < 0:
            raise ConfigurationError("oncoming_cars cannot be negative")
        require_positive(
            "gaps", gap_m=self.gap_m, oncoming_gap_m=self.oncoming_gap_m
        )
        require_positive("road length", road_length_m=self.road_length_m)
        require_finite(
            "offsets", lane_offset_m=self.lane_offset_m, ap_offset_m=self.ap_offset_m
        )
        require_positive("packet rate", packet_rate_hz=self.packet_rate_hz)
        if not 0.0 <= self.oncoming_delay_s < math.inf:
            raise ConfigurationError(
                "oncoming delay must be finite and not negative: "
                f"oncoming_delay_s={self.oncoming_delay_s!r}"
            )
        validate_mode(self.mode)

    def main_ids(self) -> list[NodeId]:
        """Main-platoon node ids (car 1 leads)."""
        return _car_ids(self.n_cars)

    def oncoming_ids(self) -> list[NodeId]:
        """Oncoming-platoon node ids."""
        return _car_ids(self.oncoming_cars, first=ONCOMING_BASE_ID)

    @property
    def round_duration_s(self) -> float:
        """Main-platoon traversal plus dark-area recovery slack."""
        travel = (self.road_length_m + self.n_cars * self.gap_m) / self.speed_ms
        return travel + 60.0


@dataclass
class BidirectionalRoundContext:
    """One built bidirectional round."""

    sim: Simulator
    capture: TraceCollector
    ap: object
    main_cars: dict[NodeId, object]
    oncoming_cars: dict[NodeId, object]
    config: BidirectionalConfig

    @property
    def cars(self) -> dict[NodeId, object]:
        """All vehicles, main platoon first."""
        return {**self.main_cars, **self.oncoming_cars}

    def run(self) -> None:
        """Execute the pass."""
        self.sim.run(until=self.config.round_duration_s)


def build_bidirectional_round(
    cfg: BidirectionalConfig, round_index: int
) -> BidirectionalRoundContext:
    """Wire one bidirectional pass."""
    sim = Simulator(seed=round_seed(cfg.seed, round_index, stride=5003))
    capture = TraceCollector()
    medium = build_medium(
        sim, channels.highway_channel(cfg.radio, sim, AP_NODE_ID), cfg.radio,
        trace=capture,
    )

    east = Polyline([Vec2(0.0, 0.0), Vec2(cfg.road_length_m, 0.0)])
    west = Polyline(
        [Vec2(cfg.road_length_m, cfg.lane_offset_m), Vec2(0.0, cfg.lane_offset_m)]
    )
    ap_position = Vec2(cfg.road_length_m / 2.0, -cfg.ap_offset_m)

    main_ids = cfg.main_ids()
    flows = make_flows(main_ids, cfg.packet_rate_hz, cfg.payload_bytes)
    ap = ap_class(cfg.mode)(
        sim,
        medium,
        AP_NODE_ID,
        StaticMobility(ap_position),
        cfg.radio.ap_radio(),
        sim.streams.get("ap"),
        flows,
    )
    main_mobility = [
        PathMobility(east, cfg.speed_ms, start_time=i * cfg.gap_m / cfg.speed_ms)
        for i in range(cfg.n_cars)
    ]
    main_cars = spawn_platoon(
        cfg.mode,
        sim,
        medium,
        main_ids,
        main_mobility,
        cfg.radio.car_radio(),
        AP_NODE_ID,
        cfg.carq,
    )
    oncoming_ids = cfg.oncoming_ids()
    oncoming_mobility = [
        PathMobility(
            west,
            cfg.oncoming_speed_ms,
            start_time=cfg.oncoming_delay_s
            + i * cfg.oncoming_gap_m / cfg.oncoming_speed_ms,
        )
        for i in range(cfg.oncoming_cars)
    ]
    oncoming_cars = spawn_platoon(
        cfg.mode,
        sim,
        medium,
        oncoming_ids,
        oncoming_mobility,
        cfg.radio.car_radio(),
        AP_NODE_ID,
        cfg.carq,
    )
    ap.start()
    for car in main_cars.values():
        car.start()
    for car in oncoming_cars.values():
        car.start()
    return BidirectionalRoundContext(
        sim=sim,
        capture=capture,
        ap=ap,
        main_cars=main_cars,
        oncoming_cars=oncoming_cars,
        config=cfg,
    )


def collect_bidirectional_row(ctx: BidirectionalRoundContext) -> dict:
    """Reduce a finished pass to its campaign result row.

    Matrices cover the main platoon only (observers and flows): the
    oncoming platoon's help is visible exactly where it belongs, in the
    after-coop column, so the ``oncoming_cars = 0`` reference is a clean
    paired baseline.
    """
    matrices = collect_matrices(ctx.capture, ctx.main_cars)
    return {"matrices": [encode_matrix(m) for m in matrices.values()]}


def _oncoming_preset() -> dict:
    """Loss reduction vs oncoming-platoon size (0 = no transient help)."""
    base = BidirectionalConfig(rounds=3)
    return {
        "name": "oncoming",
        "scenario": "bidirectional",
        "seed": base.seed,
        "rounds": base.rounds,
        "base": config_to_dict(base),
        "axes": [
            {
                "name": "oncoming_cars",
                "points": [
                    {"label": n, "overrides": {"oncoming_cars": n}}
                    for n in (0, 1, 3, 5)
                ],
            }
        ],
    }


PLUGIN = register(
    ScenarioPlugin(
        name="bidirectional",
        description=(
            "Bidirectional highway: an oncoming platoon crosses the dark "
            "area and cooperates for the seconds it is adjacent"
        ),
        config_cls=BidirectionalConfig,
        build_round=build_bidirectional_round,
        collect_row=collect_bidirectional_row,
        summarize=summarize_matrices,
        summary_cls=SweepPoint,
        report_header=SWEEP_REPORT_HEADER,
        report_line=sweep_report_line,
        modes=PROTOCOL_MODES,
        presets=(
            ScenarioPreset(
                "oncoming",
                "after-coop loss vs oncoming-platoon size (0–5 cars)",
                _oncoming_preset,
            ),
        ),
    )
)
