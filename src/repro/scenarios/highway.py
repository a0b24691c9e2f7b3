"""Highway drive-thru rounds (after Ott & Kutscher [1]), as a plugin.

The paper motivates C-ARQ with highway measurements: 50–60 % losses for a
car passing an AP at speed.  This scenario reproduces that geometry — a
straight road, an AP off the roadside, a platoon passing once at a chosen
speed — and sweeps over speed through the ``speed`` preset.  Like the
urban scenario, the protocol is the config's ``mode`` field, so baseline
arms pair with C-ARQ on identical channel realisations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CarqConfig
from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.mac.medium import Medium
from repro.mobility.highway import HighwayScenario, highway_scenario
from repro.mobility.path import PathMobility
from repro.mobility.static import StaticMobility
from repro.net.ap import AccessPoint
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
from repro.units import kmh_to_ms


#: Highway radio defaults: the 11 Mb/s CCK rate — the setting where Ott &
#: Kutscher [1] measured 50–60 % drive-thru losses — with heavier scatter
#: (passing trucks, no street canyon to guide the signal).
_HIGHWAY_RADIO = RadioEnvironment(
    rate_name="dsss-11",
    shadowing_sigma_db=5.0,
    common_shadowing_sigma_db=5.0,
    rician_k=1.5,
)


@dataclass(frozen=True)
class HighwayConfig:
    """One highway drive-thru experiment.

    Attributes
    ----------
    speed_ms:
        Platoon speed (constant on a highway).
    n_cars / gap_m:
        Platoon composition; highway gaps scale with speed in reality but
        a fixed headway keeps the comparison across speeds clean.
    road_length_m / ap_offset_m:
        Geometry (see :func:`repro.mobility.highway.highway_scenario`).
    packet_rate_hz / payload_bytes:
        Per-car flow workload.
    seed / rounds:
        Experiment repetition control.
    mode:
        Protocol the platoon runs (``carq`` or any baseline mode).
    """

    speed_ms: float = 30.0
    n_cars: int = 3
    gap_m: float = 35.0
    road_length_m: float = 4000.0
    ap_offset_m: float = 20.0
    #: Platoon mode (default) staggers car *entry times* at the road
    #: start — the paper's convoy passing the AP.  Spread mode instead
    #: staggers *start positions* along the road, modelling sparse
    #: through-traffic at scale (the large-N benchmark geometry).
    spread_along_road: bool = False
    packet_rate_hz: float = 10.0
    payload_bytes: int = 1000
    seed: int = 404
    rounds: int = 10
    radio: RadioEnvironment = field(default_factory=lambda: _HIGHWAY_RADIO)
    # Highway windows leave hundreds of packets missing: the per-packet
    # REQUEST of the urban prototype is too slow, so the highway scenario
    # uses the paper's §3.3 batched-REQUEST optimisation by default.
    carq: CarqConfig = field(
        default_factory=lambda: CarqConfig(batch_requests=True, max_batch=64)
    )
    mode: str = "carq"

    def __post_init__(self) -> None:
        if self.speed_ms <= 0.0:
            raise ConfigurationError("speed must be positive")
        if self.n_cars < 1:
            raise ConfigurationError("need at least one car")
        if self.gap_m <= 0.0:
            raise ConfigurationError("gap must be positive")
        validate_mode(self.mode)

    @property
    def round_duration_s(self) -> float:
        """Time for the whole platoon to traverse the road, plus slack for
        the dark-area recovery after leaving coverage."""
        travel = (self.road_length_m + self.n_cars * self.gap_m) / self.speed_ms
        return travel + 60.0


@dataclass
class HighwayRoundContext:
    """One built highway round."""

    sim: Simulator
    capture: TraceCollector
    scenario: HighwayScenario
    ap: AccessPoint
    cars: dict[NodeId, object]
    config: HighwayConfig
    mode: str = "carq"

    def run(self) -> None:
        """Execute the drive-thru."""
        self.sim.run(until=self.config.round_duration_s)


def build_highway_round(cfg: HighwayConfig, round_index: int) -> HighwayRoundContext:
    """Wire one highway pass running ``cfg.mode`` vehicles."""
    sim = Simulator(seed=round_seed(cfg.seed, round_index, stride=6007))
    scenario = highway_scenario(
        road_length=cfg.road_length_m, ap_offset=cfg.ap_offset_m
    )
    capture = TraceCollector()
    # Highway propagation: two-ray ground (flat open road), no buildings.
    channel = channels.highway_channel(cfg.radio, sim, AP_NODE_ID)
    medium = build_medium(sim, channel, cfg.radio, trace=capture)
    car_ids = _car_ids(cfg.n_cars)
    flows = make_flows(car_ids, cfg.packet_rate_hz, cfg.payload_bytes)
    ap = ap_class(cfg.mode)(
        sim,
        medium,
        AP_NODE_ID,
        StaticMobility(scenario.ap_position),
        cfg.radio.ap_radio(),
        sim.streams.get("ap"),
        flows,
    )
    if cfg.spread_along_road:
        track_length = scenario.track.length
        mobilities = [
            PathMobility(
                scenario.track,
                cfg.speed_ms,
                start_arc_length=min(index * cfg.gap_m, track_length),
                start_time=0.0,
            )
            for index in range(cfg.n_cars)
        ]
    else:
        mobilities = [
            PathMobility(
                scenario.track,
                cfg.speed_ms,
                start_arc_length=0.0,
                start_time=index * cfg.gap_m / cfg.speed_ms,
            )
            for index in range(cfg.n_cars)
        ]
    cars = spawn_platoon(
        cfg.mode,
        sim,
        medium,
        car_ids,
        mobilities,
        cfg.radio.car_radio(),
        AP_NODE_ID,
        cfg.carq,
    )
    ap.start()
    for car in cars.values():
        car.start()
    return HighwayRoundContext(
        sim=sim,
        capture=capture,
        scenario=scenario,
        ap=ap,
        cars=cars,
        config=cfg,
        mode=cfg.mode,
    )


def collect_highway_row(ctx: HighwayRoundContext) -> dict:
    """Reduce a finished round to its campaign result row."""
    matrices = collect_matrices(ctx.capture, ctx.cars)
    return {"matrices": [encode_matrix(m) for m in matrices.values()]}


def _speed_preset() -> dict:
    """The drive-thru sweep, with grid labels in km/h.

    Points are labelled by the km/h the user thinks in (so ``--points
    80`` selects the 80 km/h pass) while the overrides carry m/s.
    """
    base = HighwayConfig(rounds=3)
    return {
        "name": "speed",
        "scenario": "highway",
        "seed": base.seed,
        "rounds": base.rounds,
        "base": config_to_dict(base),
        "axes": [
            {
                "name": "speed_kmh",
                "points": [
                    {"label": v, "overrides": {"speed_ms": kmh_to_ms(v)}}
                    for v in (40.0, 80.0, 120.0)
                ],
            }
        ],
    }


PLUGIN = register(
    ScenarioPlugin(
        name="highway",
        description=(
            "Ott & Kutscher drive-thru: a platoon passes one roadside AP "
            "once at highway speed"
        ),
        config_cls=HighwayConfig,
        build_round=build_highway_round,
        collect_row=collect_highway_row,
        summarize=summarize_matrices,
        summary_cls=SweepPoint,
        report_header=SWEEP_REPORT_HEADER,
        report_line=sweep_report_line,
        modes=PROTOCOL_MODES,
        presets=(
            ScenarioPreset(
                "speed",
                "drive-thru losses vs pass speed (40–120 km/h)",
                _speed_preset,
            ),
        ),
    )
)
