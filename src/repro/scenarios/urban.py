"""The urban-testbed scenario: the paper's Fig. 2 loop, as a plugin.

A *round* is one platoon lap past the AP, simulated end-to-end with fresh
random streams — the unit the paper repeats 30 times.  The builder here
assembles everything: simulator, channel, medium, trace capture, the AP
and the vehicles.  The protocol is a config field (``mode``): C-ARQ by
default, any baseline via the mode factory — same seeds, same
trajectories, same channel realisation structure, so baseline arms of a
campaign are paired with the C-ARQ arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import CarqConfig
from repro.errors import ConfigurationError
from repro.mac.frames import NodeId
from repro.mac.medium import Medium
from repro.mobility.base import MobilityModel
from repro.mobility.idm import DriverProfile, simulate_platoon
from repro.mobility.profile import CurvatureSpeedProfile
from repro.mobility.static import StaticMobility
from repro.mobility.urban import UrbanTestbed, urban_loop
from repro.net.ap import AccessPoint
from repro.radio.modulation import rate_by_name
from repro.radio.phy import RadioConfig
from repro.scenarios import channels
from repro.scenarios.common import (
    AP_NODE_ID,
    build_medium,
    car_ids as _car_ids,
    collect_matrices,
    frames_sent_by_node,
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
from repro.sim import Simulator
from repro.trace.capture import TraceCollector


@dataclass(frozen=True)
class RadioEnvironment:
    """Propagation and radio parameters of a scenario.

    The defaults are calibrated so the urban testbed reproduces the
    paper's loss levels (~23–29 % per car before cooperation) with a
    coverage window of roughly 120–145 packets per flow — see
    EXPERIMENTS.md for the calibration record.
    """

    pathloss_exponent: float = 3.7
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 3.25
    shadowing_decorrelation_m: float = 18.0
    common_shadowing_sigma_db: float = 6.25
    common_shadowing_tau_s: float = 2.5
    rician_k: float = 4.0
    ap_tx_power_dbm: float = 19.0
    car_tx_power_dbm: float = 15.0
    rate_name: str = "dsss-1"
    building_loss_db: float = 31.0
    #: Reception path (see :class:`repro.mac.medium.Medium`): when true
    #: (default), the production path — the medium finds receivers
    #: through its spatial neighbor index, culls links that cannot clear
    #: the sensitivity threshold before sampling them, and evaluates big
    #: candidate sets with the vectorized batch kernel.  Turning it off
    #: selects the exhaustive scalar oracle, which must produce
    #: bit-identical rows (A/B validation).
    reception_fast_path: bool = True
    #: Worst-case shadowing boost (dB) granted by the reachability bound.
    cull_headroom_db: float = 12.0

    def ap_radio(self) -> RadioConfig:
        """PHY parameters of the access point."""
        return RadioConfig(
            tx_power_dbm=self.ap_tx_power_dbm, rate=rate_by_name(self.rate_name)
        )

    def car_radio(self) -> RadioConfig:
        """PHY parameters of a vehicle."""
        return RadioConfig(
            tx_power_dbm=self.car_tx_power_dbm, rate=rate_by_name(self.rate_name)
        )


@dataclass(frozen=True)
class PlatoonConfig:
    """Platoon composition and driving style.

    ``driver_styles`` entries are ``"normal"``, ``"timid"`` or
    ``"aggressive"``; the testbed default recreates the paper's platoon
    (experienced leader, inexperienced driver 2, tailgating driver 3).
    """

    n_cars: int = 3
    cruise_speed_ms: float = 5.6       # ≈ 20 km/h
    corner_speed_ms: float = 3.2
    initial_gap_m: float = 14.0
    driver_styles: tuple[str, ...] = ("normal", "timid", "aggressive")
    follower_speed_factor: float = 1.2
    acceleration_noise_std: float = 0.15

    def __post_init__(self) -> None:
        if self.n_cars < 1:
            raise ConfigurationError("need at least one car")
        valid = {"normal", "timid", "aggressive"}
        for style in self.driver_styles:
            if style not in valid:
                raise ConfigurationError(f"unknown driver style {style!r}")

    def driver_profiles(self) -> list[DriverProfile]:
        """One profile per car (styles repeat if fewer than ``n_cars``)."""
        profiles = []
        base = DriverProfile(acceleration_noise_std=self.acceleration_noise_std)
        for index in range(self.n_cars):
            style = self.driver_styles[index % len(self.driver_styles)]
            profile = {
                "normal": base,
                "timid": base.timid(),
                "aggressive": base.aggressive(),
            }[style]
            if index > 0:
                # Followers chase the leader; see repro.mobility.idm notes.
                profile = replace(profile, speed_factor=self.follower_speed_factor)
            profiles.append(profile)
        return profiles


@dataclass(frozen=True)
class UrbanScenarioConfig:
    """Everything defining the urban testbed experiment."""

    seed: int = 2008
    rounds: int = 30
    round_duration_s: float = 85.0
    packet_rate_hz: float = 5.0
    payload_bytes: int = 1000
    radio: RadioEnvironment = field(default_factory=RadioEnvironment)
    platoon: PlatoonConfig = field(default_factory=PlatoonConfig)
    carq: CarqConfig = field(default_factory=CarqConfig)
    mode: str = "carq"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("need at least one round")
        if self.round_duration_s <= 0.0:
            raise ConfigurationError("round duration must be positive")
        validate_mode(self.mode)

    def car_ids(self) -> list[NodeId]:
        """Vehicle node ids, platoon order (car 1 leads)."""
        return _car_ids(self.platoon.n_cars)


@dataclass
class RoundContext:
    """Everything built for one round, ready to run."""

    sim: Simulator
    medium: Medium
    capture: TraceCollector
    testbed: UrbanTestbed
    ap: AccessPoint
    cars: dict[NodeId, object]
    config: UrbanScenarioConfig
    mode: str = "carq"

    def run(self) -> None:
        """Execute the round to its configured duration."""
        self.sim.run(until=self.config.round_duration_s)


def build_platoon_mobility(
    cfg: UrbanScenarioConfig, sim: Simulator, testbed: UrbanTestbed
) -> list[MobilityModel]:
    """IDM trajectories for the round, with per-round driver variability."""
    rng = sim.streams.get("mobility")
    profiles = cfg.platoon.driver_profiles()
    # Humans are not metronomes: jitter speeds and gaps a little per round.
    jittered = []
    for profile in profiles:
        factor = float(rng.normal(1.0, 0.02))
        jittered.append(replace(profile, speed_factor=profile.speed_factor * factor))
    speed_profile = CurvatureSpeedProfile(
        testbed.track,
        cruise_speed=cfg.platoon.cruise_speed_ms,
        corner_speed=cfg.platoon.corner_speed_ms,
    )
    initial_gap = cfg.platoon.initial_gap_m * float(rng.uniform(0.85, 1.15))
    return list(
        simulate_platoon(
            testbed.track,
            speed_profile,
            jittered,
            duration=cfg.round_duration_s,
            rng=rng,
            initial_gap=initial_gap,
            lead_start_arc=testbed.start_arc_length,
        )
    )


def build_channel(cfg: UrbanScenarioConfig, sim: Simulator, testbed=None):
    """The urban propagation stack for one round (preset delegate)."""
    return channels.urban_channel(cfg.radio, sim, AP_NODE_ID, testbed)


def build_urban_round(
    cfg: UrbanScenarioConfig,
    round_index: int,
    *,
    testbed: UrbanTestbed | None = None,
) -> RoundContext:
    """Wire one complete round of the urban testbed.

    The protocol the vehicles (and for the ARQ baseline, the AP) run is
    ``cfg.mode``; every mode shares this exact wiring, so comparisons are
    apples-to-apples: same seeds → same trajectories and same channel
    realisation structure.
    """
    sim = Simulator(seed=round_seed(cfg.seed, round_index))
    tb = testbed if testbed is not None else urban_loop()
    capture = TraceCollector()
    medium = build_medium(sim, build_channel(cfg, sim, tb), cfg.radio, trace=capture)

    mobilities = build_platoon_mobility(cfg, sim, tb)
    car_ids = cfg.car_ids()
    flows = make_flows(car_ids, cfg.packet_rate_hz, cfg.payload_bytes)
    ap = ap_class(cfg.mode)(
        sim,
        medium,
        AP_NODE_ID,
        StaticMobility(tb.ap_position),
        cfg.radio.ap_radio(),
        sim.streams.get("ap"),
        flows,
    )
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
    return RoundContext(
        sim=sim,
        medium=medium,
        capture=capture,
        testbed=tb,
        ap=ap,
        cars=cars,
        config=cfg,
        mode=cfg.mode,
    )


def collect_urban_row(ctx: RoundContext) -> dict:
    """Reduce a finished round to its campaign result row."""
    matrices = collect_matrices(ctx.capture, ctx.cars)
    return {
        "matrices": [encode_matrix(m) for m in matrices.values()],
        "frames_sent": {
            str(int(node)): count
            for node, count in frames_sent_by_node(ctx.ap, ctx.cars).items()
        },
    }


# -- presets -----------------------------------------------------------------


def _paper_base() -> dict:
    """The paper's testbed configuration (3 cars, 30 rounds), as JSON."""
    return config_to_dict(UrbanScenarioConfig())


def platoon_size_points(sizes: list[int]) -> list[dict]:
    """Grid points (JSON shape) scaling the platoon to each size.

    Growing the platoon also needs more driver styles — the paper's
    leader/timid/aggressive trio repeats.  Shared by the plugin preset
    and every caller that builds a platoon-size campaign of its own, so
    the grid exists exactly once.
    """
    points = []
    for size in sizes:
        styles = [("normal", "timid", "aggressive")[i % 3] for i in range(size)]
        points.append(
            {
                "label": size,
                "overrides": {
                    "platoon.n_cars": size,
                    "platoon.driver_styles": styles,
                },
            }
        )
    return points


def _platoon_size_preset() -> dict:
    return {
        "name": "platoon-size",
        "scenario": "urban",
        "seed": 2008,
        "rounds": 8,
        "base": _paper_base(),
        "axes": [
            {
                "name": "platoon.n_cars",
                "points": platoon_size_points([1, 2, 3, 4, 5]),
            }
        ],
    }


def _bitrate_preset() -> dict:
    rates = ["dsss-1", "dsss-2", "dsss-5.5", "dsss-11"]
    return {
        "name": "bitrate",
        "scenario": "urban",
        "seed": 2008,
        "rounds": 8,
        "base": _paper_base(),
        "axes": [
            {
                "name": "radio.rate_name",
                "points": [
                    {"label": r, "overrides": {"radio.rate_name": r}} for r in rates
                ],
            }
        ],
    }


def _hello_period_preset() -> dict:
    periods = [0.5, 1.0, 2.0, 3.0]
    return {
        "name": "hello-period",
        "scenario": "urban",
        "seed": 2008,
        "rounds": 8,
        "base": _paper_base(),
        "axes": [
            {
                "name": "carq.hello_period_s",
                "points": [
                    {"label": p, "overrides": {"carq.hello_period_s": p}}
                    for p in periods
                ],
            }
        ],
    }


def _protocol_modes_preset() -> dict:
    """The paper's Table-1 comparison as one paired-seed campaign.

    All four arms share the campaign seed (``independent_seeds`` off), so
    every mode sees the same trajectories and channel realisations.
    """
    return {
        "name": "protocol-modes",
        "scenario": "urban",
        "seed": 2008,
        "rounds": 8,
        "base": _paper_base(),
        "axes": [
            {
                "name": "mode",
                "points": [
                    {"label": m, "overrides": {"mode": m}} for m in PROTOCOL_MODES
                ],
            }
        ],
    }


PLUGIN = register(
    ScenarioPlugin(
        name="urban",
        description=(
            "The paper's testbed: a 3-car platoon lapping the Fig. 2 urban "
            "loop past one window AP"
        ),
        config_cls=UrbanScenarioConfig,
        build_round=build_urban_round,
        collect_row=collect_urban_row,
        summarize=summarize_matrices,
        summary_cls=SweepPoint,
        report_header=SWEEP_REPORT_HEADER,
        report_line=sweep_report_line,
        modes=PROTOCOL_MODES,
        presets=(
            ScenarioPreset(
                "platoon-size",
                "after-coop loss vs platoon size (1–5 cars)",
                _platoon_size_preset,
            ),
            ScenarioPreset(
                "bitrate",
                "losses vs AP bit rate (DSSS 1–11 Mb/s)",
                _bitrate_preset,
            ),
            ScenarioPreset(
                "hello-period",
                "after-coop loss vs HELLO beacon period",
                _hello_period_preset,
            ),
            ScenarioPreset(
                "protocol-modes",
                "Table-1 comparison: C-ARQ vs every baseline, paired seeds",
                _protocol_modes_preset,
            ),
        ),
    )
)
