"""Configs refuse speeds, lengths, durations, rates, timings, offsets
and radio parameters that cannot run.

``value <= 0.0`` lets NaN through, and a NaN or infinite speed, length
or duration made a round end at NaN (which never stopped the event
loop) or never.  An infinite packet rate is a 0 s send interval, so the
clock never moves; an infinite HELLO period schedules the first beacon
at t = inf; a NaN offset or radio parameter makes the reachability bound
cull every link.  Each check must name the field and the value.
"""

from dataclasses import fields

import pytest

from repro.core.config import CarqConfig
from repro.errors import ConfigurationError, TraceFormatError
from repro.scenarios.bidirectional import BidirectionalConfig
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.multi_ap import MultiApConfig
from repro.scenarios.trace import SynthTraceConfig, TraceScenarioConfig
from repro.scenarios.urban import (
    PlatoonConfig,
    RadioEnvironment,
    UrbanScenarioConfig,
)

CHECKED = [
    (HighwayConfig, "speed_ms"),
    (HighwayConfig, "gap_m"),
    (HighwayConfig, "road_length_m"),
    (MultiApConfig, "speed_ms"),
    (MultiApConfig, "gap_m"),
    (MultiApConfig, "ap_spacing_m"),
    (MultiApConfig, "road_length_m"),
    (BidirectionalConfig, "speed_ms"),
    (BidirectionalConfig, "oncoming_speed_ms"),
    (BidirectionalConfig, "gap_m"),
    (BidirectionalConfig, "oncoming_gap_m"),
    (BidirectionalConfig, "road_length_m"),
    (BidirectionalConfig, "oncoming_delay_s"),
    (UrbanScenarioConfig, "round_duration_s"),
    (PlatoonConfig, "cruise_speed_ms"),
    (PlatoonConfig, "corner_speed_ms"),
    (PlatoonConfig, "initial_gap_m"),
    (TraceScenarioConfig, "tick_s"),
    (TraceScenarioConfig, "packet_rate_hz"),
    (UrbanScenarioConfig, "packet_rate_hz"),
    (HighwayConfig, "packet_rate_hz"),
    (BidirectionalConfig, "packet_rate_hz"),
    (MultiApConfig, "packet_rate_hz"),
    (HighwayConfig, "ap_offset_m"),
    (BidirectionalConfig, "ap_offset_m"),
    (BidirectionalConfig, "lane_offset_m"),
    (MultiApConfig, "ap_offset_m"),
    (TraceScenarioConfig, "ap_offset_m"),
    (CarqConfig, "hello_period_s"),
    (CarqConfig, "coverage_timeout_s"),
    (CarqConfig, "cooperator_ttl_s"),
    (CarqConfig, "responder_slot_s"),
    (CarqConfig, "request_guard_s"),
] + [
    (RadioEnvironment, f.name)
    for f in fields(RadioEnvironment)
    if isinstance(getattr(RadioEnvironment(), f.name), float)
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "cls, name", CHECKED, ids=[f"{cls.__name__}.{name}" for cls, name in CHECKED]
)
def test_non_finite_value_is_refused(cls, name, value):
    with pytest.raises(ConfigurationError, match=f"{name}={value!r}"):
        cls(**{name: value})


@pytest.mark.parametrize(
    "name", ["duration_s", "tick_s", "road_length_m", "mean_speed_ms"]
)
def test_synthetic_recording_refuses_nan(name):
    with pytest.raises(TraceFormatError, match=f"{name} must be positive and finite"):
        SynthTraceConfig(**{name: float("nan")}).build()
