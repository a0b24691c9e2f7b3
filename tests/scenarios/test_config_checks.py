"""Scenario configs refuse speeds, lengths and durations that cannot run.

``value <= 0.0`` lets NaN through, and a NaN or infinite speed, length
or duration made a round end at NaN (which never stopped the event
loop) or never.  Each check must name the field and the value.
"""

import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.scenarios.bidirectional import BidirectionalConfig
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.multi_ap import MultiApConfig
from repro.scenarios.trace import SynthTraceConfig, TraceScenarioConfig
from repro.scenarios.urban import PlatoonConfig, UrbanScenarioConfig

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
