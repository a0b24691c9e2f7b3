"""A/B pin: the production reception path changes only wall clock.

For every registered scenario the same small campaign runs twice — on
the production path (culling fast path plus the size-gated vectorized
batch kernel) and on the exhaustive scalar oracle, which bounds *and
samples* every attached interface through the per-receiver reference
loop.  Because all stochastic channel draws are keyed per ``(link,
transmission)`` and the batch kernel reproduces the scalar float64
semantics exactly, the stored summary rows have to match bit for bit.

A scenario added to the registry without an entry here fails the
coverage test below, so the pin cannot silently rot.

Both arms are additionally re-run with the observability layer fully
enabled (metrics registry + span tracer) and compared against the
uninstrumented rows: instrumentation is contractually free of RNG draws
and simulation feedback, so switching it on must not move a single bit.
"""

import dataclasses

import pytest

from repro import obs
from repro.campaign.executor import run_campaign
from repro.campaign.report import point_summaries
from repro.campaign.spec import CampaignSpec, config_to_dict
from repro.campaign.store import MemoryStore
from repro.scenarios.bidirectional import BidirectionalConfig
from repro.scenarios.highway import HighwayConfig
from repro.scenarios.multi_ap import MultiApConfig
from repro.scenarios.registry import scenario_names
from repro.scenarios.trace import SynthTraceConfig, TraceScenarioConfig
from repro.scenarios.urban import UrbanScenarioConfig

#: One cheap-but-representative configuration per registered scenario.
SMALL_CONFIGS = {
    "urban": UrbanScenarioConfig(seed=55, round_duration_s=40.0),
    "highway": HighwayConfig(seed=5, rounds=1, speed_ms=25.0, road_length_m=2000.0),
    "multi_ap": MultiApConfig(
        seed=13,
        rounds=1,
        road_length_m=4000.0,
        ap_spacing_m=800.0,
        file_blocks=60,
        speed_ms=15.0,
    ),
    "bidirectional": BidirectionalConfig(rounds=1, oncoming_cars=2),
    # Deep enough into the dark area that the REQUEST/coop-data recovery
    # path runs (the pin must cover cooperation, not just streaming).
    "trace": TraceScenarioConfig(
        seed=31,
        rounds=1,
        synth=SynthTraceConfig(
            vehicles=5,
            duration_s=70.0,
            road_length_m=1500.0,
            mean_speed_ms=25.0,
            entry_gap_s=2.0,
        ),
    ),
}


def run_rows(scenario: str, config, *, fast_path: bool, instrumented: bool = False):
    radio = dataclasses.replace(config.radio, reception_fast_path=fast_path)
    config = dataclasses.replace(config, radio=radio)
    spec = CampaignSpec(
        name=f"ab-{scenario}-{'production' if fast_path else 'oracle'}",
        scenario=scenario,
        seed=config.seed,
        rounds=1,
        base=config_to_dict(config),
    )
    store = MemoryStore()
    if instrumented:
        with obs.instrumented() as tracer:
            run_campaign(spec, store, workers=1)
            # Guard against a silently dead pin: the instrumentation must
            # actually have observed the round it claims not to perturb.
            assert obs.registry().counter("sim.events_fired").value > 0
            # Likewise the reach horizon: multi_ap's APs beacon to an
            # empty road, so production must skip some broadcasts there;
            # the oracle never consults the horizon.
            unheard = obs.registry().counter("medium.unheard_broadcasts").value
            if not fast_path:
                assert unheard == 0
            elif scenario == "multi_ap":
                assert unheard > 0
        assert len(tracer.spans()) > 0
    else:
        run_campaign(spec, store, workers=1)
    return point_summaries(store, spec)


#: Uninstrumented arm results shared between the two pins below, keyed by
#: ``(scenario, fast_path)`` — each plain arm runs exactly once.
_PLAIN_ROWS: dict = {}


def plain_rows(scenario: str, *, fast_path: bool):
    key = (scenario, fast_path)
    if key not in _PLAIN_ROWS:
        _PLAIN_ROWS[key] = run_rows(
            scenario, SMALL_CONFIGS[scenario], fast_path=fast_path
        )
    return _PLAIN_ROWS[key]


def test_every_registered_scenario_is_covered():
    assert set(SMALL_CONFIGS) == set(scenario_names())


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
def test_fast_path_and_batch_rows_bit_identical(scenario):
    production = plain_rows(scenario, fast_path=True)
    assert production == plain_rows(scenario, fast_path=False)


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
@pytest.mark.parametrize("fast_path", [True, False], ids=["batch", "exhaustive"])
def test_rows_unchanged_with_instrumentation_enabled(scenario, fast_path):
    """The observability non-perturbation contract, pinned per arm.

    Metrics registry on, span tracer installed, every probe live — and
    the stored summary rows still match the uninstrumented run bit for
    bit, because instrumentation takes no RNG draws and never feeds back
    into the simulation (see ``repro.obs``).
    """
    config = SMALL_CONFIGS[scenario]
    instrumented = run_rows(
        scenario, config, fast_path=fast_path, instrumented=True
    )
    assert instrumented == plain_rows(scenario, fast_path=fast_path)
