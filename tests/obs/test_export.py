"""Trace export: Chrome/Perfetto document shape, validation, stats report."""

import json

import pytest

from repro.errors import ObsError
from repro.obs.export import (
    chrome_trace,
    render_stats_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer


def _traced():
    t = SpanTracer()
    with t.span("round", cat="campaign", scenario="urban"):
        with t.span("slot", cat="kernel", sim_time=0.1):
            pass
    return t


class TestChromeTrace:
    def test_document_shape(self):
        doc = chrome_trace(_traced())
        validate_chrome_trace(doc)
        assert doc["displayTimeUnit"] == "ms"
        names = [e["name"] for e in doc["traceEvents"]]
        # Events are sorted by start timestamp: parent before child.
        assert names == ["round", "slot"]
        round_event = doc["traceEvents"][0]
        assert round_event["ph"] == "X"
        assert round_event["args"] == {"scenario": "urban"}
        assert round_event["dur"] >= doc["traceEvents"][1]["dur"]

    def test_dropped_spans_surface_in_other_data(self):
        t = SpanTracer(capacity=1)
        for i in range(3):
            t.begin(f"s{i}")
            t.end()
        doc = chrome_trace(t, metadata={"scenario": "urban"})
        assert doc["otherData"] == {"scenario": "urban", "dropped_spans": 2}

    def test_no_other_data_when_clean_and_no_metadata(self):
        assert "otherData" not in chrome_trace(_traced())

    def test_document_is_json_serialisable(self):
        json.dumps(chrome_trace(_traced()))


class TestValidateChromeTrace:
    def _event(self, **overrides):
        event = {"name": "s", "cat": "c", "ph": "X",
                 "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0}
        event.update(overrides)
        return {"traceEvents": [event]}

    def test_accepts_minimal_document(self):
        validate_chrome_trace(self._event())

    @pytest.mark.parametrize(
        "document",
        [
            [],
            {},
            {"traceEvents": {}},
            {"traceEvents": [[]]},
        ],
    )
    def test_rejects_malformed_containers(self, document):
        with pytest.raises(ObsError):
            validate_chrome_trace(document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": 3},
            {"cat": None},
            {"ph": "B"},
            {"ts": -1.0},
            {"dur": "fast"},
            {"pid": 0.5},
            {"tid": None},
            {"args": [1]},
        ],
    )
    def test_rejects_malformed_events(self, overrides):
        with pytest.raises(ObsError):
            validate_chrome_trace(self._event(**overrides))


class TestWriteChromeTrace:
    def test_writes_validated_json(self, tmp_path):
        path = tmp_path / "deep" / "trace.json"
        doc = write_chrome_trace(_traced(), path, metadata={"seed": 7})
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        validate_chrome_trace(on_disk)
        assert on_disk["otherData"]["seed"] == 7


class TestRenderStatsReport:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("sim.events_pushed").inc(120_000)
        reg.counter("sim.events_fired").inc(100_000)
        reg.counter("sim.events_cancelled").inc(5)
        for depth in (10, 200):
            reg.gauge("sim.queue_depth").set(depth)
        reg.table("sim.cost_centers").add("process:_hello_loop", 0.25)
        reg.table("sim.cost_centers").add("Medium._finish_transmission", 0.05)
        reg.counter("medium.broadcasts").inc(500)
        reg.counter("medium.batch_broadcasts").inc(390)
        reg.counter("medium.scalar_broadcasts").inc(10)
        reg.counter("medium.unheard_broadcasts").inc(100)
        reg.counter("medium.candidates_before_cull").inc(16000)
        reg.counter("medium.candidates_after_cull").inc(7000)
        reg.counter("proto.hello_tx").inc(900)
        reg.counter("buffer.hits").inc(30)
        reg.counter("buffer.misses").inc(10)
        return reg.snapshot()

    def test_names_top_cost_centers_with_counts(self):
        report = render_stats_report(self._snapshot(), elapsed_s=2.0)
        assert "event kernel" in report
        assert "events/s" in report
        assert "process:_hello_loop" in report
        assert report.index("process:_hello_loop") < report.index(
            "Medium._finish_transmission"
        )  # ranked by cumulative time

    def test_sections_render(self):
        report = render_stats_report(self._snapshot())
        assert "medium" in report
        assert "56.2% culled" in report
        assert "(batch 390 / scalar 10 / unheard 100)" in report
        assert "protocol" in report
        assert "packet buffer" in report
        assert "75.0% hits" in report

    def test_evictions_without_lookups_render(self):
        # A bounded buffer evicts during coverage, before any REQUEST
        # makes a lookup: the evictions must still show.
        reg = MetricsRegistry()
        reg.counter("buffer.hits")
        reg.counter("buffer.misses")
        reg.counter("buffer.evictions").inc(373)
        report = render_stats_report(reg.snapshot())
        assert "packet buffer" in report
        assert "373 evictions" in report
        assert "% hits" not in report

    def test_unknown_metrics_land_in_other(self):
        snap = {"custom.thing": {"type": "counter", "value": 3}}
        report = render_stats_report(snap)
        assert "other" in report and "custom.thing" in report

    def test_top_limits_cost_center_rows(self):
        reg = MetricsRegistry()
        for i in range(20):
            reg.table("sim.cost_centers").add(f"cb{i:02d}", float(i + 1))
        report = render_stats_report(reg.snapshot(), top=3)
        assert report.count(" calls ") == 3
