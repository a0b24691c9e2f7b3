"""Exports: Perfetto/Chrome trace JSON and the ``repro stats`` report.

The trace document follows the Chrome trace-event JSON object format —
``{"traceEvents": [...]}`` with complete (``"ph": "X"``) events whose
``ts``/``dur`` are microseconds — which https://ui.perfetto.dev loads
directly.  :func:`validate_chrome_trace` is the schema check CI's
obs-smoke job runs against every exported file; export itself validates
before writing, so a malformed document can never reach disk silently.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.errors import ObsError
from repro.ioutil import atomic_write_text
from repro.obs.spans import SpanTracer


def chrome_trace(
    tracer: SpanTracer, *, metadata: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Render a tracer's completed spans as a Chrome trace document.

    All spans go on one pid/tid: they were recorded by one thread with
    stack discipline, so Perfetto reconstructs the nesting from the
    timestamps alone.
    """
    origin = tracer.origin_ns
    events = []
    for span in tracer.spans():
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": (span.start_ns - origin) / 1000.0,
            "dur": span.dur_ns / 1000.0,
            "pid": 0,
            "tid": 0,
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    events.sort(key=lambda event: event["ts"])
    document: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata or tracer.dropped:
        document["otherData"] = {
            **(metadata or {}),
            "dropped_spans": tracer.dropped,
        }
    return document


def validate_chrome_trace(document: Any) -> None:
    """Raise :class:`ObsError` unless *document* is a loadable trace.

    Checks the subset of the Chrome trace-event format this exporter
    emits: a JSON object with a ``traceEvents`` list of complete events
    carrying string names/categories, numeric non-negative ``ts``/
    ``dur``, integer ``pid``/``tid``, and JSON-object ``args`` if any.
    """
    if not isinstance(document, dict):
        raise ObsError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ObsError("trace document needs a 'traceEvents' list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ObsError(f"traceEvents[{i}] is not an object")
        context = f"traceEvents[{i}] ({event.get('name')!r})"
        for key in ("name", "cat"):
            if not isinstance(event.get(key), str):
                raise ObsError(f"{context}: {key!r} must be a string")
        if event.get("ph") != "X":
            raise ObsError(f"{context}: expected complete event ph='X'")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ObsError(f"{context}: {key!r} must be a number >= 0")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ObsError(f"{context}: {key!r} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            raise ObsError(f"{context}: 'args' must be an object")


def write_chrome_trace(
    tracer: SpanTracer, path, *, metadata: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Validate and write the trace JSON; returns the document."""
    document = chrome_trace(tracer, metadata=metadata)
    validate_chrome_trace(document)
    # Atomic replace: a half-written trace JSON fails Perfetto's parser
    # with no hint that an interrupt (not the exporter) tore it.
    atomic_write_text(os.fspath(path), json.dumps(document) + "\n")
    return document


# -- the ``repro stats`` breakdown -------------------------------------------


def _fmt_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    return f"{value:,.0f}" if value == int(value) else f"{value:,.1f}"


def _counter(snapshot: dict[str, Any], name: str) -> int:
    metric = snapshot.get(name)
    return metric["value"] if metric else 0


def render_stats_report(
    snapshot: dict[str, Any],
    *,
    elapsed_s: float | None = None,
    top: int = 12,
) -> str:
    """Human-readable breakdown of a metrics snapshot.

    The event-kernel section leads and names the top cost centers with
    call counts — the "which callbacks eat the events/s budget" answer
    the ROADMAP's kernel-ceiling work needs.
    """
    lines: list[str] = []
    known: set[str] = set()

    def counter(name: str) -> int:
        known.add(name)
        return _counter(snapshot, name)

    pushed = counter("sim.events_pushed")
    fired = counter("sim.events_fired")
    cancelled = counter("sim.events_cancelled")
    lines.append("event kernel")
    lines.append(f"  events pushed     {_fmt_count(pushed):>10}")
    lines.append(f"  events fired      {_fmt_count(fired):>10}")
    lines.append(f"  events cancelled  {_fmt_count(cancelled):>10}")
    if elapsed_s and fired:
        lines.append(
            f"  events/s          {_fmt_count(fired / elapsed_s):>10}"
            f"  (over {elapsed_s:.2f} s wall)"
        )
    depth = snapshot.get("sim.queue_depth")
    known.add("sim.queue_depth")
    if depth and depth.get("samples"):
        lines.append(
            f"  queue depth       max {_fmt_count(depth['max'])}, "
            f"mean {depth['mean']:.1f}"
        )
    costs = snapshot.get("sim.cost_centers")
    known.add("sim.cost_centers")
    if costs and costs["rows"]:
        lines.append("  top cost centers (by cumulative callback wall time)")
        ranked = sorted(
            costs["rows"].items(),
            key=lambda item: item[1]["total"],
            reverse=True,
        )
        grand_total = sum(row["total"] for _, row in ranked) or 1.0
        for name, row in ranked[:top]:
            share = 100.0 * row["total"] / grand_total
            lines.append(
                f"    {name:<42} {_fmt_count(row['count']):>9} calls "
                f"{row['total'] * 1e3:>9.1f} ms  {share:>4.1f}%"
            )

    broadcasts = counter("medium.broadcasts")
    if broadcasts:
        batch = counter("medium.batch_broadcasts")
        scalar = counter("medium.scalar_broadcasts")
        unheard = counter("medium.unheard_broadcasts")
        before = counter("medium.candidates_before_cull")
        after = counter("medium.candidates_after_cull")
        lines.append("medium")
        lines.append(
            f"  broadcasts        {_fmt_count(broadcasts):>10}"
            f"  (batch {_fmt_count(batch)} / scalar {_fmt_count(scalar)}"
            f" / unheard {_fmt_count(unheard)})"
        )
        culled = 100.0 * (1.0 - after / before) if before else 0.0
        lines.append(
            f"  candidates        {_fmt_count(before):>10} before cull, "
            f"{_fmt_count(after)} admitted ({culled:.1f}% culled)"
        )
        lanes = snapshot.get("medium.batch_lanes")
        known.add("medium.batch_lanes")
        if lanes and lanes["count"]:
            mean_lanes = lanes["total"] / lanes["count"]
            lines.append(
                f"  batch lanes       mean {mean_lanes:.1f}, "
                f"max {_fmt_count(lanes['max'])}"
            )
        delivery = snapshot.get("medium.delivery_lanes")
        known.add("medium.delivery_lanes")
        if delivery and delivery["count"]:
            mean_rx = delivery["total"] / delivery["count"]
            lines.append(
                f"  delivery lanes    mean {mean_rx:.1f} receivers per "
                f"frame end, max {_fmt_count(delivery['max'])}"
            )
    else:
        known.update((
            "medium.batch_broadcasts", "medium.scalar_broadcasts",
            "medium.unheard_broadcasts", "medium.candidates_before_cull",
            "medium.candidates_after_cull",
            "medium.batch_lanes", "medium.delivery_lanes",
        ))

    hello_tx = counter("proto.hello_tx")
    request_tx = counter("proto.request_tx")
    coop_tx = counter("proto.coop_data_tx")
    if hello_tx or request_tx or coop_tx:
        lines.append("protocol")
        lines.append(
            f"  HELLO             {_fmt_count(hello_tx):>10} tx / "
            f"{_fmt_count(counter('proto.hello_rx'))} rx"
        )
        lines.append(
            f"  REQUEST           {_fmt_count(request_tx):>10} tx / "
            f"{_fmt_count(counter('proto.request_rx'))} rx"
        )
        lines.append(
            f"  coop data         {_fmt_count(coop_tx):>10} tx / "
            f"{_fmt_count(counter('proto.coop_data_rx'))} rx "
            f"({_fmt_count(counter('proto.responses_suppressed'))} suppressed)"
        )
    else:
        known.update((
            "proto.hello_rx", "proto.request_rx", "proto.coop_data_rx",
            "proto.responses_suppressed",
        ))

    hits = counter("buffer.hits")
    misses = counter("buffer.misses")
    evictions = counter("buffer.evictions")
    if hits or misses or evictions:
        lookups = hits + misses
        share = f"{100.0 * hits / lookups:.1f}% hits, " if lookups else ""
        lines.append("packet buffer")
        lines.append(
            f"  lookups           {_fmt_count(lookups):>10}"
            f"  ({share}{_fmt_count(evictions)} evictions)"
        )

    other = sorted(set(snapshot) - known)
    if other:
        lines.append("other")
        for name in other:
            metric = snapshot[name]
            if metric.get("type") == "counter":
                lines.append(f"  {name:<32} {_fmt_count(metric['value']):>10}")
            else:
                lines.append(f"  {name:<32} ({metric.get('type')})")
    return "\n".join(lines)
