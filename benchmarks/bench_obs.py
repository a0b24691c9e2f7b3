"""Experiment ``obs`` — observability overhead pins.

The instrumentation contract (docs/OBSERVABILITY.md) has a hard perf
clause: with the registry disabled and no tracer installed, the only
cost left on the event hot path is one attribute load plus an ``is``
test per event.  This bench pins that clause with a measured number —
the disabled-probe overhead against a control simulator whose ``step``
and ``schedule_at`` carry no instrumentation at all — and prints the
fully-enabled cost alongside it for scale.

On an idle machine the printed disabled overhead reads within the ≤2%
budget; the in-test assertion is looser (shared CI boxes jitter) but
still catches a probe accidentally left unguarded.  Values
inside roughly ±2% are the noise floor of this measurement — the guard
costs tens of nanoseconds against a ~2 µs event dispatch — so small
negative figures just mean "indistinguishable from zero".
"""

import time

from repro import obs
from repro.sim import Simulator
from repro.sim.event import Event

#: Events per drain; large enough that per-event costs dominate setup.
N_EVENTS = 50_000
#: Interleaved arm pairs; the median pair ratio rejects scheduler noise.
REPEATS = 15


class BareSimulator(Simulator):
    """Control arm: the kernel hot path with instrumentation erased.

    ``step`` and ``schedule_at`` are verbatim copies of the Simulator
    bodies minus the obs branches — measuring against this isolates the
    cost of the *guards themselves* (the attribute load + ``is`` test),
    which is exactly what the disabled-probe budget promises to bound.
    """

    def schedule_at(self, time, callback, *args, priority=None):
        from repro.sim.event import Priority

        if priority is None:
            priority = Priority.NORMAL
        if time < self._now:
            raise ValueError(time)
        event = Event(time, priority, self._seq, callback, args)
        self._seq += 1
        self._queue.push(event)
        return event

    def step(self) -> bool:
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        event.callback(*event.args)
        return True


def _drain(sim_cls) -> float:
    """Wall-clock seconds to schedule and drain N_EVENTS no-op events."""
    sim = sim_cls()
    noop = lambda: None  # noqa: E731 - the cheapest possible callback
    for i in range(N_EVENTS):
        sim.schedule(i * 1e-4, noop)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def _min_of(fn, repeats=REPEATS) -> float:
    return min(fn() for _ in range(repeats))


def test_disabled_probe_overhead():
    """The pinned clause: probes compiled out cost ≤2% on the hot loop.

    Three arms over the identical 50k-event drain:

    * ``bare`` — BareSimulator, instrumentation erased (control);
    * ``disabled`` — real Simulator, registry off (the default every
      test and experiment runs under);
    * ``enabled`` — real Simulator inside ``obs.instrumented()``, for
      scale (this arm pays perf_counter + counter bumps per event and
      is *expected* to be markedly slower; it is recorded, not gated).
    """
    assert not obs.registry().enabled
    # Warm both classes off the clock (bytecode caches, queue growth).
    _drain(BareSimulator)
    _drain(Simulator)

    # Interleave the arms so CPU-frequency drift on shared runners hits
    # both equally; each back-to-back pair shares machine state, so the
    # *median* of the per-pair ratios is a far more stable overhead
    # estimate than the ratio of two independent minima.
    import statistics

    bare_ts, disabled_ts, ratios = [], [], []
    for _ in range(REPEATS):
        bare = _drain(BareSimulator)
        disabled = _drain(Simulator)
        bare_ts.append(bare)
        disabled_ts.append(disabled)
        ratios.append(disabled / bare)
    bare_s = min(bare_ts)
    disabled_s = min(disabled_ts)
    ratio = statistics.median(ratios)

    def enabled_drain() -> float:
        with obs.instrumented():
            return _drain(Simulator)

    enabled_s = _min_of(enabled_drain, repeats=2)

    overhead_disabled_pct = (ratio - 1.0) * 100.0
    overhead_enabled_pct = (enabled_s / bare_s - 1.0) * 100.0
    print(f"\n{N_EVENTS} events: bare {bare_s:.4f} s, disabled {disabled_s:.4f} s, "
          f"enabled {enabled_s:.4f} s; overhead disabled "
          f"{overhead_disabled_pct:.2f} %, enabled {overhead_enabled_pct:.1f} %")
    # The budget is ≤2%; the gate here is loose enough for noisy shared
    # runners yet fails hard if a probe ever runs unguarded on the
    # disabled path (that costs tens of percent).
    assert overhead_disabled_pct < 10.0


def test_enabled_instrumentation_counts():
    """Sanity on the enabled arm: the counters actually count.

    Cheap cross-check that the overhead being paid in the enabled arm
    above buys correct numbers — every scheduled event is counted pushed
    and fired, and queue-depth sampling saw the drain.
    """
    with obs.instrumented():
        _drain(Simulator)
        snapshot = obs.registry().snapshot()
    kernel = {k: v for k, v in snapshot.items() if k.startswith("sim.")}
    assert kernel["sim.events_pushed"]["value"] == N_EVENTS
    assert kernel["sim.events_fired"]["value"] == N_EVENTS
    assert kernel["sim.queue_depth"]["samples"] == N_EVENTS
