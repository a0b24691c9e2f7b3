"""Experiment ``obs`` — observability overhead pins.

The instrumentation contract (docs/OBSERVABILITY.md) has a hard perf
clause: with the registry disabled and no tracer installed, the only
cost left on the event hot path is one attribute load plus an ``is``
test per event.  This check pins that clause with measured numbers —
the disabled-probe overhead against a control simulator whose
``schedule`` and ``run``, the two methods the timed drain calls, carry
no instrumentation at all — and prints the fully-enabled cost alongside
them for scale.

Two overheads are gated: scheduling plus draining, where a probe left
unguarded in ``schedule`` shows, and the drain alone, where a ``run``
that leaves its uninstrumented ``serve()`` loop shows most plainly.  On
an idle machine both read within the ≤2% budget; the in-test assertion
is looser (shared CI boxes jitter) but still catches a probe
accidentally left unguarded.  Values inside roughly ±2% are the noise
floor of this measurement — the guard costs tens of nanoseconds against
a ~2 µs event — so small negative figures just mean "indistinguishable
from zero".
"""

import statistics
import time

from repro import obs
from repro.errors import SimulationError
from repro.sim import Priority, Simulator, gc_paused

#: Events per drain; large enough that per-event costs dominate setup.
N_EVENTS = 50_000
#: Interleaved arm pairs; the median pair ratio rejects scheduler noise.
REPEATS = 15


class BareSimulator(Simulator):
    """Control arm: the kernel hot path with instrumentation erased.

    ``schedule`` and ``run`` are copies of the Simulator bodies minus
    the obs branches (``run`` keeps only its uninstrumented ``serve()``
    loop) — measuring against this isolates the cost of the *guards
    themselves* (the attribute load + ``is`` test), which is exactly
    what the disabled-probe budget promises to bound.
    """

    def schedule(self, delay, callback, *args, priority=Priority.NORMAL):
        if not delay >= 0.0:
            raise SimulationError(delay)
        seq = self._seq
        self._seq = seq + 1
        return self._push_new(self._now + delay, priority, seq, callback, args)

    def run(self, until=None):
        self._stopped = False
        with gc_paused():
            for event in self._queue.serve(until):
                self._now = event.time
                event.callback(*event.args)
                if self._stopped:
                    break


def _drain(sim_cls) -> tuple[float, float]:
    """Wall-clock seconds to schedule and drain N_EVENTS no-op events,
    and to drain them alone.

    The collector is paused for both phases, as :func:`gc_paused`
    advises for bulk pre-loading: a full collection over the pending
    set would otherwise land in one arm's schedule phase at random.
    """
    sim = sim_cls()
    noop = lambda: None  # noqa: E731 - the cheapest possible callback
    with gc_paused():
        t0 = time.perf_counter()
        for i in range(N_EVENTS):
            sim.schedule(i * 1e-4, noop)
        t1 = time.perf_counter()
        sim.run()
        t2 = time.perf_counter()
    return t2 - t0, t2 - t1


def test_disabled_probe_overhead():
    """The pinned clause: probes compiled out cost ≤2% on the hot loop.

    Three arms over the identical 50k-event schedule and drain:

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
    pairs = [(_drain(BareSimulator), _drain(Simulator)) for _ in range(REPEATS)]
    overheads = {
        phase: (
            statistics.median(disabled[k] / bare[k] for bare, disabled in pairs)
            - 1.0
        ) * 100.0
        for k, phase in enumerate(("schedule + drain", "drain"))
    }
    bare_s = min(bare[0] for bare, _ in pairs)
    disabled_s = min(disabled[0] for _, disabled in pairs)

    def enabled_drain() -> float:
        with obs.instrumented():
            return _drain(Simulator)[0]

    enabled_s = min(enabled_drain() for _ in range(2))

    print(f"\n{N_EVENTS} events scheduled and drained: bare {bare_s:.4f} s, "
          f"disabled {disabled_s:.4f} s, enabled {enabled_s:.4f} s "
          f"(+{(enabled_s / bare_s - 1.0) * 100.0:.1f} %); disabled overhead "
          + ", ".join(f"{phase} {pct:.2f} %" for phase, pct in overheads.items()))
    # The budget is ≤2%; the gate here is loose enough for noisy shared
    # runners yet fails hard if a probe ever runs unguarded on the
    # disabled path (that costs tens of percent).
    assert all(pct < 10.0 for pct in overheads.values()), overheads


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
