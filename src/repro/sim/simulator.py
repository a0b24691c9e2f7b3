"""The simulation event loop and clock."""

from __future__ import annotations

import gc
import math
from collections.abc import Callable, Generator
from contextlib import contextmanager
from time import perf_counter
from typing import Any

from repro import obs
from repro.errors import SimulationError
from repro.obs.probes import kernel_probes
from repro.sim.event import Event, Priority
from repro.sim.process import Process
from repro.sim.random import RandomStreams
from repro.sim.scheduler import EventQueue

# Depth of nested gc_paused() scopes, and whether the collector was
# enabled when the outermost scope entered (so nesting restores exactly
# the caller's state, once).
_gc_pause_depth = 0
_gc_was_enabled = False


@contextmanager
def gc_paused():
    """Quiesce cyclic garbage collection while a pending set churns.

    CPython's generational collector re-scans every tracked object each
    collection; a simulation holding ~10⁵ pending events triggers full
    collections that re-walk the entire (live) pending set and roughly
    halve kernel throughput — pure overhead, since pending events are
    reachable by construction.  Reference counting still reclaims the
    acyclic event/frame churn immediately; cycles are swept once the
    outermost scope exits.

    :meth:`Simulator.run` wraps its event loop in this automatically,
    which covers simulations that schedule from callbacks (all the
    scenario builders).  Wrap bulk *pre-loading* phases — scheduling a
    large batch before calling ``run()`` — explicitly:

    >>> sim = Simulator(seed=1)
    >>> with gc_paused():
    ...     for i in range(3):
    ...         _ = sim.schedule(float(i), lambda: None)
    ...     sim.run()

    Scopes nest (depth-counted); the collector is restored to its
    original state when the outermost scope exits, even on error.
    """
    global _gc_pause_depth, _gc_was_enabled
    if _gc_pause_depth == 0:
        _gc_was_enabled = gc.isenabled()
        if _gc_was_enabled:
            gc.disable()
    _gc_pause_depth += 1
    try:
        yield
    finally:
        _gc_pause_depth -= 1
        if _gc_pause_depth == 0 and _gc_was_enabled:
            gc.enable()


class Simulator:
    """Discrete-event simulator: a clock plus an ordered event queue.

    Parameters
    ----------
    seed:
        Root seed for :attr:`streams`.  ``None`` draws fresh OS entropy
        (still recorded, so runs can be replayed).
    start_time:
        Initial clock value in seconds.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = (
        "_now", "_queue", "_push_new", "_seq", "_running", "_stopped",
        "streams", "_obs", "_tracer", "_instrumented", "_slot_time",
        "__dict__",
    )

    def __init__(
        self,
        *,
        seed: int | None = None,
        start_time: float = 0.0,
    ) -> None:
        self._now = start_time
        self._queue = EventQueue()
        # Bound once: scheduling is the hottest call site in the kernel.
        self._push_new = self._queue.push_new
        self._seq = 0
        self._running = False
        self._stopped = False
        self.streams = RandomStreams(seed)
        # Observability is captured at construction (enable the registry /
        # install the tracer *before* building the simulation).  With both
        # off, the only per-event cost left is one attribute load plus an
        # ``is``-test in step() — the ≤2% budget bench_obs.py pins.
        self._obs = kernel_probes()
        self._tracer = obs.tracer()
        self._instrumented = self._obs is not None or self._tracer is not None
        self._slot_time: float | None = None

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live events awaiting execution."""
        return len(self._queue)

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: Priority = Priority.NORMAL,
    ) -> Event:
        """Schedule *callback(*args)* to run *delay* seconds from now.

        Raises
        ------
        SimulationError
            If *delay* is negative or NaN.
        """
        # One comparison that NaN fails too: a NaN time would sort
        # arbitrarily in the queue and run the clock backwards.
        if not delay >= 0.0:
            raise SimulationError(
                f"cannot schedule {delay!r} s from now: the delay must be >= 0"
            )
        # schedule_at inlined (minus its past-check, which a non-negative
        # delay satisfies by construction): this is the kernel's hottest
        # call site and the extra method hop costs ~10% of a
        # schedule-and-drain loop's event throughput.
        seq = self._seq
        self._seq = seq + 1
        event = self._push_new(self._now + delay, priority, seq, callback, args)
        if self._obs is not None:
            self._obs.pushed.value += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: Priority = Priority.NORMAL,
    ) -> Event:
        """Schedule *callback(*args)* at absolute simulated *time*.

        Raises
        ------
        SimulationError
            If *time* is before the clock or NaN.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = self._push_new(time, priority, seq, callback, args)
        if self._obs is not None:
            self._obs.pushed.value += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Idempotent.

        Cancelling an event that already fired is a no-op: the live-event
        count must only be decremented for events still in the queue, or
        :attr:`pending_events` would go negative and :meth:`run` could
        stop while live events remain.
        """
        if self._queue.cancel(event) and self._obs is not None:
            self._obs.cancelled.value += 1

    # -- processes ----------------------------------------------------------------

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Launch a generator as a cooperative process (see :mod:`repro.sim.process`)."""
        return Process(self, generator, name)

    # -- execution ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest event.

        Returns
        -------
        bool
            ``True`` if an event ran, ``False`` if the queue was empty.
        """
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        if self._instrumented:
            self._step_observed(event)
        else:
            event.callback(*event.args)
        return True

    def _step_observed(self, event: Event) -> None:
        """step() with metrics/tracing on: slot spans, cost centers."""
        tracer = self._tracer
        if tracer is not None and event.time != self._slot_time:
            # A new simulated instant: close the previous slot span and
            # open the next, so the Perfetto timeline shows how much wall
            # clock each simulated instant costs.
            if self._slot_time is not None:
                tracer.end()
            tracer.begin("slot", cat="kernel", sim_time=event.time)
            self._slot_time = event.time
        if self._obs is None:
            event.callback(*event.args)
            return
        start = perf_counter()
        event.callback(*event.args)
        self._obs.record_fire(
            event.callback, perf_counter() - start, len(self._queue)
        )

    def run(self, until: float | None = None) -> None:
        """Run events until the queue drains or the clock passes *until*.

        When *until* is given, the clock is advanced to exactly *until* even
        if the last event fires earlier — mirroring ns-3's ``Stop`` time —
        so back-to-back ``run(until=...)`` calls tile time contiguously.

        Cyclic garbage collection is paused for the duration of the loop
        via :func:`gc_paused` (and restored on exit, even on error); see
        that context manager for the rationale and for covering bulk
        pre-loading phases as well.

        Raises
        ------
        SimulationError
            If called re-entrantly from within an event callback, or with
            a NaN *until*, which no event time compares past.
        """
        global _gc_pause_depth, _gc_was_enabled
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and math.isnan(until):
            raise SimulationError(f"cannot run until t={until!r}")
        self._running = True
        self._stopped = False
        # gc_paused() inlined (enter): the context-manager protocol costs
        # matter for scenario code calling run(until=...) in a tight loop.
        if _gc_pause_depth == 0:
            _gc_was_enabled = gc.isenabled()
            if _gc_was_enabled:
                gc.disable()
        _gc_pause_depth += 1
        try:
            queue = self._queue
            if self._instrumented:
                while queue and not self._stopped:
                    if until is not None and queue.peek_time() > until:
                        break
                    self.step()
            else:
                # Uninstrumented drain: the queue's serve() generator
                # replaces a peek_time/pop method pair per event with one
                # generator resumption, a per-event saving (bench_obs pins
                # that instrumentation guards stay off this loop).
                for event in queue.serve(until):
                    self._now = event.time
                    event.callback(*event.args)
                    if self._stopped:
                        break
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_was_enabled:
                gc.enable()
            if self._slot_time is not None:
                self._tracer.end()
                self._slot_time = None

    def stop(self) -> None:
        """Stop :meth:`run` after the current event callback returns."""
        self._stopped = True
