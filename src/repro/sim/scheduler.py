"""The pending-event set: one binary heap with lazy deletion.

:class:`EventQueue` orders events by ``(time, priority, seq)`` and
:func:`should_compact` is its auto-compaction policy: a workload that
cancels heavily (the MAC layer does when frames are suppressed, the
protocol's coverage watchdog re-arms on every AP frame) triggers a
rebuild once dead entries outnumber live ones 2:1.
"""

from __future__ import annotations

import heapq

from repro.sim.event import Event

#: Auto-compact when dead entries exceed this multiple of live entries …
COMPACT_DEAD_FACTOR = 2
#: … but never below this many dead entries (rebuilding a tiny queue
#: costs more than carrying a handful of corpses).
COMPACT_MIN_DEAD = 64


def should_compact(live: int, dead: int) -> bool:
    """The lazy-deletion pressure valve, pinned by tests."""
    return dead >= COMPACT_MIN_DEAD and dead > COMPACT_DEAD_FACTOR * live


class EventQueue:
    """Min-heap of :class:`Event` ordered by ``(time, priority, seq)``.

    Cancelled events stay in the heap and are skipped on pop — O(1)
    cancellation at the cost of occasional dead entries, the standard
    lazy-deletion trade-off.  :meth:`cancel` auto-compacts once dead
    entries pile up past the :func:`should_compact` threshold; workloads
    that cancel heavily (the MAC layer does when frames are suppressed)
    may also call :meth:`compact` explicitly.

    Invariant: ``len(self)`` always equals the number of non-cancelled
    events currently in the heap (see :meth:`live_heap_count`).  All
    bookkeeping that could break it is funnelled through :meth:`cancel`,
    which refuses events that are not live heap entries — in particular
    events that already fired (popped events are marked via
    :meth:`Event.mark_fired`, so a cancel-after-fire cannot drive the
    live count negative and stop a run while live events remain).
    """

    __slots__ = ("_heap", "_live",)

    def __init__(self) -> None:
        # Entries are (time, priority, seq, event) tuples: heap sifts
        # compare at C speed, and seq is globally unique so a comparison
        # never reaches the event element.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def physical_size(self) -> int:
        """Entries currently held, live and (lazily deleted) dead alike."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> None:
        """Insert an event.

        Raises
        ------
        ValueError
            If the event already belongs to a queue (double-push would
            double-count the live total).
        """
        if event.owner is not None:
            raise ValueError(f"{event!r} is already queued")
        event.owner = self
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._live += 1

    def push_new(self, time, priority, seq, callback, args) -> Event:
        """Create an event and insert it — the fused scheduling hot path.

        Equivalent to ``Event(...)`` followed by :meth:`push`, minus one
        call layer and the foreign-owner guard a freshly built event
        cannot trip.  :meth:`~repro.sim.Simulator.schedule` routes
        through this; :meth:`push` remains for re-queueing externally
        built events.
        """
        event = Event(time, priority, seq, callback, args)
        event.owner = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event, marking it fired.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event._cancelled:
                self._live -= 1
                event._fired = True
                return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float:
        """Timestamp of the earliest live event without removing it.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        self._discard_dead_head()
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0][0]

    def serve(self, until: float | None = None):
        """Yield live events in order, marking each fired — the drain loop.

        The :meth:`~repro.sim.Simulator.run` hot path: one generator
        resumption per event instead of a ``peek_time`` + ``pop`` method
        pair, stopping (without consuming) at the first event past
        *until* when given.  The heap is re-read after every yield — a
        consumer callback may swap it out via an auto-compact.
        """
        heappop = heapq.heappop
        if until is None:
            while True:
                heap = self._heap
                if not heap:
                    return
                event = heappop(heap)[3]
                if event._cancelled:
                    continue
                self._live -= 1
                event._fired = True
                yield event
        else:
            while True:
                heap = self._heap
                if not heap:
                    return
                entry = heap[0]
                event = entry[3]
                if event._cancelled:
                    heappop(heap)
                    continue
                if entry[0] > until:
                    return
                heappop(heap)
                self._live -= 1
                event._fired = True
                yield event

    def cancel(self, event: Event) -> bool:
        """Cancel *event* if it is still a live entry of this queue.

        Returns ``True`` when the event was live and is now cancelled;
        ``False`` when there was nothing to do (already cancelled,
        already fired, or never pushed to *this* queue).  This is the
        only path that may decrement the live count for a cancellation,
        so the count cannot drift.
        """
        if event.cancelled or event.fired or event.owner is not self:
            return False
        event.cancel()
        self._live -= 1
        if should_compact(self._live, len(self._heap) - self._live):
            self.compact()
        return True

    def compact(self) -> None:
        """Drop all cancelled entries and re-heapify."""
        self._heap = [e for e in self._heap if not e[3]._cancelled]
        heapq.heapify(self._heap)
        # Dead entries carried no live count; the invariant is untouched,
        # but re-derive defensively so a prior external miscount heals.
        self._live = len(self._heap)

    def clear(self) -> None:
        """Remove everything, resetting all cancellation bookkeeping.

        Discarded events are marked cancelled so a stale handle passed to
        :meth:`cancel` afterwards is refused instead of driving the live
        count negative.
        """
        for entry in self._heap:
            entry[3].cancel()
        self._heap.clear()
        self._live = 0

    def live_heap_count(self) -> int:
        """O(n) count of non-cancelled heap entries (invariant check)."""
        return sum(1 for e in self._heap if not e[3]._cancelled)

    def _discard_dead_head(self) -> None:
        while self._heap and self._heap[0][3]._cancelled:
            heapq.heappop(self._heap)
