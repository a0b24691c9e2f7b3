"""Scheduled events and their ordering."""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import Any


class Priority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values run first.  The MAC layer uses :attr:`URGENT` for
    frame-end bookkeeping so receivers observe a consistent medium state
    before application callbacks run.
    """

    URGENT = 0
    NORMAL = 1
    LATE = 2


class Event:
    """A callback scheduled at a simulated instant.

    Events are ordered by ``(time, priority, sequence)`` where *sequence* is
    a monotonically increasing insertion counter, making execution order
    fully deterministic.

    Events are created through :meth:`repro.sim.Simulator.schedule` — not
    directly — and may be cancelled via :meth:`cancel` (cancellation is
    O(1); the queue discards dead entries lazily).
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args",
        "_cancelled", "_fired", "owner",
    )

    def __init__(
        self,
        time: float,
        priority: Priority,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        # Stored as-is: IntEnum inherits int's C-level comparisons, so
        # converting here would only slow down construction — the
        # hottest allocation in the kernel.  Note the event itself holds
        # no ordering tuple: the queues build one ``(time, priority,
        # seq, event)`` entry per insertion instead, keeping the
        # GC-tracked allocation count per scheduled event at two (the
        # cyclic collector re-scans every pending entry each collection,
        # which at 10⁵ pending events is a first-order cost).
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        #: The EventQueue holding this event (stamped by ``push``), so a
        #: queue can refuse to adjust its live count for foreign handles.
        self.owner: object | None = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event has already left the queue for execution."""
        return self._fired

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        Cancelling an event that has already fired is a no-op: the
        callback ran (or is running) and there is nothing left to stop.
        Callers holding stale event handles — a retransmit timer whose
        frame just went out, say — can therefore cancel unconditionally.
        """
        if not self._fired:
            self._cancelled = True

    def sort_key(self) -> tuple[float, int, int]:
        """The deterministic queue ordering key."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"
