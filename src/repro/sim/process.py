"""Generator-based cooperative processes.

A *process* is a Python generator driven by the simulator.  The generator
yields only delays: a ``float``/``int`` sleeps for that many simulated
seconds, and the ``yield`` expression evaluates to ``None``.

Processes may be interrupted (:meth:`Process.interrupt`): the pending sleep
is abandoned and an :class:`Interrupt` exception is thrown into the
generator, which may catch it to clean up or re-plan — this is how the
C-ARQ recovery loop is aborted when a new access point is reached.
"""

from __future__ import annotations

import typing
from collections.abc import Generator
from typing import Any

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class Interrupt(Exception):
    """Thrown into a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process:
    """A generator being executed in simulated time.

    Created through :meth:`repro.sim.Simulator.process`.  The process starts
    at the simulation instant it was created (the first resumption is
    scheduled immediately, not run inline, so creation order does not leak
    into execution order).
    """

    __slots__ = (
        "_sim",
        "_generator",
        "name",
        "_alive",
        "_pending_event",
    )

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str = "") -> None:
        self._sim = sim
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._alive = True
        self._pending_event = None  # Event for a sleep, if sleeping
        # Kick-off: resume with None at the current instant.
        self._pending_event = sim.schedule(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        """True until the generator returns or raises."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Abort the process's current sleep and throw :class:`Interrupt`.

        No-op on a dead process.  The exception is delivered immediately
        (synchronously), matching the semantics of SimPy interrupts.
        """
        if not self._alive:
            return
        if self._pending_event is not None:
            self._sim.cancel(self._pending_event)
            self._pending_event = None
        self._step(Interrupt(cause), throw=True)

    def _resume(self, value: Any) -> None:
        self._pending_event = None
        self._step(value, throw=False)

    def _step(self, value: Any, *, throw: bool) -> None:
        if not self._alive:
            raise SimulationError(f"resuming finished process {self.name!r}")
        try:
            if throw:
                yielded = self._generator.throw(value)
            else:
                yielded = self._generator.send(value)
        except StopIteration:
            self._alive = False
            return
        except Interrupt:
            # Interrupt not handled by the generator: the process dies quietly.
            self._alive = False
            return
        self._arm(yielded)

    def _arm(self, yielded: Any) -> None:
        """Schedule the wake-up after the delay the generator yielded."""
        if not isinstance(yielded, (int, float)):
            self._alive = False
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}; "
                "yield a delay (seconds)"
            )
        if yielded < 0:
            self._alive = False
            raise SimulationError(
                f"process {self.name!r} yielded a negative delay {yielded!r}"
            )
        self._pending_event = self._sim.schedule(float(yielded), self._resume, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"
