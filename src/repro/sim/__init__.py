"""Discrete-event simulation kernel.

A small, dependency-free DES engine in the style of SimPy, built for this
reproduction because the evaluation environment ships no simulation
framework.  It provides:

* :class:`Simulator` — the event loop and clock;
* :class:`Event` / :class:`EventQueue` — scheduled callbacks with
  deterministic FIFO tie-breaking, served from one binary heap;
* :class:`Process` — generator-based cooperative processes that yield
  delays (``yield delay``);
* :class:`RandomStreams` — named, independently-seeded numpy generators so
  every stochastic component is reproducible in isolation.
"""

from repro.sim.event import Event, Priority
from repro.sim.scheduler import EventQueue
from repro.sim.process import Interrupt, Process
from repro.sim.random import RandomStreams
from repro.sim.simulator import Simulator, gc_paused

__all__ = [
    "Event",
    "EventQueue",
    "gc_paused",
    "Interrupt",
    "Priority",
    "Process",
    "RandomStreams",
    "Simulator",
]
