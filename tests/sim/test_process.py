"""Generator-process semantics: delays and interrupts."""

import pytest

from repro.errors import SimulationError
from repro.sim import Interrupt, Simulator


class TestDelays:
    def test_yield_float_sleeps(self):
        sim = Simulator()
        ticks = []

        def proc():
            yield 1.0
            ticks.append(sim.now)
            yield 2.5
            ticks.append(sim.now)

        p = sim.process(proc())
        sim.run()
        assert ticks == [1.0, 3.5]
        assert not p.alive

    def test_yield_int_accepted(self):
        sim = Simulator()
        ticks = []

        def proc():
            yield 2
            ticks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert ticks == [2.0]

    def test_process_starts_at_creation_instant(self):
        sim = Simulator()
        ticks = []

        def starter():
            sim.process(late_proc())

        def late_proc():
            ticks.append(sim.now)
            yield 1.0
            ticks.append(sim.now)

        sim.schedule(5.0, starter)
        sim.run()
        assert ticks == [5.0, 6.0]

    def test_negative_delay_raises(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_invalid_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "nope"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestInterrupts:
    def test_interrupt_during_sleep(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        p = sim.process(sleeper())
        sim.schedule(5.0, p.interrupt, "wake-up")
        sim.run()
        assert log == [(5.0, "wake-up")]

    def test_unhandled_interrupt_kills_quietly(self):
        sim = Simulator()

        def sleeper():
            yield 100.0

        p = sim.process(sleeper())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert not p.alive

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield 0.5

        p = sim.process(quick())
        sim.run()
        p.interrupt()  # must not raise

    def test_process_can_continue_after_interrupt(self):
        sim = Simulator()
        log = []

        def resilient():
            try:
                yield 100.0
            except Interrupt:
                pass
            yield 1.0
            log.append(sim.now)

        p = sim.process(resilient())
        sim.schedule(5.0, p.interrupt)
        sim.run()
        assert log == [6.0]
