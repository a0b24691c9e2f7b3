"""Simulator clock and event-loop semantics."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Priority, Simulator, gc_paused


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.run()
        assert log == ["a", "b"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_same_time_fifo(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_priority_at_same_instant(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "normal")
        sim.schedule(1.0, log.append, "urgent", priority=Priority.URGENT)
        sim.run()
        assert log == ["urgent", "normal"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_delay_cannot_reorder_the_queue(self):
        """Delays 3, NaN, 1, 2 and 0.5: the NaN is refused, and the rest
        fire in time order with the clock never running backwards."""
        sim = Simulator()
        fired = []
        for delay in (3.0, float("nan"), 1.0, 2.0, 0.5):
            try:
                sim.schedule(delay, lambda: fired.append(sim.now))
            except SimulationError:
                assert delay != delay
        sim.run()
        assert fired == [0.5, 1.0, 2.0, 3.0]

    def test_schedule_at_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_same_instant_follow_up_keeps_seq_order(self):
        """A follow-up scheduled for "now" runs after already-queued peers."""
        sim = Simulator()
        log = []

        def chain(tag):
            log.append(tag)
            if tag == "a":
                sim.schedule(0.0, chain, "b")

        sim.schedule(1.0, chain, "a")
        sim.schedule(1.0, log.append, "c")
        sim.run()
        # seq order: a(0), c(1), then b(2) appended at the same instant.
        assert log == ["a", "c", "b"]


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_tiled_runs_continue(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(7.0, log.append, 7)
        sim.run(until=5.0)
        sim.run(until=10.0)
        assert log == [1, 7]

    def test_nan_until_rejected(self):
        """Every event time compares below a NaN *until*, so the loop
        would never stop on a self-rescheduling process."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0
        assert sim.pending_events == 1

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "edge")
        sim.run(until=5.0)
        assert log == ["edge"]


class TestStopAndStep:
    def test_stop_halts_loop(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule(2.0, log.append, 2)
        sim.run()
        assert log == [1]
        assert sim.pending_events == 1

    def test_step_runs_single_event(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "x")
        sim.schedule(2.0, log.append, "y")
        assert sim.step()
        assert log == ["x"]

    def test_step_on_empty_returns_false(self):
        assert not Simulator().step()

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, log.append, "no")
        sim.cancel(event)
        sim.run()
        assert log == []

    def test_cancel_idempotent_and_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_a_noop(self):
        """Regression: cancelling a fired event must not eat a live one.

        The stale-handle pattern is common in the MAC layer (a timer is
        cancelled after the event it guarded already ran).  Cancelling a
        fired event used to decrement the live count anyway, driving
        ``pending_events`` negative and letting ``run()`` stop while live
        events remained.
        """
        sim = Simulator()
        log = []
        timer = sim.schedule(1.0, log.append, "timer")
        sim.schedule(2.0, sim.cancel, timer)  # fires after the timer did
        sim.schedule(3.0, log.append, "late")
        sim.run()
        assert log == ["timer", "late"]
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_stop_run_early(self):
        sim = Simulator()
        log = []
        first = sim.schedule(1.0, log.append, "a")
        sim.run()
        # Between runs: cancel the stale handle, then schedule fresh work.
        sim.cancel(first)
        sim.schedule(1.0, log.append, "b")
        assert sim.pending_events == 1
        sim.run()
        assert log == ["a", "b"]


class TestStreams:
    def test_seeded_streams_reproducible(self):
        a = Simulator(seed=42).streams.get("x").random(5).tolist()
        b = Simulator(seed=42).streams.get("x").random(5).tolist()
        assert a == b


class TestGcPaused:
    """The kernel's GC quiescing scope: nesting, restore, error paths."""

    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_scopes_restore_once(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            # Inner exit must NOT re-enable: the outer scope still holds.
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_respects_externally_disabled_gc(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            # Caller had it off: exiting must not turn it on behind them.
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_run_nests_inside_explicit_scope(self):
        """run() inlines the same refcounted enter/exit."""
        with gc_paused():
            sim = Simulator(seed=1)
            sim.schedule(1.0, lambda: None)
            sim.run()
            assert not gc.isenabled()  # outer scope still holds
        assert gc.isenabled()
