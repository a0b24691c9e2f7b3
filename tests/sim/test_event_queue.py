"""Event ordering and the lazy-deletion queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.event import Event, Priority
from repro.sim.scheduler import (
    COMPACT_DEAD_FACTOR,
    COMPACT_MIN_DEAD,
    EventQueue,
    should_compact,
)


def make_event(time, priority=Priority.NORMAL, seq=0):
    return Event(time, priority, seq, lambda: None, ())


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(make_event(2.0, seq=0))
        q.push(make_event(1.0, seq=1))
        assert q.pop().time == 1.0
        assert q.pop().time == 2.0

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(make_event(1.0, Priority.LATE, seq=0))
        q.push(make_event(1.0, Priority.URGENT, seq=1))
        q.push(make_event(1.0, Priority.NORMAL, seq=2))
        assert q.pop().priority is Priority.URGENT
        assert q.pop().priority is Priority.NORMAL
        assert q.pop().priority is Priority.LATE

    def test_seq_breaks_full_ties_fifo(self):
        q = EventQueue()
        events = [make_event(1.0, seq=i) for i in range(5)]
        for e in reversed(events):
            q.push(e)
        assert [q.pop().seq for _ in range(5)] == [0, 1, 2, 3, 4]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        victim = make_event(1.0, seq=0)
        survivor = make_event(2.0, seq=1)
        q.push(victim)
        q.push(survivor)
        q.cancel(victim)
        assert q.pop() is survivor

    def test_len_counts_live_only(self):
        q = EventQueue()
        e = make_event(1.0)
        q.push(e)
        assert len(q) == 1
        q.cancel(e)
        assert len(q) == 0
        assert not q

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        dead = make_event(1.0, seq=0)
        q.push(dead)
        q.push(make_event(5.0, seq=1))
        q.cancel(dead)
        assert q.peek_time() == 5.0

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek_time()

    def test_compact_preserves_live(self):
        q = EventQueue()
        keep = make_event(3.0, seq=0)
        drop = make_event(1.0, seq=1)
        q.push(keep)
        q.push(drop)
        q.cancel(drop)
        q.compact()
        assert len(q) == 1
        assert q.pop() is keep

    def test_clear(self):
        q = EventQueue()
        q.push(make_event(1.0))
        q.clear()
        assert len(q) == 0

    def test_cancel_idempotent(self):
        e = make_event(1.0)
        e.cancel()
        e.cancel()
        assert e.cancelled


class TestLiveCountInvariant:
    """``len(queue)`` must always equal the number of live heap entries.

    Property-style audit of the ``push``/``pop``/``cancel``/``compact``/
    ``clear`` bookkeeping, including the historical foot-guns: cancelling
    an event that already fired, cancelling twice, and clearing mid-run
    after cancellations.
    """

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "push", "pop", "cancel", "cancel_fired",
                        "cancel_cleared", "compact", "clear",
                    ]
                ),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            max_size=120,
        )
    )
    def test_len_always_matches_live_heap_entries(self, ops):
        q = EventQueue()
        seq = 0
        pending = []  # events pushed and not yet popped (may be cancelled)
        fired = []
        cleared = []
        for op, time in ops:
            if op == "push":
                event = make_event(time, seq=seq)
                seq += 1
                q.push(event)
                pending.append(event)
            elif op == "pop" and q:
                event = q.pop()
                assert event.fired
                pending.remove(event)
                fired.append(event)
            elif op == "cancel" and pending:
                q.cancel(pending[0])
                q.cancel(pending[0])  # double-cancel must count once
            elif op == "cancel_fired" and fired:
                # Stale handle: cancelling a fired event is a no-op.
                assert not q.cancel(fired[0])
            elif op == "cancel_cleared" and cleared:
                # Stale handle from before a clear(): also a no-op.
                assert not q.cancel(cleared[0])
            elif op == "compact":
                q.compact()
            elif op == "clear":
                q.clear()
                cleared.extend(pending)
                pending.clear()
            assert len(q) == q.live_heap_count()
            assert len(q) >= 0

    def test_clear_after_cancellations_resets_bookkeeping(self):
        q = EventQueue()
        events = [make_event(float(i), seq=i) for i in range(4)]
        for event in events:
            q.push(event)
        q.cancel(events[0])
        q.cancel(events[1])
        q.clear()
        assert len(q) == 0
        assert q.live_heap_count() == 0
        # The queue must be fully reusable after a mid-run clear.
        fresh = make_event(1.0, seq=99)
        q.push(fresh)
        assert len(q) == 1
        assert q.pop() is fresh

    def test_cancel_of_foreign_event_is_refused(self):
        """A handle from another queue (or never pushed) must not count."""
        mine, other = EventQueue(), EventQueue()
        event = make_event(1.0, seq=0)
        other.push(event)
        mine.push(make_event(2.0, seq=1))
        assert not mine.cancel(event)
        assert len(mine) == 1 == mine.live_heap_count()
        never_pushed = make_event(3.0, seq=2)
        assert not mine.cancel(never_pushed)
        assert len(mine) == 1

    def test_double_push_rejected(self):
        q = EventQueue()
        event = make_event(1.0)
        q.push(event)
        with pytest.raises(ValueError):
            q.push(event)
        assert len(q) == 1 == q.live_heap_count()

    def test_cancel_of_cleared_handle_is_refused(self):
        """Regression: clear() then cancel(stale) must not eat the count."""
        q = EventQueue()
        stale = make_event(1.0, seq=0)
        q.push(stale)
        q.clear()
        assert not q.cancel(stale)
        assert len(q) == 0
        q.push(make_event(2.0, seq=1))
        assert len(q) == 1 == q.live_heap_count()


class TestHeapProperty:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6),
                st.sampled_from(list(Priority)),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_pops_in_sorted_key_order(self, items):
        q = EventQueue()
        for seq, (time, priority) in enumerate(items):
            q.push(make_event(time, priority, seq))
        keys = []
        while q:
            keys.append(q.pop().sort_key())
        assert keys == sorted(keys)


class TestAutoCompactPolicy:
    """Pin the lazy-deletion pressure valve, knob by knob."""

    def test_threshold_constants(self):
        assert COMPACT_MIN_DEAD == 64
        assert COMPACT_DEAD_FACTOR == 2

    def test_should_compact_truth_table(self):
        # Below the floor: never, regardless of ratio.
        assert not should_compact(0, COMPACT_MIN_DEAD - 1)
        # At the floor: only when dead strictly exceed 2× live.
        assert should_compact(31, 64)      # 64 > 62
        assert not should_compact(32, 64)  # 64 == 2·32, not strict
        assert should_compact(0, 64)
        assert not should_compact(1000, 64)

    def test_cancel_pressure_triggers_physical_compaction(self):
        """Cancelling past the threshold sheds the corpses automatically."""
        q = EventQueue()
        events = [make_event(float(i + 1), seq=i) for i in range(100)]
        for event in events:
            q.push(event)
        # Out of 100 entries, the threshold (dead ≥ 64 and dead > 2·live)
        # first holds at the 67th cancel (67 > 2·33): compaction fires
        # there, leaving only the two corpses cancelled afterwards.
        for event in events[:69]:
            q.cancel(event)
        assert len(q) == 31
        assert q.physical_size() == 33
        assert q.live_heap_count() == 31

    def test_below_floor_keeps_corpses(self):
        """A handful of dead entries is cheaper to carry than to sweep."""
        q = EventQueue()
        events = [make_event(float(i + 1), seq=i) for i in range(20)]
        for event in events:
            q.push(event)
        for event in events[:10]:
            q.cancel(event)
        assert len(q) == 10
        assert q.physical_size() == 20  # dead=10 < COMPACT_MIN_DEAD
