"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventQueue


def test_schedule_and_fire():
    queue = EventQueue()
    hits = []
    queue.schedule(10, lambda: hits.append("a"))
    assert queue.fire_due(9) == 0
    assert queue.fire_due(10) == 1
    assert hits == ["a"]


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().schedule(-1, lambda: None)


def test_fifo_order_at_same_time():
    queue = EventQueue()
    hits = []
    queue.schedule(5, lambda: hits.append(1))
    queue.schedule(5, lambda: hits.append(2))
    queue.fire_due(5)
    assert hits == [1, 2]


def test_time_order():
    queue = EventQueue()
    hits = []
    queue.schedule(20, lambda: hits.append("late"))
    queue.schedule(10, lambda: hits.append("early"))
    queue.fire_due(30)
    assert hits == ["early", "late"]


def test_cancel_prevents_firing():
    queue = EventQueue()
    hits = []
    event = queue.schedule(5, lambda: hits.append(1))
    event.cancel()
    assert queue.fire_due(10) == 0
    assert hits == []


def test_cancelled_events_do_not_count_in_len():
    queue = EventQueue()
    event = queue.schedule(5, lambda: None)
    queue.schedule(6, lambda: None)
    assert len(queue) == 2
    event.cancel()
    assert len(queue) == 1


def test_next_time_skips_cancelled():
    queue = EventQueue()
    early = queue.schedule(5, lambda: None)
    queue.schedule(9, lambda: None)
    early.cancel()
    assert queue.next_time() == 9


def test_next_time_empty():
    assert EventQueue().next_time() is None


def test_action_scheduling_past_event_fires_in_same_drain():
    queue = EventQueue()
    hits = []

    def rearm():
        hits.append("first")
        queue.schedule(3, lambda: hits.append("chained"))

    queue.schedule(5, rearm)
    assert queue.fire_due(10) == 2
    assert hits == ["first", "chained"]


def test_fired_flag():
    queue = EventQueue()
    event = queue.schedule(1, lambda: None)
    queue.fire_due(1)
    assert event.fired


def test_lone_events_leave_the_batch_counters_alone():
    queue = EventQueue()
    hits = []
    for t in (5, 1, 9):
        queue.schedule(t, lambda t=t: hits.append(t))
    assert queue.fire_due(10) == 3
    assert hits == [1, 5, 9]
    assert queue.batch_pops == 0
    assert queue.batched_events == 0
    assert queue.max_batch == 0


def test_three_events_at_one_time_are_one_batch_of_three():
    queue = EventQueue()
    hits = []
    queue.schedule(2, lambda: hits.append("lone"))
    for label in ("a", "b", "c"):
        queue.schedule(4, lambda label=label: hits.append(label))
    queue.schedule(7, lambda: hits.append("late"))
    assert queue.fire_due(10) == 5
    assert hits == ["lone", "a", "b", "c", "late"]
    assert queue.batch_pops == 1
    assert queue.batched_events == 3
    assert queue.max_batch == 3
