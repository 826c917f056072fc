"""Unit tests for the event queue."""

import gc

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.process import UnixProcess
from repro.unix.signals import SigAction
from repro.unix.sigset import SIGALRM
from repro.unix.timers import IntervalTimer


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


def test_fired_and_cancelled_handles_are_freed_without_the_collector():
    """A spent handle keeps no entry, and the entry was all that made
    it a reference cycle: dropping the handles frees them at once."""
    queue = EventQueue()
    gc.collect()
    gc.disable()
    try:
        handles = [queue.schedule(t, lambda: None, "a") for t in range(101)]
        handles[-1].cancel()
        assert queue.fire_due(99) == 100
        del handles
        live = sum(
            type(o) is Event and o.queue is queue for o in gc.get_objects()
        )
    finally:
        gc.enable()
    assert live == 0


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


# -- posted callouts mixed with cancellable handles ---------------------------


def _program(queue, hits, use_posts):
    """Four events at t=4 around one handle, plus a lone one at t=9.

    With ``use_posts`` the four are callouts (no handle); otherwise every
    event is a handle, the queue's behaviour before it took callouts.
    Returns the handle to cancel.
    """
    def add(time, label):
        if use_posts:
            queue.post(time, hits.append, label, "k")
        else:
            queue.schedule(time, lambda: hits.append(label), "k")

    add(4, "a")
    add(4, "b")
    handle = queue.schedule(4, lambda: hits.append("cancelled"), "k")
    add(4, "c")
    add(4, "d")
    add(9, "late")
    return handle


def test_handle_cancelled_inside_a_run_of_posts_does_not_fire():
    queue = EventQueue()
    hits = []
    _program(queue, hits, use_posts=True).cancel()
    reference = EventQueue()
    _program(reference, [], use_posts=False).cancel()
    assert queue.fire_due(10) == reference.fire_due(10) == 5
    assert hits == ["a", "b", "c", "d", "late"]
    # The cancel unlinked the handle, so the t=4 run is the four live
    # events, exactly as among handles.
    counters = ("batch_pops", "batched_events", "max_batch")
    assert [getattr(queue, c) for c in counters] == [1, 4, 4]
    assert [getattr(queue, c) for c in counters] == [
        getattr(reference, c) for c in counters
    ]


def _assert_unlinked(queue, handle):
    """``handle`` is gone from every lane and the heap, and the live
    count and horizon describe exactly what is left queued."""
    entries = list(queue._heap)
    for lane in queue._lanes.values():
        entries.extend(lane)
    assert all(entry[3] is not handle for entry in entries)
    assert len(queue) == len(queue.signature())
    assert queue._horizon == min((entry[0] for entry in entries),
                                 default=None)


def test_cancel_unlinks_its_entry_at_once():
    queue = EventQueue()
    hits = []
    a5 = queue.schedule(5, lambda: hits.append("a5"), "a")
    a6 = queue.schedule(6, lambda: hits.append("a6"), "a")
    a7 = queue.schedule(7, lambda: hits.append("a7"), "a")
    queue.post(8, hits.append, "a8", "a")
    queue.schedule(9, lambda: hits.append("b9"), "b")
    b3 = queue.schedule(3, lambda: hits.append("b3"), "b")  # lane-less
    c2 = queue.schedule(2, lambda: hits.append("c2"), "c")
    queue.post(2, hits.append, "d2", "d")
    assert queue.heap_schedules == 1
    assert len(queue) == 8 and queue._horizon == 2

    a6.cancel()  # mid-lane: only its lane changes
    _assert_unlinked(queue, a6)
    assert [entry[3] for entry in queue._lanes["a"]] == [a5, a7, "a8"]

    a5.cancel()  # lane head: the next lane entry takes its heap place
    _assert_unlinked(queue, a5)
    assert queue._lanes["a"][0] is a7.entry
    assert any(entry is a7.entry for entry in queue._heap)

    b3.cancel()  # lane-less heap entry
    _assert_unlinked(queue, b3)

    c2.cancel()  # defined the horizon; the t=2 post of kind "d" survives
    _assert_unlinked(queue, c2)
    assert len(queue) == 4 and queue._horizon == 2

    assert queue.fire_due(10) == 4
    assert hits == ["d2", "a7", "a8", "b9"]
    assert len(queue) == 0 and queue._horizon is None


def test_cancelling_a_posted_entry_is_idempotent():
    """A posted entry is its own handle: the first cancel unlinks it,
    and a second cancel, or a cancel after it fired, changes nothing."""
    queue = EventQueue()
    hits = []
    head = queue.post(10, hits.append, "head", "k")
    behind = queue.post(20, hits.append, "behind", "k")
    lone = queue.post(5, hits.append, "lone", "k")  # before the tail
    assert queue.cancel(behind) is True
    assert queue.cancel(behind) is False
    assert len(queue) == 2
    assert queue.fire_due(10) == 2
    assert hits == ["lone", "head"]
    assert queue.cancel(head) is False
    assert queue.cancel(lone) is False
    assert len(queue) == 0 and queue.next_time() is None


def test_cancelling_the_last_live_handle_clears_every_lane():
    queue = EventQueue()
    hits = []
    queue.post(1, hits.append, "posted", "a")
    handles = [queue.schedule(t, lambda: hits.append("handle"), k)
               for t, k in ((2, "a"), (0, "a"), (3, "b"))]
    assert queue.fire_due(1) == 2  # the t=0 handle, then the post
    assert hits == ["handle", "posted"]
    for handle in handles:
        handle.cancel()
    assert len(queue) == 0
    assert queue.next_time() is None
    assert not queue._heap and not any(queue._lanes.values())
    # A post after the clear fires at its own time, not before.
    queue.post(6, hits.append, "after", "a")
    assert queue.next_time() == 6
    assert queue.fire_due(5) == 0
    assert queue.fire_due(6) == 1
    assert hits == ["handle", "posted", "after"]


def test_interval_timer_stays_armed_across_expire_and_rearm():
    world = World("sparc-ipx")
    kernel = UnixKernel(world)
    proc = UnixProcess(kernel, None, name="p")
    proc.auto_deliver = True
    kernel.sigaction(proc, SIGALRM, SigAction(handler=lambda s, c: None))
    recurring = IntervalTimer(world, kernel, proc)
    one_shot = IntervalTimer(world, kernel, proc)
    recurring.arm(50_000, interval_cycles=50_000)
    one_shot.arm(50_000)
    assert recurring.armed and one_shot.armed
    world.spend_cycles(50_000)
    assert recurring.expirations == one_shot.expirations == 1
    assert recurring.armed  # the expiry rearmed it with a fresh handle
    assert not one_shot.armed  # its handle fired
