"""Property: the library timer queue behaves like the heap it replaced.

:class:`~repro.core.timerq.TimerOps` keeps its deadlines in a callout
table of its own (an :class:`~repro.sim.events.EventQueue`) whose
entries are their own cancellation handles, so every queued entry is
live.  The reference below is the earlier design: one heap of
``TimeoutHandle`` objects where a cancel marks a tombstone that the
rearm, the cancel of a head and the alarm drain sweep.

Random programs of ``add_timeout``, cancels (of live entries, of
entries cancelled before and of entries that already fired) and alarms
at random instants must give the same fire order and fire times, the
same ``setitimer`` arm/disarm sequence and the same ``pending_count``
after every step.  A fired callout may itself cancel an entry or queue
a new one, which exercises the mid-drain rule (no rearm until the
drain completes).
"""

import heapq
import itertools
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.timerq import TimerOps
from repro.hw import costs
from repro.sim.world import World


class _TimeoutHandle:
    __slots__ = ("deadline", "seq", "action", "cancelled")

    def __init__(self, deadline, seq, action):
        self.deadline = deadline
        self.seq = seq
        self.action = action
        self.cancelled = False


class HeapTimerQueue:
    """Reference: the heap-with-tombstones timer queue."""

    def __init__(self, runtime):
        self.rt = runtime
        self._heap = []
        self._seq = itertools.count()
        self._armed_for = None
        self._draining = False
        self.alarms_taken = 0

    def add_timeout(self, us_from_now, action):
        deadline = self.rt.world.now + self.rt.world.cycles_for_us(us_from_now)
        handle = _TimeoutHandle(deadline, next(self._seq), action)
        heapq.heappush(self._heap, (deadline, handle.seq, handle))
        self._rearm()
        return handle

    def cancel_timeout(self, handle):
        handle.cancelled = True
        if self._heap and self._heap[0][2] is handle:
            while self._heap and self._heap[0][2].cancelled:
                heapq.heappop(self._heap)
            if self._heap:
                self._rearm()
            else:
                self._armed_for = None

    def _rearm(self):
        if self._draining:
            return
        rt = self.rt
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            if self._armed_for is not None:
                rt.timer.disarm()
                self._armed_for = None
            return
        earliest = self._heap[0][0]
        if self._armed_for == earliest:
            return
        rt.timer.arm(max(earliest - rt.world.now, 1), armer=None, tag="libtimer")
        self._armed_for = earliest

    def on_alarm(self):
        rt = self.rt
        self.alarms_taken += 1
        self._armed_for = None
        self._draining = True
        try:
            now = rt.world.now
            while self._heap and self._heap[0][0] <= now:
                __, __, handle = heapq.heappop(self._heap)
                if handle.cancelled:
                    continue
                rt.world.spend(costs.TIMER_TICK)
                handle.action()
        finally:
            self._draining = False
        self._rearm()

    @property
    def pending_count(self):
        return sum(1 for __, __, h in self._heap if not h.cancelled)


class _TimerLog:
    """Stands in for the process's interval timer: logs each setitimer."""

    def __init__(self, world, log):
        self.world = world
        self.log = log

    def arm(self, delay, armer=None, tag=None):
        self.log.append(("arm", self.world.now, delay, armer, tag))

    def disarm(self):
        self.log.append(("disarm", self.world.now))


def _run(queue_cls, program):
    """Run ``program`` against a fresh queue; returns everything seen."""
    world = World("sparc-ipx")
    log = []
    rt = SimpleNamespace(world=world, timer=_TimerLog(world, log))
    queue = queue_cls(rt)
    handles = []

    def action(ident, plan):
        def fire():
            log.append(("fire", ident, world.now))
            if plan is None:
                return
            what, value = plan
            if what == "cancel":
                queue.cancel_timeout(handles[value % len(handles)])
            else:
                add(value, None)

        return fire

    def add(us, plan):
        handles.append(queue.add_timeout(us, action(len(handles), plan)))

    for op, value, plan in program:
        if op == "add":
            add(value, plan)
        elif op == "cancel" and handles:
            queue.cancel_timeout(handles[value % len(handles)])
        elif op == "alarm":
            world.spend_cycles(value, fire=False)
            queue.on_alarm()
        log.append(("pending", queue.pending_count))
    return log, queue.alarms_taken


_plans = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("add"), st.integers(0, 3_000).map(float)),
)
_ops = st.one_of(
    st.tuples(st.just("add"), st.integers(1, 3_000).map(float), _plans),
    st.tuples(st.just("cancel"), st.integers(0, 40), st.none()),
    st.tuples(st.just("alarm"), st.integers(0, 100_000), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_callout_queue_matches_the_heap_reference(program):
    assert _run(TimerOps, program) == _run(HeapTimerQueue, program)


def test_double_cancel_and_cancel_after_fire_change_nothing():
    """A dropped or fired entry cancels as a no-op: no setitimer, no
    change in the count, on both designs alike."""
    program = [
        ("add", 100.0, None),
        ("add", 200.0, None),
        ("cancel", 1, None),
        ("cancel", 1, None),
        ("alarm", 10_000, None),
        ("cancel", 0, None),
        ("add", 50.0, None),
        ("cancel", 0, None),
    ]
    log, __ = _run(TimerOps, program)
    assert log == _run(HeapTimerQueue, program)[0]
    assert [entry[:2] for entry in log if entry[0] == "fire"] == [("fire", 0)]
