"""Property: the laned event queue fires exactly like one heap.

``EventQueue`` keeps one FIFO lane per event kind with only the lane
heads on its heap, and ``fire_due`` pops one event at a time.  Each
entry is a callout: most are *posted* (``fn(arg)``, no handle) and a few
are *scheduled* (an ``Event`` handle that can be cancelled).  The
observable contract is that the lanes and the two ways in are *pure
mechanism*: against a reference queue that keeps every event on one
heap and pops strictly one ``(time, seq)`` at a time, a randomized
program of posts and schedules under a few kinds, cancellations of the
handles, mid-fire re-posts (including into the past, the SMP
cross-clock case) and sibling cancellations must produce the identical
fire order, identical fired counts, and an identical surviving schedule.
Scripts post out of time order within a kind, and spawns with negative
deltas land behind their lane's tail, so the programs exercise the lane
append, the heap fallback, cancelled lane heads among posted entries
and cancelling every queued event.  A sparse-time program (mostly lone
events) must match too, including cancelled handles that share a live
event's timestamp and kind.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue, _fire_event


class OneAtATimeQueue:
    """Reference semantics: pop exactly one event per heap operation."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()

    def schedule(self, time, action, name="event"):
        # [t, seq, fn, dead, name]
        entry = [time, next(self._seq), action, False, name]
        heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(entry):
        entry[3] = True

    def fire_due(self, now):
        fired = 0
        while self._heap and self._heap[0][0] <= now:
            entry = heapq.heappop(self._heap)
            if entry[3]:
                continue
            entry[2]()
            fired += 1
        return fired

    def remaining(self):
        return sorted(
            (t, seq, name) for t, seq, __, dead, name in self._heap
            if not dead
        )


#: The event kinds a script draws from (each is one lane).
KINDS = st.sampled_from(["net", "think", "disk"])

# One scripted event: a time slot, its kind, plus what its action does
# when fired, and whether it keeps a handle.  ``spawn_delta`` in [-3, 5]
# exercises posting into the past mid-drain as well as same-timestamp
# and future spawns; a spawn shares its parent's kind and way in, so a
# negative delta lands behind that lane's tail.  ``cancel_target``
# points anywhere in the initial set, covering cancellation of
# already-fired, sibling, lane-head and future handles (a target that
# was posted has no handle and is left alone).
EVENT = st.tuples(
    st.integers(min_value=0, max_value=12),  # time (narrow: dense runs)
    KINDS,
    st.sampled_from(["plain", "spawn", "cancel"]),
    st.integers(min_value=-3, max_value=5),  # spawn delta / cancel index
    st.booleans(),  # True: scheduled with a handle; False: posted
)

# The same, spread over a wide time range so most events are alone at
# their timestamp, plus an optional cancelled twin of the same kind at
# the same time, scheduled just before (so it would fire first in order)
# or just after.
SPARSE_EVENT = st.tuples(
    st.integers(min_value=0, max_value=200),  # time (wide: lone events)
    KINDS,
    st.sampled_from(["plain", "spawn", "cancel"]),
    st.integers(min_value=-3, max_value=5),
    st.booleans(),
    st.sampled_from([None, "before", "after"]),  # cancelled twin
)


def _cancel(queue, handle):
    if isinstance(queue, OneAtATimeQueue):
        queue.cancel(handle)
    else:
        handle.cancel()


def _call(action):
    """The callout of a posted script event: run its action."""
    action()


def _add(queue, time, action, name, handle):
    """Schedule ``action`` (returning its handle) or post it (None).

    The one-heap reference has no posts: it schedules every event and
    the script simply keeps no handle for a posted one.
    """
    if handle or isinstance(queue, OneAtATimeQueue):
        entry = queue.schedule(time, action, name)
        return entry if handle else None
    queue.post(time, _call, action, name)
    return None


def _run(queue, script, horizons):
    """Drive one queue through the script; return the fire log."""
    log = []
    handles = {}

    def make_action(label, time, name, kind, param, handle):
        def action():
            log.append(label)
            if kind == "spawn":
                child = "%s+spawn" % label
                _add(
                    queue, max(0, time + param),
                    make_action(child, time + param, name, "plain", 0,
                                handle),
                    name, handle,
                )
            elif kind == "cancel":
                target = handles.get(param % max(1, len(handles)))
                if target is not None:
                    _cancel(queue, target)

        return action

    def twin(index, time, name):
        _cancel(queue, queue.schedule(
            time,
            make_action("e%d-twin" % index, time, name, "plain", 0, True),
            name,
        ))

    for index, (time, name, kind, param, handle, *rest) in enumerate(script):
        twin_at = rest[0] if rest else None
        if twin_at == "before":
            twin(index, time, name)
        handles[index] = _add(
            queue, time,
            make_action("e%d" % index, time, name, kind, param, handle),
            name, handle,
        )
        if twin_at == "after":
            twin(index, time, name)
    total = 0
    for horizon in horizons:
        total += queue.fire_due(horizon)
    return log, total


@settings(max_examples=200, deadline=None)
@given(
    st.lists(EVENT, min_size=1, max_size=25),
    st.lists(st.integers(min_value=0, max_value=20), min_size=1,
             max_size=4),
)
def test_batched_drain_matches_one_at_a_time(script, raw_horizons):
    """Dense timestamps: long same-time runs across several lanes."""
    _assert_matches_one_at_a_time(script, sorted(raw_horizons))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(SPARSE_EVENT, min_size=1, max_size=25),
    st.lists(st.integers(min_value=0, max_value=220), min_size=1,
             max_size=4),
)
def test_sparse_lone_heads_match_one_at_a_time(script, raw_horizons):
    """Sparse timestamps, with cancelled same-kind twins."""
    _assert_matches_one_at_a_time(script, sorted(raw_horizons))


def _assert_matches_one_at_a_time(script, horizons):
    """``horizons`` ascend: fire_due is driven monotonically."""
    laned = EventQueue()
    reference = OneAtATimeQueue()
    laned_log, laned_fired = _run(laned, script, horizons)
    reference_log, reference_fired = _run(reference, script, horizons)
    assert laned_log == reference_log  # identical wake order
    assert laned_fired == reference_fired
    # Identical surviving schedule (a cancel unlinks its entry, the
    # signature lists each pending event once, and both queues number
    # their events identically).
    signature = laned.signature()
    assert list(signature) == reference.remaining()
    assert len(laned) == len(reference.remaining())
    # Lane-less heap entries -- posted or scheduled -- are named too.
    laneless = {
        (time, seq, name)
        for time, seq, fn, arg, lane, name in laned._heap
        if lane is None and not (fn is _fire_event and arg.cancelled)
    }
    assert laneless <= set(signature)
    # The lane-head invariant survives every program: the entry names
    # the lane it sits in.
    lane_heads = [entry for entry in laned._heap if entry[4] is not None]
    assert sorted(map(id, lane_heads)) == sorted(
        id(lane[0]) for lane in laned._lanes.values() if lane
    )
    assert all(entry[4] is lane
               for lane in laned._lanes.values() for entry in lane)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2,
                max_size=40))
def test_batch_counters_account_for_every_multi_pop(times):
    queue = EventQueue()
    fired = []
    for t in times:
        queue.schedule(t, (lambda t=t: fired.append(t)))
    queue.fire_due(5)
    assert len(fired) == len(times)
    assert fired == sorted(fired)
    # Each timestamp with k>1 events is one batch of k.
    from collections import Counter

    sizes = [k for k in Counter(times).values() if k > 1]
    assert queue.batch_pops == len(sizes)
    assert queue.batched_events == sum(sizes)
    assert queue.max_batch == (max(sizes) if sizes else 0)
