"""Property: the laned event queue fires exactly like one heap.

``EventQueue`` keeps one FIFO lane per event kind with only the lane
heads on its heap, and ``fire_due`` pops one event at a time.  The
observable contract is that the lanes are *pure mechanism*: against a
reference queue that keeps every event on one heap and pops strictly one
``(time, seq)`` at a time, a randomized program of schedules under a few
kinds, cancellations, mid-fire re-schedules (including into the past,
the SMP cross-clock case) and sibling cancellations must produce the
identical fire order, identical fired counts, and an identical surviving
schedule.  Scripts schedule out of time order within a kind, and spawns
with negative deltas land behind their lane's tail, so the programs
exercise the lane append, the heap fallback, cancelled lane heads and
the all-tombstones clear.  A sparse-time program (mostly lone events)
must match too, including cancelled tombstones that share a live
event's timestamp and kind.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue


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
# when fired.  ``spawn_delta`` in [-3, 5] exercises scheduling into the
# past mid-drain as well as same-timestamp and future spawns; a spawn
# shares its parent's kind, so a negative delta lands behind that lane's
# tail.  ``cancel_target`` points anywhere in the initial set, covering
# cancellation of already-fired, sibling, lane-head and future events.
EVENT = st.tuples(
    st.integers(min_value=0, max_value=12),  # time (narrow: dense runs)
    KINDS,
    st.sampled_from(["plain", "spawn", "cancel"]),
    st.integers(min_value=-3, max_value=5),  # spawn delta / cancel index
)

# The same, spread over a wide time range so most events are alone at
# their timestamp, plus an optional cancelled twin of the same kind at
# the same time, scheduled just before (so the tombstone fires first in
# order) or just after.
SPARSE_EVENT = st.tuples(
    st.integers(min_value=0, max_value=200),  # time (wide: lone events)
    KINDS,
    st.sampled_from(["plain", "spawn", "cancel"]),
    st.integers(min_value=-3, max_value=5),
    st.sampled_from([None, "before", "after"]),  # cancelled twin
)


def _cancel(queue, handle):
    if isinstance(queue, OneAtATimeQueue):
        queue.cancel(handle)
    else:
        handle.cancel()


def _run(queue, script, horizons):
    """Drive one queue through the script; return the fire log."""
    log = []
    handles = {}

    def make_action(label, time, name, kind, param):
        def action():
            log.append(label)
            if kind == "spawn":
                child = "%s+spawn" % label
                queue.schedule(
                    max(0, time + param),
                    make_action(child, time + param, name, "plain", 0),
                    name,
                )
            elif kind == "cancel":
                target = handles.get(param % max(1, len(handles)))
                if target is not None:
                    _cancel(queue, target)

        return action

    def twin(index, time, name):
        _cancel(queue, queue.schedule(
            time, make_action("e%d-twin" % index, time, name, "plain", 0),
            name,
        ))

    for index, (time, name, kind, param, *rest) in enumerate(script):
        twin_at = rest[0] if rest else None
        if twin_at == "before":
            twin(index, time, name)
        handles[index] = queue.schedule(
            time, make_action("e%d" % index, time, name, kind, param), name
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
    # Identical surviving schedule (the signature excludes tombstones
    # and lists each pending event once; both queues number their
    # events identically).
    assert list(laned.signature()) == reference.remaining()
    assert len(laned) == len(reference.remaining())
    # The lane-head invariant survives every program.
    lane_heads = [entry for entry in laned._heap if entry[2].lane is not None]
    assert sorted(map(id, lane_heads)) == sorted(
        id(lane[0]) for lane in laned._lanes.values() if lane
    )


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
