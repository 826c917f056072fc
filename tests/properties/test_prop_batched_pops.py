"""Property: batched same-timestamp pops ≡ one-at-a-time pops.

``EventQueue.fire_due`` drains every event sharing the head timestamp
in one sweep (amortizing the heap traffic).  The observable contract is
that this is *pure mechanism*: against a reference queue that pops
strictly one ``(time, seq)`` at a time, a randomized program of
schedules, cancellations, mid-fire re-schedules (including into the
past, the SMP cross-clock hazard) and sibling cancellations must
produce the identical fire order, identical fired counts, and an
identical surviving schedule.  A sparse-time program (mostly *lone*
heads, which ``fire_due`` fires without building a batch) must match
too, including cancelled tombstones that share a lone event's
timestamp.
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

    def schedule(self, time, action):
        entry = [time, next(self._seq), action, False]  # [t, seq, fn, dead]
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
            (t, seq) for t, seq, __, dead in self._heap if not dead
        )


# One scripted event: a time slot plus what its action does when fired.
# ``spawn_delta`` in [-3, 5] exercises scheduling into the past
# mid-drain (the push-back safety valve) as well as same-timestamp and
# future spawns; ``cancel_target`` points anywhere in the initial set,
# covering cancellation of already-fired, sibling, and future events.
EVENT = st.tuples(
    st.integers(min_value=0, max_value=12),  # time (narrow: dense batches)
    st.sampled_from(["plain", "spawn", "cancel"]),
    st.integers(min_value=-3, max_value=5),  # spawn delta / cancel index
)

# The same, spread over a wide time range so most heads are lone, plus
# an optional cancelled twin at the same time, scheduled just before
# (so the tombstone is the head) or just after (so it is a child).
SPARSE_EVENT = st.tuples(
    st.integers(min_value=0, max_value=200),  # time (wide: lone heads)
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

    def make_action(label, time, kind, param):
        def action():
            log.append(label)
            if kind == "spawn":
                child = "%s+spawn" % label
                queue.schedule(
                    max(0, time + param), make_action(child, time + param,
                                                      "plain", 0)
                )
            elif kind == "cancel":
                target = handles.get(param % max(1, len(handles)))
                if target is not None:
                    _cancel(queue, target)

        return action

    def twin(index, time):
        _cancel(queue, queue.schedule(
            time, make_action("e%d-twin" % index, time, "plain", 0)
        ))

    for index, (time, kind, param, *rest) in enumerate(script):
        twin_at = rest[0] if rest else None
        if twin_at == "before":
            twin(index, time)
        handles[index] = queue.schedule(
            time, make_action("e%d" % index, time, kind, param)
        )
        if twin_at == "after":
            twin(index, time)
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
    _assert_matches_one_at_a_time(script, sorted(raw_horizons))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(SPARSE_EVENT, min_size=1, max_size=25),
    st.lists(st.integers(min_value=0, max_value=220), min_size=1,
             max_size=4),
)
def test_sparse_lone_heads_match_one_at_a_time(script, raw_horizons):
    _assert_matches_one_at_a_time(script, sorted(raw_horizons))


def _assert_matches_one_at_a_time(script, horizons):
    """``horizons`` ascend: fire_due is driven monotonically."""
    batched = EventQueue()
    reference = OneAtATimeQueue()
    batched_log, batched_fired = _run(batched, script, horizons)
    reference_log, reference_fired = _run(reference, script, horizons)
    assert batched_log == reference_log  # identical wake order
    assert batched_fired == reference_fired
    # Identical surviving schedule (the signature digest excludes
    # tombstones, and both queues number their events identically).
    assert [
        (t, seq) for t, seq, __ in batched.signature()
    ] == reference.remaining()


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
