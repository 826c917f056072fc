"""The event queue's per-kind FIFO lanes.

Each event kind (the ``name`` a caller posts under) gets a FIFO
lane, and only lane heads sit on the heap.  These tests pin the host
property the lanes exist for -- the heap stays as small as the number
of kinds, on a real net scenario and on a random-latency disk -- plus
the lane rule's heap fallback, cancelling every event and the
same-timestamp run counters over two kinds.  Fire order against a
one-heap reference is property-checked in
``tests/properties/test_prop_batched_pops.py``.
"""

from collections import Counter

import pytest

from repro.net.scenario import run_scenario
from repro.sim.events import EventQueue
from repro.sim.world import World
from repro.unix.io import IoDevice
from repro.unix.kernel import UnixKernel
from repro.unix.process import UnixProcess
from repro.unix.signals import SigAction
from repro.unix.sigset import SIGIO


def test_net_scenario_keeps_the_heap_to_one_entry_per_kind(monkeypatch):
    """200 resident clients x 2 requests on epoll with think time: the
    heap never holds more entries than there are event kinds.  The hook
    sits on ``post``, the one insertion path (``schedule`` goes through
    it too)."""
    orig = EventQueue.post
    kinds = set()
    sizes = []

    def post(self, time, fn, arg, name="event"):
        orig(self, time, fn, arg, name)
        kinds.add(name)
        sizes.append((len(self._heap), len(kinds)))

    monkeypatch.setattr(EventQueue, "post", post)
    report = run_scenario(
        arch="epoll", clients=200, requests_per_client=2, mean_gap_us=15.0,
        think_us=2_000.0, service_cycles=100, latency_us=60.0, seed=1,
    )
    assert report.replies == 400
    assert len(sizes) > 1_000
    assert all(heap <= n_kinds for heap, n_kinds in sizes), max(sizes)


def test_random_latency_disk_leaves_a_few_lanes():
    """200 exponential-latency disk requests complete out of submission
    order; they share one lane, and the stragglers go on the heap."""
    world = World("sparc-ipx")
    kernel = UnixKernel(world)
    proc = UnixProcess(kernel, None)
    proc.auto_deliver = True
    times = []  # completion order, read by the SIGIO handler
    kernel.sigaction(
        proc, SIGIO, SigAction(handler=lambda s, c: times.append(world.now))
    )
    device = IoDevice(world, kernel, proc, latency_us=300.0,
                      deterministic=False)
    with world.atomic():  # all 200 in flight before the first completes
        for i in range(200):
            device.submit(3, "read", 64, requester=i)
    queue = world.events
    assert len(queue._lanes) <= 2
    assert 0 < queue.heap_schedules < 200
    assert len(queue) == 200
    while queue.next_time() is not None:
        world.advance_to_next_event()
    assert device.completed == len(times) == 200
    assert times == sorted(times)
    assert not queue._heap and not any(queue._lanes.values())


def test_in_order_kind_appends_and_late_event_takes_the_heap():
    queue = EventQueue()
    fired = []
    for t in (5, 5, 9):
        queue.schedule(t, lambda t=t: fired.append(("a", t)), "a")
    queue.schedule(3, lambda: fired.append(("a", 3)), "a")  # behind the tail
    queue.schedule(4, lambda: fired.append(("b", 4)), "b")
    assert queue.heap_schedules == 1
    assert len(queue._heap) == 3  # two lane heads + the late "a"
    assert queue.fire_due(10) == 5
    assert fired == [("a", 3), ("b", 4), ("a", 5), ("a", 5), ("a", 9)]


def test_cancelling_every_event_empties_heap_and_lanes():
    queue = EventQueue()
    events = [queue.schedule(t, lambda: None, k)
              for t, k in ((1, "a"), (2, "a"), (0, "a"), (3, "b"))]
    for event in events:
        event.cancel()
    assert len(queue) == 0
    assert queue.next_time() is None
    assert not queue._heap and not any(queue._lanes.values())
    # A fresh event after the clear starts its lane again.
    queue.schedule(7, lambda: None, "a")
    assert queue.signature() == ((7, 4, "a"),)
    assert queue.fire_due(7) == 1


@pytest.mark.parametrize("seed", range(5))
def test_run_counters_with_two_interleaved_kinds(seed):
    """Same semantics as the one-kind counter property: every timestamp
    carrying k > 1 events is one run of k, whichever lanes they sit in."""
    import random

    rng = random.Random(seed)
    times = [rng.randint(0, 5) for __ in range(40)]
    queue = EventQueue()
    fired = []
    for i, t in enumerate(times):
        queue.schedule(t, lambda t=t: fired.append(t), "ab"[i % 2])
    queue.fire_due(5)
    assert fired == sorted(times)
    sizes = [k for k in Counter(times).values() if k > 1]
    assert queue.batch_pops == len(sizes)
    assert queue.batched_events == sum(sizes)
    assert queue.max_batch == (max(sizes) if sizes else 0)
