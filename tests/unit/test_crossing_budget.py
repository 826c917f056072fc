"""Host-call budget of one kernel crossing, pinned by count.

The paper prices a UNIX service as one path: enter the kernel, do the
work, leave (Table 2's ``getpid`` yardstick).  The simulator charges it
the same way -- ``UnixKernel._enter`` makes exactly one ``World.spend``
per syscall, with the service's ``costs.SYS_*`` path key -- and the
executor's segment guard resolves a frame's location table once, not
once per step.  The event horizon is a callout table like the BSD
kernel's ``timeout(fn, arg, ticks)``: events nobody cancels (link
messages, think timers, arrivals, connection set-up) are posted without
an ``Event`` handle.  All are host-cost properties that leave every
simulated result unchanged, so only a count can pin them.
"""

import sys

import pytest

from repro.net.scenario import run_scenario
from repro.sim.events import Event, EventQueue
from repro.sim.frames import Frame
from repro.sim.segments import SegmentSpace
from repro.sim.world import World
from repro.unix.kernel import UnixKernel

#: A small epoll server: 200 kernel-resident clients x 2 requests.
SCENARIO = dict(
    arch="epoll",
    clients=200,
    requests_per_client=2,
    mean_gap_us=15.0,
    think_us=2_000.0,
    service_cycles=100,
    latency_us=60.0,
    seed=1,
)
REPLIES = SCENARIO["clients"] * SCENARIO["requests_per_client"]

#: Every ``World.spend`` of the scenario above, measured when each
#: crossing became one charge (two per syscall before).
SPENDS = 6_929
#: ...of which made by ``UnixKernel._enter``: one per syscall.
ENTER_SPENDS = 1_848
#: Entries the scenario posts to the event horizon (``EventQueue._seq``).
POSTED = 1_602
#: ``Event`` handles among them: only interval-timer arms keep one
#: (every entry built an ``Event`` before the queue took callouts).
EVENT_HANDLES = 2


class _CountingDict(dict):
    """A dict that counts its ``get`` lookups."""

    def __init__(self) -> None:
        super().__init__()
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


@pytest.fixture(scope="module")
def measured():
    enter_code = UnixKernel._enter.__code__
    orig_spend = World.spend
    orig_space_init = SegmentSpace.__init__
    orig_frame_init = Frame.__init__
    orig_event_init = Event.__init__
    orig_queue_init = EventQueue.__init__
    counts = {"spend": 0, "enter": 0, "event": 0}
    spaces = []
    frames = []
    queues = []

    def spend(self, key, *args, **kwargs):
        counts["spend"] += 1
        if sys._getframe(1).f_code is enter_code:
            counts["enter"] += 1
        return orig_spend(self, key, *args, **kwargs)

    def space_init(self, runtime):
        orig_space_init(self, runtime)
        self._by_code = _CountingDict()
        spaces.append(self)

    def frame_init(self, *args, **kwargs):
        orig_frame_init(self, *args, **kwargs)
        frames.append(self)

    def event_init(self, *args, **kwargs):
        orig_event_init(self, *args, **kwargs)
        counts["event"] += 1

    def queue_init(self):
        orig_queue_init(self)
        queues.append(self)

    mp = pytest.MonkeyPatch()
    mp.setattr(World, "spend", spend)
    mp.setattr(SegmentSpace, "__init__", space_init)
    mp.setattr(Frame, "__init__", frame_init)
    mp.setattr(Event, "__init__", event_init)
    mp.setattr(EventQueue, "__init__", queue_init)
    try:
        report = run_scenario(**SCENARIO)
    finally:
        mp.undo()
    counts["posted"] = [queue._seq for queue in queues]
    return report, counts, spaces, frames


def test_scenario_completes(measured):
    report, __, spaces, __ = measured
    assert report.replies == REPLIES
    assert report.refused == 0
    assert len(spaces) == 1


def test_one_charge_per_syscall(measured):
    report, counts, __, __ = measured
    assert report.syscalls > REPLIES
    assert counts["enter"] == report.syscalls


def test_spends_per_reply_are_pinned(measured):
    report, counts, __, __ = measured
    assert report.syscalls == ENTER_SPENDS
    assert counts["spend"] == SPENDS
    assert counts["spend"] / REPLIES == pytest.approx(17.3225)


def test_location_table_is_resolved_once_per_stepped_frame(measured):
    __, __, spaces, frames = measured
    space = spaces[0]
    stepped = [f for f in frames if getattr(f, "seg_table", None) is not None]
    assert stepped
    assert space._by_code.gets == len(stepped)
    for frame in stepped:
        assert frame.seg_table is space._by_code[frame.gen.gi_code]


def test_uncancelled_events_build_no_handle(measured):
    """Every entry is still posted; only the cancellable ones (interval
    timers) allocate an ``Event``.  The world's event horizon is the
    first queue built; the library timer queue's own callout table
    follows it and posts nothing in this scenario."""
    __, counts, __, __ = measured
    assert counts["posted"][0] == POSTED
    assert counts["event"] <= EVENT_HANDLES
