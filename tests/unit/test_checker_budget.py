"""Host work of one explored schedule, pinned by count.

The explorer runs every schedule on a fresh runtime, so whatever a
runtime builds and whatever a run records is paid once per schedule.
A schedule pays only for what it explores: the TCB/stack pool reserves
its prefill in one heap pass and builds a ``Stack`` only when a thread
takes one, a passing walk runs without a tracer, the enumerating
policy asks the ready queue for its order only when it forces a
switch, and a runtime built with a policy or a check context carries
no segment cache (the cache would bypass itself on every step).  None
of this changes a simulated result, so only a count can pin it.
"""

import pytest

from repro.check.explore import Explorer
from repro.check.invariants import CheckContext
from repro.check.workloads import pooled_server
from repro.core.runtime import PthreadsRuntime
from repro.core.queues import ReadyQueue
from repro.core.tcb import Tcb
from repro.debug.trace import Tracer
from repro.hw.memory import Stack
from repro.sched.perverted import EnumerableSwitchPolicy
from repro.sim.segments import SegmentSpace

WALKS = 20

#: Invariant sweeps of the 20 walks: the sweep skips no kernel release.
CHECKS_RUN = 908
#: Threads the 20 walks create, four a walk.  ``Stack`` objects built
#: match them one for one: none for the 60 pool entries a runtime
#: reserves and no thread takes.
THREADS = 80
#: Forced switches among the choice points; each reads the ready
#: queue's order once.
FORCED = 252
CHOICE_POINTS = 458


@pytest.fixture(scope="module")
def measured():
    counts = {
        "stack": 0,
        "tcb": 0,
        "threads": 0,
        "tracer": 0,
        "record": 0,
        "segment_space": 0,
        "try_step": 0,
    }
    policies = []

    def counting(cls, name, key):
        orig = getattr(cls, name)

        def counted(self, *args, **kwargs):
            counts[key] += 1
            return orig(self, *args, **kwargs)

        mp.setattr(cls, name, counted)

    orig_policy_init = EnumerableSwitchPolicy.__init__

    def policy_init(self):
        orig_policy_init(self)
        policies.append(self)

    mp = pytest.MonkeyPatch()
    counting(Stack, "__init__", "stack")
    counting(Tcb, "__init__", "tcb")
    counting(ReadyQueue, "threads", "threads")
    counting(Tracer, "__init__", "tracer")
    counting(Tracer, "emit", "record")
    counting(SegmentSpace, "__init__", "segment_space")
    counting(SegmentSpace, "try_step", "try_step")
    mp.setattr(EnumerableSwitchPolicy, "__init__", policy_init)
    try:
        report = Explorer(
            lambda: pooled_server(clients=3, workers=2), priority=100
        ).explore_random(runs=WALKS, seed=1)
    finally:
        mp.undo()
    return report, counts, policies


def test_walks_pass_and_sweep_as_before(measured):
    report, __, policies = measured
    assert report.schedules_explored == WALKS
    assert report.failures == []
    assert report.checks_run == CHECKS_RUN
    assert len(policies) == WALKS


def test_passing_walks_record_no_trace(measured):
    __, counts, __ = measured
    assert counts["tracer"] == 0
    assert counts["record"] == 0


def test_a_stack_is_built_per_thread_created(measured):
    __, counts, __ = measured
    assert counts["tcb"] == THREADS
    assert counts["stack"] == counts["tcb"]


def test_ready_order_is_read_once_per_forced_switch(measured):
    __, counts, policies = measured
    assert sum(p.choice_points for p in policies) == CHOICE_POINTS
    assert sum(p.forced_switches for p in policies) == FORCED
    assert counts["threads"] == FORCED


def test_explored_runtimes_carry_no_segment_cache(measured):
    report, counts, __ = measured
    assert counts["segment_space"] == 0
    assert counts["try_step"] == 0
    assert report.checks_run == CHECKS_RUN


@pytest.mark.parametrize(
    "kwargs, cached",
    [
        ({}, True),
        ({"policy": EnumerableSwitchPolicy()}, False),
        ({"check": CheckContext()}, False),
    ],
)
def test_only_a_runtime_without_policy_or_check_builds_the_cache(
    kwargs, cached
):
    runtime = PthreadsRuntime(**kwargs)
    assert (runtime._segments is not None) == cached
