"""Segment-cache equivalence: replay must be bit-identical to
interpretation.

The segment compiler (:mod:`repro.sim.segments`) replays recorded
straight-line op runs as batched clock spends.  Its contract against a
run with the cache disabled (``RuntimeConfig(segments=False)``): the
same state digest, simulated clock, step count, context switches and
library counters (mutex, condvar, kernel-entry and held-mutex counts)
at run end, and at every op where replay hands back to the
interpreter; the same ``world.now`` at every resume of a generator
body; and the same exception, at the same cycle, when a body raises
out of a replayed loop.  Library-object fields are *not* exact between
two replayed ops: every segment defers its effects to segment exit,
so a body that reads, say, ``m.owner`` right after an unlock inside a
compiled segment sees the segment-entry value.

Hypothesis drives random workload shapes and scheduling parameters;
deterministic regression tests pin down specific historical bugs:

- mid-segment ``world.now`` reads saw a stale clock when replay only
  published the batched spend at segment exit (caught by the Table 2
  golden: mutex_pair_uncontended measured 0.19us instead of 1.48us);
- a timer expiring inside a formerly-straight-line run must fire at
  the exact interpreted cycle (replay refuses windows that reach the
  event horizon and falls back to interpretation);
- a recording started from an op in hand closed after one op, so the
  pipeline's stages never compiled their ``yield signal_out`` loops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import (
    create_join_churn,
    lock_storm,
    pipeline,
    signal_storm,
)
from repro.core.attr import ThreadAttr
from repro.core.mutex import Mutex
from repro.sim.frames import ProgramCrash, SimException
from tests.conftest import make_runtime


def _runtime(main_fn, *, segments, seed=0, timeslice_us=None, priority=64):
    rt = make_runtime(
        seed=seed, timeslice_us=timeslice_us, segments=segments
    )
    _track_sync_objects(rt)
    rt.main(main_fn, priority=priority)
    return rt


def _run(main_fn, **kwargs):
    rt = _runtime(main_fn, **kwargs)
    rt.run(max_steps=5_000_000)
    return rt


def _track_sync_objects(rt):
    """Keep every mutex and condvar the program initialises on
    ``rt.sync_objects``, so the fingerprint can compare their counters."""
    created = rt.sync_objects = []
    for name in ("mutex_init", "cond_init"):

        def init(tcb, *args, _entry=rt.registry[name], **kwargs):
            obj = _entry(tcb, *args, **kwargs)
            created.append(obj)
            return obj

        rt.registry[name] = init


def _sync_state(obj):
    if isinstance(obj, Mutex):
        return (
            obj.acquisitions,
            obj.contentions,
            obj.handoffs,
            obj.lock_sequence.runs,
            obj.cell.value,
            obj.owner.name if obj.owner is not None else None,
        )
    return (obj.signals_sent, obj.broadcasts_sent)


def _fingerprint(rt):
    # The library counters are the fields loop segments apply as
    # ``full * iterations + prefix`` fix-ups at segment exit.
    return (
        rt.state_digest(),
        rt.world.clock.cycles,
        rt.steps,
        rt.dispatcher.context_switches,
        rt.dispatcher.dispatch_calls,
        rt.kern.enters,
        tuple(_sync_state(obj) for obj in rt.sync_objects),
        tuple(len(tcb.held_mutexes) for tcb in rt.threads.values()),
    )


def assert_equivalent(main_factory, **kwargs):
    """Run the workload in both modes; all observables must match."""
    on = _run(main_factory(), segments=True, **kwargs)
    off = _run(main_factory(), segments=False, **kwargs)
    assert on._segments is not None and off._segments is None
    assert _fingerprint(on) == _fingerprint(off)
    return on


WORKLOADS = {
    "lock_storm": lambda n, k: lock_storm(threads=2 + n % 5,
                                          iterations=2 + k % 9),
    "pipeline": lambda n, k: pipeline(stages=1 + n % 4, items=1 + k % 8),
    "churn": lambda n, k: create_join_churn(rounds=1 + k % 4,
                                            burst=1 + n % 6),
    "signal_storm": lambda n, k: signal_storm(victims=1 + n % 3,
                                              rounds=1 + k % 12),
}


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(WORKLOADS)),
    n=st.integers(min_value=0, max_value=63),
    k=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
    slice_us=st.sampled_from([None, 500.0, 2000.0]),
)
def test_random_workloads_replay_equivalent(name, n, k, seed, slice_us):
    prio = 50 if name == "signal_storm" else 100
    assert_equivalent(
        lambda: WORKLOADS[name](n, k),
        seed=seed,
        timeslice_us=slice_us,
        priority=prio,
    )


def test_hot_loop_actually_replays():
    """Sanity: the equivalence above is not vacuous -- a long
    straight-line loop must be served from the cache."""

    def main(pt):
        m = yield pt.mutex_init()
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        burn = pt.work(100)
        for _ in range(400):
            yield lock
            yield burn
            yield unlock

    on = _run(lambda pt: main(pt), segments=True)
    seg = on._segments
    assert seg.segments_compiled >= 1
    assert seg.steps_replayed > 500


def test_mid_segment_now_reads_are_exact():
    """Regression: generator bodies read ``world.now`` *between* the
    ops of a compiled segment; replay must publish the clock before
    every resume, not once at segment exit.

    Before the fix, the marks below diverged from interpretation as
    soon as the loop compiled (same final clock, wrong intermediate
    values) -- the bug that skewed Table 2's mutex_pair_uncontended
    from 1.48us to 0.19us.
    """
    def make(marks):
        def main(pt):
            world = pt.runtime.world
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            for _ in range(200):
                yield lock
                marks.append(world.now)
                yield unlock
                marks.append(world.now)

        return main

    marks_on: list = []
    marks_off: list = []
    on = _run(make(marks_on), segments=True)
    _run(make(marks_off), segments=False)
    assert on._segments.steps_replayed > 0
    assert marks_on == marks_off


def test_timer_expiry_inside_formerly_straight_line_run():
    """Regression: a delay timer armed by a high-priority thread must
    preempt a hot (compiled) low-priority loop at the exact
    interpreted cycle.

    Replay computes a ``limit`` from the event horizon and refuses any
    window that reaches it, so the expiry lands in interpreted code,
    which clamps work chunks to the horizon and fires due events at
    kernel enter/leave and in compute bursts (``World.spend`` itself
    only charges; see docs/INTERNALS.md).
    """
    def make(log):
        def sleeper(pt):
            world = pt.runtime.world
            for _ in range(40):
                yield pt.delay_us(200.0)
                log.append(world.now)

        def main(pt):
            world = pt.runtime.world
            t = yield pt.create(
                sleeper, attr=ThreadAttr(priority=120), name="sleeper"
            )
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(60)
            # Hot straight-line loop: compiles after a few visits, so
            # most expiries would land mid-segment if replay ignored
            # the horizon.
            for _ in range(3000):
                yield lock
                yield burn
                yield unlock
            log.append(("loop-done", world.now))
            yield pt.join(t)

        return main

    log_on: list = []
    log_off: list = []
    on = _run(make(log_on), segments=True, priority=50)
    off = _run(make(log_off), segments=False, priority=50)
    assert on._segments.steps_replayed > 0
    assert log_on == log_off
    assert _fingerprint(on) == _fingerprint(off)


def test_zero_cycle_run_is_left_to_the_interpreter():
    """A run of zero-cycle ops cannot be bounded by the event horizon
    (its iteration count is the cycles left divided by its cost), so it
    is never compiled; replaying it used to raise ZeroDivisionError
    while a timer was pending."""
    def make(log):
        def sleeper(pt):
            world = pt.runtime.world
            for _ in range(5):
                yield pt.delay_us(200.0)
                log.append(world.now)

        def main(pt):
            t = yield pt.create(
                sleeper, attr=ThreadAttr(priority=120), name="sleeper"
            )
            idle = pt.work(0)
            for _ in range(200):
                yield idle
                yield idle
            yield pt.join(t)

        return main

    log_on: list = []
    log_off: list = []
    on = _run(make(log_on), segments=True, priority=50)
    off = _run(make(log_off), segments=False, priority=50)
    assert on._segments.segments_compiled == 0
    assert log_on == log_off
    assert _fingerprint(on) == _fingerprint(off)


def test_pipeline_replays_at_every_work_size():
    """Regression: a recording that starts from an op in hand closes
    only when the generator yields that op at that location again.  One
    that tested the location alone closed after its first op and failed,
    so every recording keyed at a pipeline stage's ``yield signal_out``
    failed and 4.3% of the steps stayed interpreted at each of these
    work sizes."""
    for work in (500, 535, 546, 560):
        on = assert_equivalent(lambda: pipeline(4, 3000, work), seed=1)
        counters = on._segments.counters()
        replayed = counters["exec.segment.steps_replayed"]
        assert replayed / on.steps >= 0.99, work
        assert replayed == 71923, work
        assert counters["exec.segment.recordings"] <= 20, work


def test_location_fed_fresh_ops_ends_as_one_blacklisted_slot(monkeypatch):
    """``mutex_trylock`` builds a new op on every call, and only the
    shared ops ``core/api.py`` hands out can certify: the location
    table stays O(1) however many distinct ops pass through it, every
    location of the loop ends blacklisted, and from then on the
    executor's guard answers with one lookup and no ``try_step``
    call."""
    from repro.sim.segments import _BLACKLISTED, SegmentSpace

    calls = []
    try_step = SegmentSpace.try_step

    def counting(self, tcb, frame, op):
        calls.append(op)
        return try_step(self, tcb, frame, op)

    monkeypatch.setattr(SegmentSpace, "try_step", counting)

    def main(pt):
        m = yield pt.mutex_init()
        burn = pt.work(50)
        for _ in range(10_000):
            if (yield pt.mutex_trylock(m)) == 0:
                yield pt.mutex_unlock(m)
            yield burn

    rt = _run(main, segments=True)
    assert rt.steps > 30_000
    (table,) = rt._segments._by_code.values()
    entries = list(table.values())
    size = sum(len(e) if isinstance(e, dict) else 1 for e in entries)
    assert size <= 8
    assert sum(e is _BLACKLISTED for e in entries) == 3
    assert len(calls) < 100


def test_dfs_exploration_identical_with_segments_disabled(monkeypatch):
    """repro.check must see every choice point: segments bypass when a
    choice source / scheduling policy is attached, so DFS reports are
    byte-identical with the cache compiled in or configured out."""
    import functools

    from repro.check import explore as explore_mod
    from repro.check.explore import Explorer
    from repro.core.config import RuntimeConfig

    def explore():
        return Explorer(
            lambda: lock_storm(threads=3, iterations=3),
            priority=100,
            max_depth=40,
            max_branch=3,
        ).explore_dfs(max_runs=8)

    with_cache = explore()
    monkeypatch.setattr(
        explore_mod, "RuntimeConfig",
        functools.partial(RuntimeConfig, segments=False),
    )
    without_cache = explore()
    assert with_cache == without_cache
    assert with_cache.render() == without_cache.render()


def test_signal_into_hot_loop_is_exact():
    """A pthread_kill from a peer lands in a victim's compiled loop:
    the fake-call wrapper, mask save/restore, and EINTR bookkeeping
    must leave every observable identical to interpretation."""
    from repro.unix.sigset import SIGUSR1

    def make(log):
        hits = {"n": 0}

        def handler(pt, sig):
            hits["n"] += 1
            return
            yield  # pragma: no cover - generator marker

        def victim(pt, m):
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(80)
            for _ in range(600):
                yield lock
                yield burn
                yield unlock

        def main(pt):
            world = pt.runtime.world
            yield pt.sigaction(SIGUSR1, handler)
            m = yield pt.mutex_init()
            v = yield pt.create(
                victim, m, attr=ThreadAttr(priority=40), name="victim"
            )
            for _ in range(10):
                yield pt.delay_us(300.0)
                yield pt.kill(v, SIGUSR1)
                log.append((world.now, hits["n"]))
            yield pt.join(v)
            log.append(("joined", world.now, hits["n"]))

        return main

    log_on: list = []
    log_off: list = []
    on = _run(make(log_on), segments=True, priority=80)
    off = _run(make(log_off), segments=False, priority=80)
    assert on._segments.steps_replayed > 0
    assert log_on == log_off
    assert _fingerprint(on) == _fingerprint(off)


class _Boom(SimException):
    """A simulated exception raised from inside a compiled loop."""


def test_sim_exception_out_of_a_replayed_loop_unwinds_exactly():
    """A called helper raises a SimException mid-loop while the loop is
    served by replay: the raise reaches the runtime's resume-ended
    handler and unwinds into the catching caller at the interpreted
    cycle, with every counter the loop deferred applied."""

    def make(log):
        def helper(pt, m):
            world = pt.runtime.world
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(70)
            for i in range(400):
                yield lock
                yield burn
                yield unlock
                if i == 300:
                    log.append(("raise", world.now))
                    raise _Boom(i)

        def main(pt):
            world = pt.runtime.world
            m = yield pt.mutex_init()
            try:
                yield pt.call(helper, m)
            except _Boom as exc:
                log.append(("caught", exc.args, world.now, m.acquisitions))
            yield pt.work(10)

        return main

    log_on: list = []
    log_off: list = []
    on = _run(make(log_on), segments=True)
    off = _run(make(log_off), segments=False)
    assert on._segments.steps_replayed > 0
    assert log_on == log_off
    assert log_on[-1][1] == (300,)
    assert _fingerprint(on) == _fingerprint(off)


def test_program_crash_out_of_a_replayed_loop_is_exact():
    """A main loop raises a plain Python exception while served by
    replay: the run ends in the same ProgramCrash, at the same cycle,
    with the same state as interpretation."""

    def make(log):
        def main(pt):
            world = pt.runtime.world
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(70)
            for i in range(400):
                yield lock
                yield burn
                yield unlock
                if i == 300:
                    log.append(world.now)
                    raise ValueError("iteration %d" % i)

        return main

    outcomes = []
    for segments in (True, False):
        log: list = []
        rt = _runtime(make(log), segments=segments)
        with pytest.raises(ProgramCrash) as info:
            rt.run(max_steps=5_000_000)
        crash = info.value
        outcomes.append(
            (
                log,
                crash.frame_name,
                type(crash.original),
                crash.original.args,
                _fingerprint(rt),
            )
        )
        if segments:
            assert rt._segments.steps_replayed > 0
    on, off = outcomes
    assert on == off
    assert on[1] == "main" and on[2] is ValueError


@pytest.mark.parametrize("bad", [None, []], ids=["bare-yield", "unhashable"])
@pytest.mark.parametrize("at", [2, 8, 9, 16, 17, 300, 400])
def test_bad_op_in_or_after_a_replayed_loop_crashes_exactly(bad, at):
    """A bad op -- a bare ``yield`` or an unhashable object -- yielded
    inside a replayed (or recording) lock/work/unlock loop, or right
    after it (``at`` 400), ends the run in the same ProgramCrash, at the
    same cycle, with the same state as interpretation."""

    def make(log):
        def main(pt):
            world = pt.runtime.world
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(70)
            for i in range(400):
                yield lock
                yield burn
                yield unlock
                if i == at:
                    log.append(world.now)
                    yield bad
            log.append(world.now)
            yield bad

        return main

    outcomes = []
    for segments in (True, False):
        log: list = []
        rt = _runtime(make(log), segments=segments)
        with pytest.raises(ProgramCrash) as info:
            rt.run(max_steps=5_000_000)
        crash = info.value
        outcomes.append(
            (
                log,
                crash.frame_name,
                type(crash.original),
                crash.original.args,
                _fingerprint(rt),
            )
        )
        if segments and at > 16:
            assert rt._segments.steps_replayed > 0
    on, off = outcomes
    assert on == off
    assert on[2] is TypeError and "bad op yielded" in on[3][0]
    assert len(on[0]) == 1


def test_bursts_that_always_straddle_an_event_end_their_recordings():
    """A recording cut by an event firing inside a ``Work`` burst is not
    held against its location, but only up to a cap: a loop whose burst
    is longer than the timeslice fails every recording that way, and
    every location of it still ends blacklisted instead of recording
    every eighth visit for the whole run."""
    from repro.sim.segments import _BLACKLISTED

    def make():
        def spinner(pt):
            burn = pt.work(400)
            for _ in range(3000):
                yield burn

        def main(pt):
            t = yield pt.create(spinner, name="spinner")
            m = yield pt.mutex_init()
            lock = pt.mutex_lock(m)
            unlock = pt.mutex_unlock(m)
            burn = pt.work(30_000)
            for _ in range(3000):
                yield lock
                yield burn
                yield unlock
            yield pt.join(t)

        return main

    on = assert_equivalent(make, timeslice_us=500.0)
    seg = on._segments
    assert seg.segments_compiled == 0
    assert seg.recordings == seg.record_failures < 600
    # The loop's three locations and the spinner's one.
    entries = [e for t in seg._by_code.values() for e in t.values()]
    assert sum(e is _BLACKLISTED for e in entries) == 4
