"""Regression tests for the bugs the checker caught.

Each test encodes the post-fix behaviour and fails against the pre-fix
code (reinstatable via :mod:`repro.check.preseed` for the first two;
the others were plain logic bugs with no schedule dependence).
"""

import pytest

from repro.check.invariants import CheckContext
from repro.core.config import RuntimeConfig
from repro.core.errors import EBUSY, EINVAL, OK
from repro.core.runtime import PthreadsRuntime
from repro.bench import workloads as bench_workloads
from repro.check.workloads import cond_relay
from repro.sched.perverted import RandomSwitchPolicy
from tests.conftest import make_runtime, run_program


# -- fix 1: grant_to_waker counter symmetry ------------------------------------


def test_waker_queued_contention_counts_the_mutex():
    """Signalling with the mutex held parks the woken waiter on the
    mutex queue; that contention (and the later handoff) must count on
    the mutex itself, not only run-wide."""
    box = {}

    def waiter(pt, m, cv, state):
        yield pt.mutex_lock(m)
        while not state["go"]:
            yield pt.cond_wait(cv, m)
        yield pt.mutex_unlock(m)

    def main(pt):
        m = yield pt.mutex_init()
        cv = yield pt.cond_init()
        box["m"] = m
        state = {"go": False}
        t = yield pt.create(waiter, m, cv, state)
        yield pt.delay_us(100)
        yield pt.mutex_lock(m)
        state["go"] = True
        yield pt.cond_signal(cv)  # waiter re-queues on the held mutex
        yield pt.mutex_unlock(m)  # direct handoff to it
        yield pt.join(t)

    rt = run_program(main, priority=100)
    m = box["m"]
    assert m.contentions == rt.mutex_ops.contentions == 1
    assert m.handoffs == rt.mutex_ops.handoffs == 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_per_mutex_counters_sum_to_global(seed):
    """Property: across hostile random interleavings, the per-mutex
    counters always sum to the run-wide ``MutexOps`` totals.  The
    checker asserts this at every kernel release; the final state is
    re-asserted here directly."""
    check = CheckContext()  # no choice source: pure invariant mode
    runtime = PthreadsRuntime(
        seed=seed,
        config=RuntimeConfig(pool_size=32),
        policy=RandomSwitchPolicy(seed),
        check=check,
    )
    if seed % 2:
        main = bench_workloads.lock_storm(threads=6, iterations=10)
    else:
        main = cond_relay(waiters=3)
    runtime.main(main, priority=100)
    runtime.run()
    assert check.checks_run > 0
    assert (
        sum(m.contentions for m in check.mutexes)
        == runtime.mutex_ops.contentions
    )
    assert (
        sum(m.handoffs for m in check.mutexes)
        == runtime.mutex_ops.handoffs
    )
    check.check_quiescent(runtime)


# -- fix 2: sem_destroy is all-or-nothing --------------------------------------


def test_sem_destroy_all_or_nothing():
    """A busy component must fail the destroy without tearing the
    other component down (pre-fix: the condvar died, the mutex
    survived, and the semaphore was left half-destroyed)."""
    out = {}

    def main(pt):
        sem = yield pt.sem_init(0)
        yield pt.mutex_lock(sem.mutex)
        out["busy"] = yield pt.sem_destroy(sem)
        out["cond_alive"] = not sem.cond.destroyed
        out["mutex_alive"] = not sem.mutex.destroyed
        yield pt.mutex_unlock(sem.mutex)
        out["ok"] = yield pt.sem_destroy(sem)
        out["both_dead"] = sem.cond.destroyed and sem.mutex.destroyed
        out["again"] = yield pt.sem_destroy(sem)

    run_program(main)
    assert out == {
        "busy": EBUSY,
        "cond_alive": True,
        "mutex_alive": True,
        "ok": OK,
        "both_dead": True,
        "again": EINVAL,
    }


# -- fix 3: wrlock cancellation keeps the claim balanced -----------------------


def test_cancelled_writer_withdraws_claim_and_lock_stays_usable():
    out = {}

    def reader(pt, rw):
        yield pt.rwlock_rdlock(rw)
        yield pt.delay_us(800)
        yield pt.rwlock_unlock(rw)

    def writer(pt, rw):
        yield pt.rwlock_wrlock(rw)
        yield pt.rwlock_unlock(rw)

    def main(pt):
        from repro.core.config import PTHREAD_CANCELED

        rw = yield pt.rwlock_init("reg")
        r = yield pt.create(reader, rw)
        yield pt.delay_us(100)  # reader inside
        w = yield pt.create(writer, rw)
        yield pt.delay_us(100)  # writer waiting, claim registered
        out["claimed"] = rw.waiting_writers
        yield pt.cancel(w)
        err, value = yield pt.join(w)
        out["cancelled"] = value is PTHREAD_CANCELED
        yield pt.join(r)
        out["ww_after"] = rw.waiting_writers
        # Both modes must still be acquirable.
        yield pt.rwlock_rdlock(rw)
        yield pt.rwlock_unlock(rw)
        yield pt.rwlock_wrlock(rw)
        yield pt.rwlock_unlock(rw)
        out["usable"] = True

    run_program(main, priority=100)
    assert out["claimed"] == 1
    assert out["cancelled"]
    assert out["ww_after"] == 0
    assert out["usable"]


# -- fix 4 (cond_timedwait expired => ETIMEDOUT) lives in
# tests/integration/test_cond.py::test_bad_timeouts_and_destroy.


# -- fix 5: timer queue rearm churn --------------------------------------------


def test_cancel_of_head_deadline_retargets_the_timer():
    """Cancelling the earliest deadline must unlink it and
    retarget the single UNIX timer at the real earliest (pre-fix it
    stayed armed for the dead deadline and fired spuriously early)."""
    rt = make_runtime()
    tq = rt.timer_ops
    h1 = tq.add_timeout(1_000.0, lambda: None)
    h2 = tq.add_timeout(5_000.0, lambda: None)
    assert tq._armed_for == h1[0]
    tq.cancel_timeout(h1)
    assert tq._armed_for == h2[0]
    assert tq.pending_count == 1
    tq.cancel_timeout(h2)
    assert tq._armed_for is None
    assert tq.pending_count == 0


def test_cancel_of_later_deadline_leaves_timer_alone():
    rt = make_runtime()
    tq = rt.timer_ops
    h1 = tq.add_timeout(1_000.0, lambda: None)
    h2 = tq.add_timeout(5_000.0, lambda: None)
    before = rt.unix.syscall_counts["setitimer"]
    tq.cancel_timeout(h2)
    assert tq._armed_for == h1[0]
    assert rt.unix.syscall_counts["setitimer"] == before


def test_alarm_drain_rearms_once():
    """Waking a batch of due sleepers must not re-run ``setitimer``
    per wakeup: the drain defers rearming until it finishes."""

    def sleeper(pt, us):
        yield pt.delay_us(us)

    def main(pt):
        # Deadlines land within one drain window.
        threads = []
        for i in range(6):
            threads.append((yield pt.create(sleeper, 500.0 + i * 0.1)))
        for t in threads:
            yield pt.join(t)

    rt = run_program(main, priority=100)
    assert rt.timer_ops.pending_count == 0
    # One arm per distinct head deadline plus the final disarm; far
    # fewer than the 2-per-wakeup churn of the pre-fix code.
    assert rt.unix.syscall_counts["setitimer"] <= 8


# -- fix 6: an alarm that wakes a sleeper drops the sleep's deadline -------------


def test_armer_alarm_drops_the_sleepers_deadline():
    """Delivery rule 2 wakes a sleeping armer early; the sleep's own
    timer-queue deadline must go with the wait.  Pre-fix it stayed
    queued and woke the thread's *next* sleep early (a 2,000 us sleep
    returned after about 740 us) and was still queued at run end."""
    from repro.unix.timers import alarm

    out = {}

    def main(pt):
        rt = pt.runtime
        me = yield pt.self_id()
        alarm(rt.world, rt.unix, rt.proc, 300.0, armer=me)
        yield pt.delay_us(1_000.0)  # woken by the alarm at ~300 us
        start = rt.world.now_us
        yield pt.delay_us(2_000.0)
        out["second_sleep_us"] = rt.world.now_us - start

    rt = run_program(main, priority=100)
    assert out["second_sleep_us"] >= 2_000.0
    assert rt.timer_ops.pending_count == 0


def test_stale_sleeper_deadline_wakes_nothing_and_is_reported():
    """A sleeper deadline that outlives its sleep must not end the
    thread's next sleep.  With the pre-fix rule-2 wake reinstated, the
    first sleep's deadline stays queued and fires half way through the
    second sleep: pre-fix it ended that sleep (a 2,000 us sleep returned
    after about 721 us) and the queue drained at run end, so the
    ``timer-queue-drained`` rule saw nothing.  Now the callout ends only
    the wait it was queued for, and the rule reports the firing."""
    from repro.check.invariants import InvariantViolation
    from repro.check.preseed import preseeded
    from repro.unix.timers import alarm

    out = {}

    def main(pt):
        rt = pt.runtime
        me = yield pt.self_id()
        alarm(rt.world, rt.unix, rt.proc, 300.0, armer=me)
        yield pt.delay_us(1_000.0)  # woken by the alarm at ~300 us
        start = rt.world.now_us
        yield pt.delay_us(2_000.0)
        out["second_sleep_us"] = rt.world.now_us - start

    check = CheckContext()
    with preseeded("stale-sleep-deadline"):
        runtime = PthreadsRuntime(check=check)
        runtime.main(main, priority=100)
        runtime.run()
    assert out["second_sleep_us"] >= 2_000.0
    assert runtime.timer_ops.stale_firings == 1
    with pytest.raises(InvariantViolation) as info:
        check.check_quiescent(runtime)
    assert info.value.rule == "timer-queue-drained"
    assert "1 sleeper deadline(s) fired" in info.value.detail
