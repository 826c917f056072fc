"""Chaos tests: signal storms and fault injection over real workloads.

Hypothesis drives random external-signal schedules and random atomic-
sequence interruptions against contention-heavy programs; the library's
invariants must survive every storm:

- no signal handler ever observes a mutual-exclusion violation;
- every locked mutex has an owner at every delivery point;
- the run terminates (no lost wakeups) and the monitor is released.
"""

from hypothesis import given, settings, strategies as st

from repro.core.attr import ThreadAttr
from repro.unix.sigset import SIGUSR1, SIGUSR2
from tests.conftest import make_runtime


@settings(max_examples=15, deadline=None)
@given(
    signal_times=st.lists(
        st.integers(min_value=100, max_value=20_000),
        min_size=1,
        max_size=10,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_external_signal_storm_preserves_mutex_invariants(
    signal_times, seed
):
    rt = make_runtime(seed=seed)
    state = {"inside": 0, "violations": 0, "handled": 0}
    mutexes = []

    def handler(pt, sig):
        state["handled"] += 1
        # Handlers observe library state at delivery points: no mutex
        # may ever be locked-but-ownerless, and exclusion must hold.
        for mutex in mutexes:
            if mutex.locked and mutex.owner is None:
                state["violations"] += 1
        if state["inside"] > 1:
            state["violations"] += 1
        yield pt.work(20)

    def worker(pt, m):
        for _ in range(4):
            yield pt.mutex_lock(m)
            state["inside"] += 1
            if state["inside"] > 1:
                state["violations"] += 1
            yield pt.work(900)
            state["inside"] -= 1
            yield pt.mutex_unlock(m)
            yield pt.work(300)

    def main(pt):
        m = yield pt.mutex_init()
        mutexes.append(m)
        yield pt.sigaction(SIGUSR1, handler)
        yield pt.sigaction(SIGUSR2, handler)
        threads = []
        for i in range(3):
            threads.append(
                (
                    yield pt.create(
                        worker, m, attr=ThreadAttr(priority=40 + i)
                    )
                )
            )
        for t in threads:
            yield pt.join(t)

    rt.main(main, priority=80)
    for index, at in enumerate(signal_times):
        sig = SIGUSR1 if index % 2 == 0 else SIGUSR2
        rt.world.schedule_in(
            at, (lambda s=sig: rt.unix.kill(rt.proc, s)), name="storm"
        )
    rt.run()
    assert state["violations"] == 0
    assert rt.terminated_by is None
    assert not rt.kern.kernel_flag
    assert not any(t.pending_interrupt_frames for t in rt.threads.values())


@settings(max_examples=15, deadline=None)
@given(
    interrupt_step=st.integers(min_value=0, max_value=6),
    interrupt_attempts=st.sets(
        st.integers(min_value=0, max_value=3), max_size=3
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_atomic_sequence_fault_injection(interrupt_step,
                                         interrupt_attempts, seed):
    """Interrupt the Figure 4 sequence at arbitrary (attempt, step)
    points: acquisition must still succeed with ownership recorded."""
    rt = make_runtime(seed=seed)
    out = {}

    def main(pt):
        m = yield pt.mutex_init()
        m.lock_sequence.interrupt_hook = (
            lambda attempt, step: attempt in interrupt_attempts
            and step == interrupt_step
        )
        yield pt.mutex_lock(m)
        out["ok"] = m.locked and m.owner is not None
        yield pt.mutex_unlock(m)
        out["released"] = not m.locked and m.owner is None

    rt.main(main)
    rt.run()
    assert out == {"ok": True, "released": True}


@settings(max_examples=10, deadline=None)
@given(
    kill_times=st.lists(
        st.integers(min_value=100, max_value=30_000),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_signal_storm_during_condvar_traffic(kill_times, seed):
    """Handlers interrupting conditional waits must leave every wait
    either satisfied or cleanly retried: all items get consumed."""
    rt = make_runtime(seed=seed)
    consumed = []

    def handler(pt, sig):
        yield pt.work(30)

    def consumer(pt, m, cv, queue, n):
        taken = 0
        while taken < n:
            yield pt.mutex_lock(m)
            while not queue:
                yield pt.cond_wait(cv, m)  # may return EINTR: loop
            consumed.append(queue.pop(0))
            taken += 1
            yield pt.mutex_unlock(m)

    def producer(pt, m, cv, queue, n):
        for i in range(n):
            yield pt.delay_us(400)
            yield pt.mutex_lock(m)
            queue.append(i)
            yield pt.cond_signal(cv)
            yield pt.mutex_unlock(m)

    def main(pt):
        m = yield pt.mutex_init()
        cv = yield pt.cond_init()
        queue = []
        yield pt.sigaction(SIGUSR1, handler)
        c = yield pt.create(consumer, m, cv, queue, 6, name="cons")
        p = yield pt.create(producer, m, cv, queue, 6, name="prod")
        yield pt.join(p)
        yield pt.join(c)

    rt.main(main, priority=80)
    for at in kill_times:
        rt.world.schedule_in(
            at, lambda: rt.unix.kill(rt.proc, SIGUSR1), name="storm"
        )
    rt.run()
    assert consumed == list(range(6))
