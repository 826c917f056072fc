"""A kitchen-sink stress run: every subsystem at once, invariants held.

Mixes compute threads, mutex/condvar pipelines, semaphores, barriers,
signals (internal and external), timed waits, I/O, cancellation, lazy
threads, and time slicing in one long deterministic run, then checks
global invariants.  This is the "does it all compose" test.
"""

from repro.core.attr import MutexAttr, ThreadAttr
from repro.core.config import SCHED_RR
from repro.core import config as cfg
from repro.core.errors import OK
from repro.unix.sigset import SIGUSR1, SigSet
from tests.conftest import make_runtime


def test_kitchen_sink():
    rt = make_runtime(seed=42, timeslice_us=2_000.0, pool_size=8)
    rt.add_io_device("disk0", latency_us=700.0, deterministic=False)
    stats = {
        "produced": 0,
        "consumed": 0,
        "signals_handled": 0,
        "io_done": 0,
        "barrier_rounds": 0,
        "cancelled_saw_cleanup": 0,
    }

    def handler(pt, sig):
        stats["signals_handled"] += 1
        yield pt.work(50)

    def producer(pt, m, cv, queue, sem):
        for i in range(12):
            yield pt.mutex_lock(m)
            queue.append(i)
            stats["produced"] += 1
            yield pt.cond_signal(cv)
            yield pt.mutex_unlock(m)
            yield pt.sem_post(sem)
            yield pt.delay_us(150)

    def consumer(pt, m, cv, queue, sem):
        for _ in range(6):
            yield pt.sem_wait(sem)
            yield pt.mutex_lock(m)
            while not queue:
                yield pt.cond_wait(cv, m)
            queue.pop(0)
            stats["consumed"] += 1
            yield pt.mutex_unlock(m)
            yield pt.work(500)

    def io_worker(pt):
        for _ in range(3):
            err, n = yield pt.read(1, 2048)
            if err == OK:
                stats["io_done"] += 1
            yield pt.work(200)

    def barrier_worker(pt, barrier):
        for _ in range(4):
            yield pt.work(800)
            r = yield pt.barrier_wait(barrier)
            if r == -1:
                stats["barrier_rounds"] += 1

    def cleanup(pt, arg):
        stats["cancelled_saw_cleanup"] += 1
        yield pt.work(10)

    def victim(pt):
        yield pt.cleanup_push(cleanup, None)
        yield pt.delay_us(1_000_000)  # cancelled long before

    def lazy_one(pt):
        yield pt.work(100)
        return "lazy"

    def rr_spinner(pt):
        yield pt.work(rt.world.cycles_for_us(9_000))

    def main(pt):
        m = yield pt.mutex_init(MutexAttr(protocol=cfg.PRIO_INHERIT))
        cv = yield pt.cond_init()
        sem = yield pt.sem_init(0)
        barrier = yield pt.barrier_init(3)
        queue = []
        yield pt.sigaction(SIGUSR1, handler)

        threads = [
            (yield pt.create(producer, m, cv, queue, sem,
                             attr=ThreadAttr(priority=55), name="prod")),
            (yield pt.create(consumer, m, cv, queue, sem,
                             attr=ThreadAttr(priority=50), name="cons1")),
            (yield pt.create(consumer, m, cv, queue, sem,
                             attr=ThreadAttr(priority=50), name="cons2")),
            (yield pt.create(io_worker, attr=ThreadAttr(priority=45),
                             name="io")),
            (yield pt.create(barrier_worker, barrier,
                             attr=ThreadAttr(priority=40), name="b1")),
            (yield pt.create(barrier_worker, barrier,
                             attr=ThreadAttr(priority=40), name="b2")),
            (yield pt.create(barrier_worker, barrier,
                             attr=ThreadAttr(priority=40), name="b3")),
            (yield pt.create(
                rr_spinner,
                attr=ThreadAttr(priority=35, policy=SCHED_RR), name="rr1",
            )),
            (yield pt.create(
                rr_spinner,
                attr=ThreadAttr(priority=35, policy=SCHED_RR), name="rr2",
            )),
        ]
        lazy = yield pt.create(lazy_one, attr=ThreadAttr(lazy=True),
                               name="lazy")
        victim_t = yield pt.create(victim, name="victim",
                                   attr=ThreadAttr(priority=30))

        # Pepper the run with internal signals.
        for _ in range(5):
            yield pt.delay_us(900)
            yield pt.kill(threads[0], SIGUSR1)

        yield pt.cancel(victim_t)
        err, lazy_value = yield pt.join(lazy)  # activates it
        assert (err, lazy_value) == (OK, "lazy")
        yield pt.join(victim_t)
        for t in threads:
            yield pt.join(t)
        return queue

    rt.main(main, priority=70)
    rt.run()

    # -- invariants ---------------------------------------------------------
    assert rt.terminated_by is None
    assert stats["produced"] == 12
    assert stats["consumed"] == 12
    assert stats["signals_handled"] == 5
    assert stats["io_done"] == 3
    assert stats["barrier_rounds"] == 4
    assert stats["cancelled_saw_cleanup"] == 1
    # Everything joinable was reclaimed.
    leftovers = [t for t in rt.threads.values() if t.name != "main"]
    assert not leftovers
    # No timer leaks, no parked interrupt frames, monitor released.
    assert rt.timer_ops.pending_count == 0
    assert not any(t.pending_interrupt_frames for t in rt.threads.values())
    assert not rt.kern.kernel_flag
    assert not rt.kern.deferred_signals
    # The clock moved substantially and deterministically.
    assert rt.world.now_us > 5_000


def test_kitchen_sink_is_deterministic():
    """Two identical runs give byte-identical virtual end times."""

    def one_run():
        rt = make_runtime(seed=7, timeslice_us=3_000.0)

        def child(pt, n):
            for _ in range(n):
                yield pt.work(333)
                yield pt.yield_()
            return n

        def main(pt):
            ts = []
            for i in range(5):
                ts.append((yield pt.create(child, i + 1)))
            total = 0
            for t in ts:
                err, v = yield pt.join(t)
                total += v
            assert total == 15

        rt.main(main)
        rt.run()
        return rt.world.now

    assert one_run() == one_run()
