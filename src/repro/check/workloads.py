"""Targeted workloads for the checker.

The generic :mod:`repro.bench.workloads` exercise throughput shapes;
these exercise the specific protocol windows the checker's invariants
watch.  All complete cleanly on the fixed library under
every explored schedule; under :mod:`repro.check.preseed` they are the
smallest programs that reach the reseeded bugs.
"""

from __future__ import annotations

from repro.core.errors import ETIMEDOUT, OK


def _relay_waiter(pt, mutex, cond, box):
    yield pt.mutex_lock(mutex)
    while not box["go"]:
        yield pt.cond_wait(cond, mutex)
    box["woken"] += 1
    yield pt.mutex_unlock(mutex)


def cond_relay(waiters: int = 2):
    """Signal condvar waiters *while holding the mutex*.

    Waking a waiter that cannot take the mutex yet goes through the
    ``grant_to_waker`` path: the woken thread parks on the mutex queue
    as a contention.  The counter-agreement invariant audits exactly
    that bookkeeping.
    """

    def main(pt):
        mutex = yield pt.mutex_init()
        cond = yield pt.cond_init()
        box = {"go": False, "woken": 0}
        threads = []
        for __ in range(waiters):
            threads.append(
                (yield pt.create(_relay_waiter, mutex, cond, box))
            )
        yield pt.delay_us(200)  # everyone parks on the condvar
        yield pt.mutex_lock(mutex)
        box["go"] = True
        for __ in range(waiters):
            yield pt.cond_signal(cond)  # mutex held: waiters re-queue
        yield pt.mutex_unlock(mutex)
        for thread in threads:
            yield pt.join(thread)
        assert box["woken"] == waiters

    return main


def _served(arch: str, clients: int, workers: int = 2):
    """``clients`` kernel-resident clients against one server
    architecture of :mod:`repro.net.servers`, one request each."""
    from repro.net.scenario import build_main
    from repro.net.servers import Collector

    def main(pt):
        collector = Collector()
        inner = build_main(
            arch,
            collector,
            clients=clients,
            requests_per_client=1,
            workers=workers,
            arrival="uniform",
            mean_gap_us=120.0,
            think_us=40.0,
            service_cycles=200,
            latency_us=30.0,
        )
        result = yield from inner(pt)
        assert collector.requests_served == clients
        return result

    return main


def pooled_server(clients: int = 3, workers: int = 2):
    """A small pooled network server under deterministic load.

    The full architecture from :mod:`repro.net.servers`: one acceptor
    feeding ``workers`` worker threads through the condvar-protected
    :class:`~repro.net.servers.WorkQueue`, serving ``clients``
    kernel-resident clients.  The queue registers with the checker, so
    every explored schedule audits the enqueue/dequeue bookkeeping and
    the end-of-run drain -- the lost-wakeup and shutdown races a
    hand-rolled work queue invites live exactly in those windows.
    """
    return _served("pool", clients, workers)


def epoll_server(clients: int = 3):
    """The single-threaded epoll dispatcher under the same load.

    The dispatcher registers the listener and every accepted socket,
    drops the listener's registration once all clients arrived, and
    closes each connection with its registration still in place -- so
    every explored schedule audits ``epoll_ctl add``/``del`` and the
    close-time purge against the registration rule.
    """
    return _served("epoll", clients)


def _timer_worker(pt, mutex, box, iterations):
    for __ in range(iterations):
        yield pt.mutex_lock(mutex)
        box["count"] += 1
        yield pt.work(180)  # hold long enough for slices to land
        yield pt.mutex_unlock(mutex)
        yield pt.delay_us(25)


def smp_timer_mutex(workers: int = 2, iterations: int = 4):
    """Mutex contention under timer traffic, for 2-CPU exploration.

    Every timeslice expiry is a ``kind="timer"`` signal; on a world
    with ``ncpus > 1`` those cross from the interrupt CPU to CPU 0 as
    IPI events, shifting delivery relative to the single-CPU world.
    The workers hold the mutex long enough that expiries land inside
    critical sections, so the mutex/cond invariant rules and the
    per-CPU run-queue-disjointness rule all get exercised under the
    IPI-shifted timing.  Completes cleanly under every schedule.
    """

    def main(pt):
        mutex = yield pt.mutex_init()
        box = {"count": 0}
        threads = []
        for __ in range(workers):
            threads.append(
                (yield pt.create(_timer_worker, mutex, box, iterations))
            )
        for thread in threads:
            yield pt.join(thread)
        assert box["count"] == workers * iterations

    return main


def _holding_reader(pt, rw, hold_us):
    yield pt.rwlock_rdlock(rw)
    yield pt.delay_us(hold_us)
    yield pt.rwlock_unlock(rw)


def _brief_writer(pt, rw):
    yield pt.rwlock_wrlock(rw)
    yield pt.rwlock_unlock(rw)


def _canceller(pt, victim):
    yield pt.cancel(victim)


def writer_cancel(hold_us: float = 500.0):
    """Cancel a writer racing a reader through a read-write lock.

    Whether the cancellation lands before the writer registers its
    queue claim, while it waits out the reader, or after it acquired,
    is purely a matter of interleaving -- which is what the explorer
    enumerates.  The fixed library keeps the lock consistent in every
    case; the pre-fix one leaks the claim in the first window.
    """

    def main(pt):
        rw = yield pt.rwlock_init("wc")
        reader = yield pt.create(_holding_reader, rw, hold_us)
        writer = yield pt.create(_brief_writer, rw)
        canceller = yield pt.create(_canceller, writer)
        yield pt.join(canceller)
        yield pt.join(writer)
        yield pt.join(reader)

    return main


def _timed_waiter(pt, mutex, cond, box, timeout_us):
    """Wait on ``cond`` until ``box["go"]``, each wait timed."""
    yield pt.mutex_lock(mutex)
    err = OK
    while not box["go"] and err != ETIMEDOUT:
        err = yield pt.cond_timedwait(cond, mutex, timeout_us)
    box["outcomes"].append(err)
    yield pt.mutex_unlock(mutex)


def _spinner(pt, chunk_us, chunks):
    """Compute without entering the library kernel."""
    for __ in range(chunks):
        yield pt.work_us(chunk_us)


def timed_sleepers(timeout_us: float = 1_000.0):
    """Every way out of a timed wait, each leaving no deadline behind.

    - A ``cond_timedwait`` whose signal and timeout race: by default
      main signals before the waiter's deadline, and a forced switch to
      a computing thread at main's ``yield`` holds the signal back past
      it, so the schedule decides which of the two ends the wait.
    - A user handler interrupting a timed wait with EINTR; the waiter
      waits again and is signalled.
    - A sleep woken half way by its armer's alarm (delivery rule 2),
      the last wait of the run.

    The quiescent ``timer-queue-drained`` rule audits that no library
    deadline outlived its wait.  Completes cleanly under every
    schedule.  With the ``stale-sleep-deadline`` preseed the alarm's
    wake leaves the sleep's deadline queued when the run ends.
    """
    from repro.unix.sigset import SIGUSR1
    from repro.unix.timers import alarm

    def handler(pt, sig):
        return
        yield  # pragma: no cover - makes it a generator

    def main(pt):
        mutex = yield pt.mutex_init()
        cond = yield pt.cond_init()
        box = {"go": False, "outcomes": []}
        # The signal and the timeout race.
        waiter = yield pt.create(
            _timed_waiter, mutex, cond, box, timeout_us
        )
        spinner = yield pt.create(_spinner, timeout_us / 4, 5)
        yield pt.delay_us(timeout_us / 2)
        yield pt.yield_()
        yield pt.mutex_lock(mutex)
        box["go"] = True
        yield pt.cond_signal(cond)
        yield pt.mutex_unlock(mutex)
        yield pt.join(waiter)
        yield pt.join(spinner)
        # A handler interrupts a timed wait.
        yield pt.sigaction(SIGUSR1, handler)
        box["go"] = False
        waiter = yield pt.create(
            _timed_waiter, mutex, cond, box, 10 * timeout_us
        )
        yield pt.delay_us(timeout_us / 2)
        yield pt.kill(waiter, SIGUSR1)
        yield pt.delay_us(timeout_us / 2)
        yield pt.mutex_lock(mutex)
        box["go"] = True
        yield pt.cond_signal(cond)
        yield pt.mutex_unlock(mutex)
        yield pt.join(waiter)
        assert len(box["outcomes"]) == 2
        # The armer's alarm ends the sleep half way.
        rt = pt.runtime
        me = yield pt.self_id()
        alarm(rt.world, rt.unix, rt.proc, timeout_us / 2, armer=me)
        yield pt.delay_us(timeout_us)

    return main
