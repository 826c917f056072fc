"""Re-seed fixed bugs so the checker can demonstrate finding them.

The schedule-exploration harness earned its keep by catching real
latent bugs (since fixed in :mod:`repro.core`).  This module puts the
pre-fix code back -- temporarily, under a context manager -- so tests
and the CLI can demonstrate, on demand, that the explorer still finds
them.  Each entry reinstates the shipped pre-fix logic; where the
original hazard window sat *between* two operations that this
simulator executes atomically (plain statements glue to the following
library call), the window is made reachable again with an explicit
``pthread_testintr`` cancellation point, which any real preemption or
longer code path would provide for free.

Known bugs:

- ``grant-to-waker``: the condvar waker path queued a woken thread on
  a held mutex bumping only the run-wide contention counter, never the
  per-mutex one.  Caught by the ``mutex-counter-agreement`` rule.
- ``stale-sleep-deadline``: delivery rule 2 (an alarm readies its
  sleeping armer) ended the sleep without dropping the sleep's own
  timer-queue deadline, which outlived the wait (and, before a
  sleeper's callout checked for its own wait, woke the thread's next
  sleep early).  Caught by the quiescent ``timer-queue-drained`` rule,
  as a deadline still queued or as one that fired after its wait.
- ``wrlock-cancel``: the writer-lock path claimed ``waiting_writers``
  *before* registering the cleanup handler that withdraws the claim
  (and releases the internal mutex).  A cancellation landing in that
  window kills the writer with the claim leaked and the mutex held.
  Caught by ``mutex-owner-dead`` (and, if the run limps to the end,
  the quiescent rules).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core import rwlock as _rwlock_mod
from repro.core.errors import OK
from repro.core.mutex import MutexOps
from repro.core.sigdeliver import SignalDelivery
from repro.core.tcb import Tcb, WaitRecord
from repro.hw import costs


def _prefix_grant_to_waker(self, tcb: Tcb, mutex, result: int) -> bool:
    """The pre-fix waker path: run-wide counter only (asymmetric)."""
    rt = self.rt
    if not mutex.locked:
        mutex.cell.value = 0xFF
        mutex.owner = tcb
        mutex.acquisitions += 1
        rt.protocols.on_acquired(tcb, mutex)
        rt.end_wait(tcb, result)
        return True
    record = WaitRecord(
        kind="mutex",
        obj=mutex,
        frame=tcb.wait.frame if tcb.wait else tcb.frames.top,
        since=rt.world.now,
        interruptible=False,
        teardown=lambda: mutex.waiters.remove(tcb),
        result=result,
    )
    tcb.wait = record
    mutex.waiters.add(tcb)
    self.contentions += 1  # the bug: mutex.contentions not bumped
    rt.protocols.on_contention(tcb, mutex)
    return False


def _prefix_wake_armer(self, tcb: Tcb) -> None:
    """The pre-fix rule-2 wake: readies the sleeper, keeps its deadline."""
    if tcb.wait is not None and tcb.wait.kind == "delay":
        tcb.wait.deliver(OK)
        self.rt.sched.make_ready(tcb)


def _prefix_writer_cancel_cleanup(pt, rw):
    """Pre-fix cleanup: withdraws the claim unconditionally."""
    rw.waiting_writers -= 1
    if rw.waiting_writers == 0 and rw.active_writer is None:
        yield pt.cond_broadcast(rw.readers_cond)
    yield pt.mutex_unlock(rw.mutex)


def _prefix_wrlock_body(pt, rw):
    """Pre-fix writer lock: claim registered before its cleanup.

    The ``testintr`` makes the original hazard window (claim taken,
    cleanup not yet pushed, internal mutex held) reachable under this
    simulator's step atomicity; see the module docstring.
    """
    yield pt.charge(costs.SEM_OVERHEAD)
    me = yield pt.self_id()
    yield pt.mutex_lock(rw.mutex)
    rw.waiting_writers += 1
    yield pt.testintr()  # the window: cancellation here leaks the claim
    yield pt.cleanup_push(_prefix_writer_cancel_cleanup, rw)
    while rw.active_writer is not None or rw.active_readers > 0:
        yield pt.cond_wait(rw.writers_cond, rw.mutex)
    rw.waiting_writers -= 1
    rw.active_writer = me
    rw.write_acquisitions += 1
    yield pt.cleanup_pop(False)
    yield pt.mutex_unlock(rw.mutex)
    return OK


def _seed_grant_to_waker():
    original = MutexOps.grant_to_waker
    MutexOps.grant_to_waker = _prefix_grant_to_waker
    return lambda: setattr(MutexOps, "grant_to_waker", original)


def _seed_stale_sleep_deadline():
    original = SignalDelivery._wake_armer
    SignalDelivery._wake_armer = _prefix_wake_armer
    return lambda: setattr(SignalDelivery, "_wake_armer", original)


def _seed_wrlock_cancel():
    original = _rwlock_mod.wrlock_body
    # The PT facade resolves the body from the module at call time, so
    # swapping the module attribute reroutes every new wrlock call.
    _rwlock_mod.wrlock_body = _prefix_wrlock_body
    return lambda: setattr(_rwlock_mod, "wrlock_body", original)


BUGS = {
    "grant-to-waker": _seed_grant_to_waker,
    "stale-sleep-deadline": _seed_stale_sleep_deadline,
    "wrlock-cancel": _seed_wrlock_cancel,
}


@contextmanager
def preseeded(bug: Optional[str]) -> Iterator[None]:
    """Temporarily reinstate a fixed bug (None is a no-op)."""
    if bug is None:
        yield
        return
    try:
        seeder = BUGS[bug]
    except KeyError:
        raise ValueError(
            "unknown bug %r (have: %s)" % (bug, ", ".join(sorted(BUGS)))
        )
    restore = seeder()
    try:
        yield
    finally:
        restore()
