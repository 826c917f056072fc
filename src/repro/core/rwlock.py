"""Reader-writer locks, built on mutexes and condition variables.

The paper notes that "other synchronization methods ... can be easily
implemented on top of these primitives"; semaphores are its example.
Reader-writer locks are the other classic composition and round out
the library.  Writer-preference: arriving writers block new readers,
so writers cannot starve (the policy real Pthreads rwlocks adopted).

Like the semaphore bodies, these are library-level generator routines
over the primitive entry points::

    rw = yield pt.rwlock_init()
    yield pt.rwlock_rdlock(rw)
    ...
    yield pt.rwlock_unlock(rw)
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.attr import CondAttr, MutexAttr
from repro.core.errors import EPERM, OK
from repro.core.libbase import LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs

_rw_ids = itertools.count(1)


class RwLock:
    """State: >0 readers inside, or one writer; waiting counts."""

    def __init__(self, runtime, name: Optional[str] = None) -> None:
        self.rwid = next(_rw_ids)
        self.name = name or "rwlock-%d" % self.rwid
        self.mutex = runtime.mutex_ops.lib_mutex_init(
            None, MutexAttr(name="%s.mutex" % self.name)
        )
        self.readers_cond = runtime.cond_ops.lib_cond_init(
            None, CondAttr(name="%s.readers" % self.name)
        )
        self.writers_cond = runtime.cond_ops.lib_cond_init(
            None, CondAttr(name="%s.writers" % self.name)
        )
        self.active_readers = 0
        self.active_writer: Optional[Tcb] = None
        self.waiting_writers = 0
        # Statistics.
        self.read_acquisitions = 0
        self.write_acquisitions = 0

    def __repr__(self) -> str:
        return "RwLock(%s, readers=%d, writer=%s, ww=%d)" % (
            self.name,
            self.active_readers,
            self.active_writer.name if self.active_writer else None,
            self.waiting_writers,
        )


class RwLockOps(LibraryOps):
    """The creation entry point (the lock/unlock paths are generator
    compositions, exposed through the PT facade)."""

    ENTRIES = {"rwlock_init": "lib_rwlock_init"}

    def lib_rwlock_init(self, tcb: Tcb, name: Optional[str] = None) -> RwLock:
        del tcb
        self.rt.world.spend(costs.SEM_OVERHEAD)
        rw = RwLock(self.rt, name)
        check = self.rt.check
        if check is not None:
            check.register_rwlock(rw)
        return rw


def _unlock_cleanup(pt, mutex):
    """Cleanup: release the internal mutex if cancelled mid-wait."""
    yield pt.mutex_unlock(mutex)


def _writer_cancel_cleanup(pt, arg):
    """Cleanup for a cancelled writer: withdraw its queue claim (only
    if it was actually registered -- the claim flag travels with the
    handler so a cancellation landing before the increment, or after
    the decrement, cannot unbalance ``waiting_writers``), let blocked
    readers through if it was the last writer, and release the internal
    mutex (reacquired by the cancellation machinery)."""
    rw, claim = arg
    if claim[0]:
        claim[0] = False
        rw.waiting_writers -= 1
        if rw.waiting_writers == 0 and rw.active_writer is None:
            yield pt.cond_broadcast(rw.readers_cond)
    yield pt.mutex_unlock(rw.mutex)


def rdlock_body(pt, rw: RwLock):
    """Acquire for reading; blocks while a writer is active/waiting.

    A cancellation point; cancellation leaves the lock consistent.
    """
    yield pt.charge(costs.SEM_OVERHEAD)
    yield pt.mutex_lock(rw.mutex)
    yield pt.cleanup_push(_unlock_cleanup, rw.mutex)
    # Writer preference: also wait out queued writers.
    while rw.active_writer is not None or rw.waiting_writers > 0:
        yield pt.cond_wait(rw.readers_cond, rw.mutex)
    rw.active_readers += 1
    rw.read_acquisitions += 1
    yield pt.cleanup_pop(False)
    yield pt.mutex_unlock(rw.mutex)
    return OK


def wrlock_body(pt, rw: RwLock):
    """Acquire for writing; exclusive.

    A cancellation point; a cancelled waiter withdraws its queue claim
    so readers it was blocking can proceed.
    """
    yield pt.charge(costs.SEM_OVERHEAD)
    me = yield pt.self_id()
    yield pt.mutex_lock(rw.mutex)
    # Install the cleanup handler *before* taking the queue claim: a
    # cancellation landing between the two would otherwise leak a
    # ``waiting_writers`` claim and block readers forever.  The claim
    # flag tells the handler whether the claim is live.
    claim = [False]
    yield pt.cleanup_push(_writer_cancel_cleanup, (rw, claim))
    claim[0] = True
    rw.waiting_writers += 1
    while rw.active_writer is not None or rw.active_readers > 0:
        yield pt.cond_wait(rw.writers_cond, rw.mutex)
    rw.waiting_writers -= 1
    claim[0] = False
    rw.active_writer = me
    rw.write_acquisitions += 1
    yield pt.cleanup_pop(False)
    yield pt.mutex_unlock(rw.mutex)
    return OK


def unlock_body(pt, rw: RwLock):
    """Release either mode; wakes writers first (preference)."""
    yield pt.charge(costs.SEM_OVERHEAD)
    me = yield pt.self_id()
    yield pt.mutex_lock(rw.mutex)
    if rw.active_writer is me:
        rw.active_writer = None
    elif rw.active_readers > 0:
        rw.active_readers -= 1
    else:
        yield pt.mutex_unlock(rw.mutex)
        return EPERM
    if rw.active_readers == 0 and rw.active_writer is None:
        if rw.waiting_writers > 0:
            yield pt.cond_signal(rw.writers_cond)
        else:
            yield pt.cond_broadcast(rw.readers_cond)
    yield pt.mutex_unlock(rw.mutex)
    return OK
