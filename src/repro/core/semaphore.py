"""Counting semaphores, built on mutexes and condition variables.

The paper: "Other synchronization methods such as counting semaphores
can be easily implemented on top of these primitives [17]" -- and Table
2 times exactly that construction ("semaphore synchronization refers to
one Dijkstra P operation plus one V operation").  Accordingly the P/V
bodies here are *library-level generator routines* composed from the
mutex and condvar entry points, not new primitives.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.attr import CondAttr, MutexAttr
from repro.core.errors import EAGAIN, EBUSY, EINVAL, OK
from repro.core.libbase import LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs

_sem_ids = itertools.count(1)


class Semaphore:
    """A counting semaphore: a count guarded by a mutex + condvar."""

    def __init__(self, runtime, value: int = 0, name: Optional[str] = None):
        if value < 0:
            raise ValueError("semaphore value must be >= 0: %r" % value)
        self.sid = next(_sem_ids)
        self.name = name or "sem-%d" % self.sid
        self.count = value
        self.mutex = runtime.mutex_ops.lib_mutex_init(
            None, MutexAttr(name="%s.mutex" % self.name)
        )
        self.cond = runtime.cond_ops.lib_cond_init(
            None, CondAttr(name="%s.cond" % self.name)
        )
        self.waits = 0
        self.posts = 0

    def __repr__(self) -> str:
        return "Semaphore(%s, count=%d)" % (self.name, self.count)


class SemOps(LibraryOps):
    """Semaphore creation and the non-blocking queries.

    The blocking P operation is the generator
    :func:`sem_wait_body`, composed from mutex/cond calls exactly as
    the paper's library does; the facade exposes it as ``pt.sem_wait``.
    """

    ENTRIES = {
        "sem_init": "lib_sem_init",
        "sem_destroy": "lib_sem_destroy",
        "sem_trywait": "lib_sem_trywait",
        "sem_getvalue": "lib_sem_getvalue",
    }

    def lib_sem_init(
        self, tcb: Tcb, value: int = 0, name: Optional[str] = None
    ) -> Semaphore:
        del tcb
        self.rt.world.spend(costs.SEM_OVERHEAD)
        sem = Semaphore(self.rt, value=value, name=name)
        check = self.rt.check
        if check is not None:
            check.register_sem(sem)
        return sem

    def lib_sem_destroy(self, tcb: Tcb, sem: Semaphore) -> int:
        """Destroy both components, or neither.

        Validating before mutating matters: destroying the condvar
        first and then failing the mutex destroy (EBUSY) would leave
        the semaphore half-destroyed and permanently unusable.
        """
        rt = self.rt
        rt.world.spend(costs.ATTR_OP)
        if sem.cond.destroyed or sem.mutex.destroyed:
            return EINVAL
        if sem.cond.waiters or sem.mutex.locked or sem.mutex.waiters:
            return EBUSY
        # Both destroys are now guaranteed to succeed.
        err = rt.cond_ops.lib_cond_destroy(tcb, sem.cond)
        assert err == OK
        err = rt.mutex_ops.lib_mutex_destroy(tcb, sem.mutex)
        assert err == OK
        return OK

    def lib_sem_trywait(self, tcb: Tcb, sem: Semaphore) -> int:
        """Non-blocking P: EAGAIN when the count is zero or another
        thread holds the semaphore's mutex (inside a P or V)."""
        rt = self.rt
        err = rt.mutex_ops.lib_mutex_trylock(tcb, sem.mutex)
        if err == EBUSY:
            return EAGAIN
        if err != OK:
            return err
        rt.world.spend(costs.SEM_OVERHEAD)
        if sem.count > 0:
            sem.count -= 1
            result = OK
        else:
            result = EAGAIN
        rt.mutex_ops.lib_mutex_unlock(tcb, sem.mutex)
        return result

    def lib_sem_getvalue(self, tcb: Tcb, sem: Semaphore) -> int:
        del tcb
        self.rt.world.spend(costs.INSN, times=2)
        return sem.count


def _unlock_cleanup(pt, mutex):
    """Cleanup handler: release a mutex held across a cancellable wait
    (the standard libc pattern -- cancellation inside the cond wait
    reacquires the mutex, and this hands it back)."""
    yield pt.mutex_unlock(mutex)


def sem_wait_body(pt, sem: Semaphore):
    """Dijkstra P, composed from the primitives (paper ref [17]).

    A cancellation point: cancellation while blocked leaves the
    semaphore consistent (count untouched, mutex released by the
    cleanup handler).
    """
    yield pt.charge(costs.SEM_OVERHEAD)
    err = yield pt.mutex_lock(sem.mutex)
    if err != OK:
        return err
    yield pt.cleanup_push(_unlock_cleanup, sem.mutex)
    sem.waits += 1
    while sem.count == 0:
        # The wait can return spuriously or with EINTR (a handler
        # interrupted it; the wrapper reacquired the mutex).  Either
        # way the predicate is re-evaluated, as POSIX demands.
        yield pt.cond_wait(sem.cond, sem.mutex)
    sem.count -= 1
    yield pt.cleanup_pop(False)
    yield pt.mutex_unlock(sem.mutex)
    return OK


def sem_post_body(pt, sem: Semaphore):
    """Dijkstra V, composed from the primitives."""
    yield pt.charge(costs.SEM_OVERHEAD)
    err = yield pt.mutex_lock(sem.mutex)
    if err != OK:
        return err
    sem.posts += 1
    sem.count += 1
    yield pt.cond_signal(sem.cond)
    yield pt.mutex_unlock(sem.mutex)
    return OK
