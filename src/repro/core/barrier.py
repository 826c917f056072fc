"""Barriers, built on mutexes and condition variables.

Another "on top of these primitives" composition: N threads rendezvous
at the barrier; the last arrival releases everyone and exactly one
caller per cycle receives the *serial* indication (mirroring
``PTHREAD_BARRIER_SERIAL_THREAD``).  Generation counting makes the
barrier reusable and immune to spurious wakeups.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.attr import CondAttr, MutexAttr
from repro.core.errors import EINVAL
from repro.core.libbase import LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs

#: The value exactly one waiter per cycle receives.
BARRIER_SERIAL_THREAD = -1

_barrier_ids = itertools.count(1)


class Barrier:
    """A cyclic barrier for ``count`` participants."""

    def __init__(self, runtime, count: int, name: Optional[str] = None):
        if count < 1:
            raise ValueError("barrier needs at least one participant")
        self.bid = next(_barrier_ids)
        self.name = name or "barrier-%d" % self.bid
        self.count = count
        self.arrived = 0
        self.generation = 0
        self.mutex = runtime.mutex_ops.lib_mutex_init(
            None, MutexAttr(name="%s.mutex" % self.name)
        )
        self.cond = runtime.cond_ops.lib_cond_init(
            None, CondAttr(name="%s.cond" % self.name)
        )
        self.cycles_completed = 0

    def __repr__(self) -> str:
        return "Barrier(%s, %d/%d, gen=%d)" % (
            self.name, self.arrived, self.count, self.generation,
        )


class BarrierOps(LibraryOps):
    """The creation entry point."""

    ENTRIES = {"barrier_init": "lib_barrier_init"}

    def lib_barrier_init(
        self, tcb: Tcb, count: int, name: Optional[str] = None
    ):
        del tcb
        self.rt.world.spend(costs.SEM_OVERHEAD)
        if count < 1:
            return EINVAL
        return Barrier(self.rt, count, name)


def barrier_wait_body(pt, barrier: Barrier):
    """Wait at the barrier.

    Returns :data:`BARRIER_SERIAL_THREAD` for the releasing arrival
    and 0 for everyone else, POSIX style.  Like POSIX's
    ``pthread_barrier_wait``, this is *not* a cancellation point: a
    cancelled arrival would strand the whole party, so cancellation is
    deferred for the duration.
    """
    from repro.core import config as cfg

    yield pt.charge(costs.SEM_OVERHEAD)
    _err, previous_intr = yield pt.setintr(cfg.PTHREAD_INTR_DISABLE)
    result = yield pt.call(_barrier_wait_inner, barrier)
    yield pt.setintr(previous_intr)
    yield pt.testintr()  # act on a cancel that arrived while waiting
    return result


def _barrier_wait_inner(pt, barrier: Barrier):
    yield pt.mutex_lock(barrier.mutex)
    generation = barrier.generation
    barrier.arrived += 1
    if barrier.arrived == barrier.count:
        barrier.arrived = 0
        barrier.generation += 1
        barrier.cycles_completed += 1
        yield pt.cond_broadcast(barrier.cond)
        yield pt.mutex_unlock(barrier.mutex)
        return BARRIER_SERIAL_THREAD
    while barrier.generation == generation:
        yield pt.cond_wait(barrier.cond, barrier.mutex)
    yield pt.mutex_unlock(barrier.mutex)
    return 0
