"""Condition variables.

``cond_wait`` atomically unlocks the associated mutex and suspends; the
mutex is reacquired before the call returns, so the mutex is always in
a known state -- even when signals interrupt the wait, because the
fake-call wrapper reacquires it before any user handler runs (paper,
"Synchronization" and "Fake Calls").

``cond_signal`` readies the highest-priority waiter.  If the mutex is
still held the woken thread moves straight onto the mutex queue (the
"atomically relocked" half of the contract); the waiting call returns
only with the mutex held.

Timed waits go through the library timer queue, so timeouts arrive via
the ordinary SIGALRM machinery and respect the monolithic monitor.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.core.attr import CondAttr
from repro.core.errors import EBUSY, EINVAL, EPERM, ETIMEDOUT, OK
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.queues import PrioWaitQueue
from repro.core.tcb import Tcb
from repro.hw import costs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mutex import Mutex

_cond_ids = itertools.count(1)


class Cond:
    """A Pthreads condition variable."""

    def __init__(self, attr: Optional[CondAttr] = None) -> None:
        attr = (attr or CondAttr()).validated()
        self.cid = next(_cond_ids)
        self.name = attr.name or "cond-%d" % self.cid
        self.waiters = PrioWaitQueue()
        #: The mutex current waiters used (must be consistent).
        self.bound_mutex: Optional["Mutex"] = None
        self.destroyed = False
        self.signals_sent = 0
        self.broadcasts_sent = 0

    def __repr__(self) -> str:
        return "Cond(%s, waiters=%d)" % (self.name, len(self.waiters))


class CondOps(LibraryOps):
    """Entry points for condition variables."""

    def __init__(self, runtime) -> None:
        super().__init__(runtime)

    ENTRIES = {
        "cond_init": "lib_cond_init",
        "cond_destroy": "lib_cond_destroy",
        "cond_wait": "lib_cond_wait",
        "cond_timedwait": "lib_cond_timedwait",
        "cond_signal": "lib_cond_signal",
        "cond_broadcast": "lib_cond_broadcast",
    }

    def lib_cond_init(self, tcb: Tcb, attr: Optional[CondAttr] = None) -> Cond:
        del tcb
        self.rt.world.spend(costs.ATTR_OP)
        cond = Cond(attr)
        check = self.rt.check
        if check is not None:
            check.register_cond(cond)
        return cond

    def lib_cond_destroy(self, tcb: Tcb, cond: Cond) -> int:
        del tcb
        self.rt.world.spend(costs.ATTR_OP)
        if cond.destroyed:
            return EINVAL
        if cond.waiters:
            return EBUSY
        cond.destroyed = True
        return OK

    # -- waiting -----------------------------------------------------------------

    def lib_cond_wait(self, tcb: Tcb, cond: Cond, mutex: "Mutex") -> object:
        return self._wait_common(tcb, cond, mutex, timeout_us=None)

    def lib_cond_timedwait(
        self, tcb: Tcb, cond: Cond, mutex: "Mutex", timeout_us: float
    ) -> object:
        if timeout_us <= 0:
            # POSIX: an abstime already in the past is a *timeout*, not
            # a usage error -- validate, honour the cancellation point,
            # and return ETIMEDOUT with the mutex still held.
            rt = self.rt
            if cond.destroyed:
                return EINVAL
            if mutex.owner is not tcb:
                return EPERM
            if rt.cancel_ops.act_if_pending(tcb):
                return BLOCKED
            rt.world.spend(costs.COND_WAIT_SETUP)
            return ETIMEDOUT
        return self._wait_common(tcb, cond, mutex, timeout_us=timeout_us)

    def _wait_common(
        self,
        tcb: Tcb,
        cond: Cond,
        mutex: "Mutex",
        timeout_us: Optional[float],
    ) -> object:
        rt = self.rt
        if cond.destroyed:
            return EINVAL
        if mutex.owner is not tcb:
            return EPERM
        if cond.waiters and cond.bound_mutex is not mutex:
            return EINVAL  # concurrent waits must share one mutex
        # A conditional wait is an interruption point: act on a pending
        # cancellation before giving up the mutex.
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        world = rt.world
        world.spend(costs.COND_WAIT_SETUP)
        cond.bound_mutex = mutex
        cond.waiters.add(tcb)
        record = rt.block_current(
            kind="cond",
            obj=cond,
            interruptible=True,
            teardown=lambda: cond.waiters.remove(tcb),
            mutex=mutex,
        )
        if timeout_us is not None:
            record.timeout = rt.timer_ops.add_timeout(
                timeout_us, lambda: self._timeout_fire(tcb, cond, mutex)
            )
        # Atomic with the suspension: release the mutex (which may hand
        # it straight to a waiter).
        rt.mutex_ops.unlock_locked(tcb, mutex)
        if world.trace is not None:
            world.emit("cond-wait", thread=tcb.name, cond=cond.name)
        rt.kern.leave()
        return BLOCKED

    def _timeout_fire(self, tcb: Tcb, cond: Cond, mutex: "Mutex") -> None:
        """Timer-queue callback (kernel flag held)."""
        if tcb.wait is None or tcb.wait.kind != "cond" or tcb.wait.obj is not cond:
            return  # already woken; stale timeout
        cond.waiters.remove(tcb)
        self.rt.world.emit("cond-timeout", thread=tcb.name, cond=cond.name)
        self.rt.mutex_ops.grant_to_waker(tcb, mutex, ETIMEDOUT)

    # -- waking ---------------------------------------------------------------------

    def lib_cond_signal(self, tcb: Tcb, cond: Cond) -> int:
        rt = self.rt
        if cond.destroyed:
            return EINVAL
        rt.kern.enter()
        rt.world.spend(costs.COND_SIGNAL_WORK)
        cond.signals_sent += 1
        self._wake_one(cond)
        rt.kern.leave()
        del tcb
        return OK

    def lib_cond_broadcast(self, tcb: Tcb, cond: Cond) -> int:
        rt = self.rt
        if cond.destroyed:
            return EINVAL
        rt.kern.enter()
        cond.broadcasts_sent += 1
        while cond.waiters:
            rt.world.spend(costs.COND_SIGNAL_WORK)
            self._wake_one(cond)
        rt.kern.leave()
        del tcb
        return OK

    def _wake_one(self, cond: Cond) -> None:
        """Move the highest-priority waiter toward mutex reacquisition."""
        rt = self.rt
        waiter = cond.waiters.pop_highest()
        if waiter is None:
            return
        record = waiter.wait
        mutex = None
        if record is not None:
            mutex = record.mutex
            # The cond wait ends here even when the waker queues it on
            # the mutex: its deadline goes before the hand-over.
            if record.timeout is not None:
                rt.drop_deadline(record)
        if rt.world.trace is not None:
            rt.world.emit("cond-wake", thread=waiter.name, cond=cond.name)
        if mutex is None:
            rt.end_wait(waiter, OK)
            return
        rt.mutex_ops.grant_to_waker(waiter, mutex, OK)
