"""Mutexes.

The uncontended path is the paper's Figure 4: a seven-instruction
restartable atomic sequence -- ``ldstub`` test-and-set followed by
recording the owner -- executed *without entering the library kernel*,
which is what makes the "mutex lock/unlock, no contention" row of
Table 2 an order of magnitude cheaper than any kernel-based
synchronisation.  Contention falls into the kernel: the waiter joins a
priority-ordered queue (optionally boosting the owner, per protocol)
and the unlocker hands the mutex directly to the highest-priority
waiter.

The paper's observation that "the implementation of different
protocols compromises efficiency ... a simple mutex lock could have
been implemented with a test-and-set but it now requires an additional
check of the attributes" is visible here as the ``protocol_check``
charge on every operation.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.core import config as cfg
from repro.core.attr import MutexAttr
from repro.core.errors import EBUSY, EDEADLK, EINVAL, EPERM, OK
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.queues import PrioWaitQueue
from repro.core.tcb import Tcb
from repro.hw import costs
from repro.hw.atomic import AtomicCell, RestartableSequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime

_mutex_ids = itertools.count(1)


class Mutex:
    """A Pthreads mutex object."""

    def __init__(
        self, runtime: "PthreadsRuntime", attr: Optional[MutexAttr] = None
    ) -> None:
        attr = (attr or MutexAttr()).validated()
        self.mid = next(_mutex_ids)
        self.name = attr.name or "mutex-%d" % self.mid
        self.protocol = attr.protocol
        self.prioceiling = attr.prioceiling
        self.cell = AtomicCell(0)  # the ldstub target byte
        self.owner: Optional[Tcb] = None
        self.waiters = PrioWaitQueue()
        self.destroyed = False
        # Figure 4: the lock sequence is restartable so the owner store
        # commits atomically with the test-and-set.
        self.lock_sequence = RestartableSequence(
            runtime.world.clock, runtime.world.model, name=self.name
        )
        # Statistics for the protocol benchmarks.  Each counter has a
        # run-wide twin on :class:`MutexOps`; the invariant (checked by
        # ``repro.check``) is that the per-mutex counts sum to the
        # run-wide ones.
        self.contentions = 0
        self.acquisitions = 0
        self.handoffs = 0

    @property
    def locked(self) -> bool:
        return self.cell.value != 0

    def __repr__(self) -> str:
        return "Mutex(%s, %s, owner=%s, waiters=%d)" % (
            self.name,
            self.protocol,
            self.owner.name if self.owner else None,
            len(self.waiters),
        )


class MutexOps(LibraryOps):
    """Entry points for mutex operations."""

    ENTRIES = {
        "mutex_init": "lib_mutex_init",
        "mutex_destroy": "lib_mutex_destroy",
        "mutex_lock": "lib_mutex_lock",
        "mutex_trylock": "lib_mutex_trylock",
        "mutex_unlock": "lib_mutex_unlock",
        "mutex_setprioceiling": "lib_mutex_setprioceiling",
        "mutex_getprioceiling": "lib_mutex_getprioceiling",
    }

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        super().__init__(runtime)
        #: Run-wide totals (per-mutex counts live on each Mutex, but
        #: mutexes are not enumerable from the runtime; these feed the
        #: observability harvest).
        self.contentions = 0
        self.handoffs = 0

    # -- lifecycle ----------------------------------------------------------------

    def lib_mutex_init(
        self, tcb: Tcb, attr: Optional[MutexAttr] = None
    ) -> Mutex:
        del tcb
        self.rt.world.spend(costs.ATTR_OP)
        mutex = Mutex(self.rt, attr)
        check = self.rt.check
        if check is not None:
            check.register_mutex(mutex)
        return mutex

    def lib_mutex_destroy(self, tcb: Tcb, mutex: Mutex) -> int:
        del tcb
        self.rt.world.spend(costs.ATTR_OP)
        if mutex.destroyed:
            return EINVAL
        if mutex.locked or mutex.waiters:
            return EBUSY
        mutex.destroyed = True
        return OK

    # -- lock ----------------------------------------------------------------------

    def lib_mutex_lock(self, tcb: Tcb, mutex: Mutex) -> int:
        rt = self.rt
        if mutex.destroyed:
            return EINVAL
        rt.world.spend(costs.PROTOCOL_CHECK)
        if (
            mutex.protocol == cfg.PRIO_PROTECT
            and tcb.base_priority > mutex.prioceiling
        ):
            # The paper: locking above the ceiling should be an error,
            # otherwise the protocol's bound is void.
            return EINVAL
        if mutex.owner is tcb:
            return EDEADLK
        if self._try_fast_acquire(tcb, mutex):
            self._after_acquire(tcb, mutex)
            return OK
        return self._lock_slow(tcb, mutex)

    def lib_mutex_trylock(self, tcb: Tcb, mutex: Mutex) -> int:
        rt = self.rt
        if mutex.destroyed:
            return EINVAL
        rt.world.spend(costs.PROTOCOL_CHECK)
        if (
            mutex.protocol == cfg.PRIO_PROTECT
            and tcb.base_priority > mutex.prioceiling
        ):
            return EINVAL
        if mutex.owner is tcb:
            return EDEADLK
        if self._try_fast_acquire(tcb, mutex):
            self._after_acquire(tcb, mutex)
            return OK
        return EBUSY

    def _try_fast_acquire(self, tcb: Tcb, mutex: Mutex) -> bool:
        """Figure 4: ldstub + record owner, as a restartable sequence."""
        world = self.rt.world
        world.spend(costs.MUTEX_FAST_LOCK)
        seq = mutex.lock_sequence
        if seq.interrupt_hook is None:
            # No interruption source: the sequence below cannot restart,
            # so charge its seven instructions in one advance and perform
            # the two stores directly.  Identical virtual time and
            # identical final state (a clock watcher sees one advance of
            # seven instructions, keyed INSN like each of them).
            seq.runs += 1
            world.clock.advance(seq._insn * 7, costs.INSN)
            old = mutex.cell.value
            mutex.cell.value = 0xFF
            if old == 0:
                mutex.owner = tcb
            return old == 0
        state = {}

        def _ldstub():
            state["old"] = mutex.cell.value
            mutex.cell.value = 0xFF

        def _store_owner():
            if state["old"] == 0:
                mutex.owner = tcb
            return state["old"]

        old = mutex.lock_sequence.run(
            [
                _ldstub,  # ldstub [%o0+mutex_lock],%o1
                lambda: None,  # tst %o1
                lambda: None,  # bne mutex_locked
                lambda: None,  # sethi %hi(_kern),%o1
                lambda: None,  # or %o1,%lo(_kern),%o1
                lambda: None,  # ld [%o1+pthread_self],%o1
                _store_owner,  # st %o1,[%o0+mutex_owner]
            ],
            # The ldstub is irreversible: interruption after it rolls
            # forward (the owner store is completed, never skipped).
            commit_index=1,
        )
        return old == 0

    def _after_acquire(self, tcb: Tcb, mutex: Mutex) -> None:
        rt = self.rt
        mutex.acquisitions += 1
        rt.protocols.on_acquired(tcb, mutex)
        if rt.world.trace is not None:
            rt.world.emit("mutex-lock", thread=tcb.name, mutex=mutex.name)
        policy = rt.policy
        if policy is not None:
            policy.on_mutex_acquired(rt)

    def _lock_slow(self, tcb: Tcb, mutex: Mutex) -> object:
        """Contended: queue up (priority order), boost owner, block."""
        rt = self.rt
        rt.kern.enter()
        rt.world.spend(costs.MUTEX_SLOW_EXTRA)
        if not mutex.locked:
            # The owner released between our ldstub and kernel entry
            # (cannot happen in the serial simulation, but the retest
            # is part of the real code path's shape).
            mutex.cell.value = 0xFF
            mutex.owner = tcb
            rt.kern.leave()
            self._after_acquire(tcb, mutex)
            return OK
        mutex.contentions += 1
        self.contentions += 1
        mutex.waiters.add(tcb)
        rt.protocols.on_contention(tcb, mutex)
        rt.world.emit(
            "mutex-contention", thread=tcb.name, mutex=mutex.name,
            owner=mutex.owner.name if mutex.owner else None,
        )
        # Mutex waits are not interruptible: the mutex must be in a
        # deterministic state when cleanup handlers run (paper).
        rt.block_current(
            kind="mutex",
            obj=mutex,
            interruptible=False,
            teardown=lambda: mutex.waiters.remove(tcb),
        )
        rt.kern.leave()
        return BLOCKED

    # -- unlock ----------------------------------------------------------------------

    def lib_mutex_unlock(self, tcb: Tcb, mutex: Mutex) -> int:
        rt = self.rt
        if mutex.destroyed:
            return EINVAL
        world = rt.world
        world.spend(costs.PROTOCOL_CHECK)
        if mutex.owner is not tcb:
            return EPERM
        if not mutex.waiters and mutex.protocol == cfg.PRIO_NONE:
            # Uncontended, no protocol: clear the byte and go.
            world.spend(costs.MUTEX_FAST_UNLOCK)
            mutex.cell.value = 0
            mutex.owner = None
            rt.protocols.on_released(tcb, mutex)
            if world.trace is not None:
                world.emit(
                    "mutex-unlock", thread=tcb.name, mutex=mutex.name
                )
            return OK
        rt.kern.enter()
        world.spend(costs.MUTEX_FAST_UNLOCK)
        self.unlock_locked(tcb, mutex)
        rt.kern.leave()
        return OK

    def unlock_locked(self, tcb: Tcb, mutex: Mutex) -> None:
        """Release ``mutex`` with the kernel flag held.

        Also used internally by condition variables (atomic
        unlock-and-wait).
        """
        rt = self.rt
        if rt.world.trace is not None:
            rt.world.emit("mutex-unlock", thread=tcb.name, mutex=mutex.name)
        rt.protocols.on_released(tcb, mutex)
        heir = mutex.waiters.pop_highest()
        if heir is None:
            mutex.cell.value = 0
            mutex.owner = None
            return
        # Hand the mutex directly to the highest-priority waiter: the
        # cell stays set, ownership transfers.
        rt.world.spend(costs.MUTEX_TRANSFER)
        self.handoffs += 1
        mutex.handoffs += 1
        mutex.owner = heir
        mutex.acquisitions += 1
        rt.protocols.on_acquired(heir, mutex)
        result = OK
        if heir.wait is not None:
            result = heir.wait.data.get("result", OK)
            heir.wait.deliver(result)
        rt.sched.make_ready(heir)
        if rt.world.trace is not None:
            rt.world.emit("mutex-transfer", mutex=mutex.name, to=heir.name)

    def grant_to_waker(self, tcb: Tcb, mutex: Mutex, result: int) -> bool:
        """Try to hand ``mutex`` to ``tcb`` (a condvar waker path).

        With the kernel flag held: if the mutex is free, ``tcb``
        acquires it and becomes ready (its blocked call returns
        ``result``); otherwise ``tcb`` joins the waiter queue and will
        get ``result`` when the mutex is handed over.  Returns True if
        acquired immediately.
        """
        rt = self.rt
        from repro.core.tcb import WaitRecord

        if not mutex.locked:
            mutex.cell.value = 0xFF
            mutex.owner = tcb
            mutex.acquisitions += 1
            rt.protocols.on_acquired(tcb, mutex)
            if tcb.wait is not None:
                tcb.wait.deliver(result)
            rt.sched.make_ready(tcb)
            return True
        record = WaitRecord(
            kind="mutex",
            obj=mutex,
            frame=tcb.wait.frame if tcb.wait else tcb.frames.top,
            since=rt.world.now,
            interruptible=False,
            teardown=lambda: mutex.waiters.remove(tcb),
            data={"result": result},
        )
        tcb.wait = record
        mutex.waiters.add(tcb)
        # Count the blocked reacquisition on both the mutex and the
        # run-wide total, exactly as the ordinary slow path does; the
        # hand-over it eventually receives is counted by unlock_locked.
        mutex.contentions += 1
        self.contentions += 1
        rt.protocols.on_contention(tcb, mutex)
        return False

    # -- ceilings ---------------------------------------------------------------------

    def lib_mutex_setprioceiling(
        self, tcb: Tcb, mutex: Mutex, ceiling: int
    ) -> tuple:
        del tcb
        self.rt.world.spend(costs.ATTR_OP)
        try:
            cfg.check_priority(ceiling)
        except ValueError:
            return (EINVAL, mutex.prioceiling)
        if mutex.locked:
            return (EBUSY, mutex.prioceiling)
        old = mutex.prioceiling
        mutex.prioceiling = ceiling
        return (OK, old)

    def lib_mutex_getprioceiling(self, tcb: Tcb, mutex: Mutex) -> int:
        del tcb
        self.rt.world.spend(costs.ATTR_OP)
        return mutex.prioceiling
