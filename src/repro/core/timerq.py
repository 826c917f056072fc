"""The library timer queue.

BSD gives a process *one* pending slot per signal, so a library with
many sleeping threads cannot arm one UNIX timer per sleeper -- closely
spaced expirations would be lost.  Instead the library keeps its own
deadline queue and multiplexes a single ``setitimer`` over it: the UNIX
timer is always armed for the earliest library deadline, and each
SIGALRM delivery wakes *every* due sleeper (delivery-model rule 3:
the alarm is directed at the threads that armed it).

The same queue provides internal timeouts (condition-variable timed
waits, select and epoll_wait timeouts), which therefore flow through
the ordinary signal machinery and respect the monolithic monitor.

The deadlines are a callout table: an
:class:`~repro.sim.events.EventQueue` of the library's own, separate
from the world's event horizon.  Each queued entry is its own
cancellation handle, and every entry in the queue is live, so the
earliest deadline is the queue's horizon.  A wait keeps its entry in
``WaitRecord.timeout``; the runtime's one wake path and one abandon
path drop it, so no deadline outlives its wait.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.errors import EINVAL, OK
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb, WaitRecord
from repro.hw import costs
from repro.sim.events import Entry, EventQueue


class TimerOps(LibraryOps):
    """Entry points and internals for library timing."""

    ENTRIES = {
        "delay_us": "lib_delay_us",
    }

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        self._queue = EventQueue()
        self._armed_for: Optional[int] = None
        self._draining = False
        self.alarms_taken = 0
        #: Sleeper deadlines that fired after their wait had ended: each
        #: one outlived its wait (the ``timer-queue-drained`` rule).
        self.stale_firings = 0

    # -- public: thread sleep ----------------------------------------------------

    def lib_delay_us(self, tcb: Tcb, us: float) -> object:
        """Suspend the calling thread for ``us`` microseconds."""
        rt = self.rt
        if us <= 0:
            return EINVAL
        if tcb.cancel_pending and rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        rt.world.spend(costs.TIMER_TICK)
        record = rt.block_current(kind="delay", obj=None, interruptible=True)
        record.timeout = self._push(
            rt.world.now + rt.world.cycles_for_us(us),
            self._wake_sleeper, (tcb, record),
        )
        rt.kern.leave()
        return BLOCKED

    def _wake_sleeper(self, sleep: Tuple[Tcb, WaitRecord]) -> None:
        """A sleeper's deadline callout: ends the sleep it was queued
        for, and only that one.  Every way out of a wait drops its
        deadline, so a firing whose wait has ended is a deadline that
        outlived its wait: it is counted, and wakes nothing."""
        rt = self.rt
        rt.world.spend(costs.TIMER_TICK)
        tcb, wait = sleep
        if tcb.wait is not wait:
            self.stale_firings += 1
            return
        rt.end_wait(tcb, OK)

    # -- internal timeouts (condvars etc.) ----------------------------------------

    def add_timeout(self, us_from_now: float, action: Callable[[], None]) -> Entry:
        """Queue ``action`` to run (kernel held) after ``us_from_now``;
        returns the queued entry, which :meth:`cancel_timeout` takes."""
        deadline = self.rt.world.now + self.rt.world.cycles_for_us(us_from_now)
        return self._push(deadline, self._run_action, action)

    def _run_action(self, action: Callable[[], None]) -> None:
        """An internal timeout's callout."""
        self.rt.world.spend(costs.TIMER_TICK)
        action()

    def cancel_timeout(self, entry: Entry) -> None:
        """Drop a queued deadline (a no-op once it fired or was dropped).

        When the cancelled entry was the earliest, the UNIX timer is
        armed for a deadline nobody wants any more: if later deadlines
        remain, retarget the timer at the new earliest -- otherwise it
        fires early and the process takes a spurious SIGALRM with
        nothing due.

        When the queue empties the stale one-shot stays armed and only
        ``_armed_for`` is cleared: cancellations arrive on
        signal-delivery paths (condvar wakeups, EINTR'd sleeps) where an
        immediate disarm would cost a ``setitimer`` dearer than the
        single self-cleaning alarm it avoids, and any deadline pushed
        before then retargets the timer anyway.
        """
        queue = self._queue
        if not queue.cancel(entry):
            return
        if queue:
            self._rearm()
        else:
            self._armed_for = None

    # -- queue mechanics ---------------------------------------------------------------

    def _push(self, deadline: int, fn: Callable, arg: object) -> Entry:
        entry = self._queue.post(deadline, fn, arg, "libtimer")
        self._rearm()
        return entry

    def _rearm(self) -> None:
        """Keep the single UNIX timer armed for the earliest deadline."""
        if self._draining:
            # ``on_alarm`` is firing due entries; a callout that queues
            # or cancels a deadline mid-drain must not touch the UNIX
            # timer for entries the drain is about to fire.  One rearm
            # happens when the drain completes.
            return
        rt = self.rt
        earliest = self._queue.next_time()
        if earliest is None:
            if self._armed_for is not None:
                rt.timer.disarm()
                self._armed_for = None
            return
        if self._armed_for == earliest:
            return
        delay = max(earliest - rt.world.now, 1)
        rt.timer.arm(delay, armer=None, tag="libtimer")
        self._armed_for = earliest

    def on_alarm(self) -> None:
        """SIGALRM arrived (kernel flag held): fire every due callout."""
        self.alarms_taken += 1
        self._armed_for = None
        self._draining = True
        try:
            self._queue.fire_due(self.rt.world.now)
        finally:
            self._draining = False
        self._rearm()

    @property
    def pending_count(self) -> int:
        return len(self._queue)
