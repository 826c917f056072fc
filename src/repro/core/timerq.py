"""The library timer queue.

BSD gives a process *one* pending slot per signal, so a library with
many sleeping threads cannot arm one UNIX timer per sleeper -- closely
spaced expirations would be lost.  Instead the library keeps its own
deadline queue and multiplexes a single ``setitimer`` over it: the UNIX
timer is always armed for the earliest library deadline, and each
SIGALRM delivery wakes *every* due sleeper (delivery-model rule 3:
the alarm is directed at the threads that armed it).

The same queue provides internal timeouts (condition-variable timed
waits), which therefore flow through the ordinary signal machinery and
respect the monolithic monitor.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.core.errors import EINVAL, OK
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs


class TimeoutHandle:
    """Cancellable handle for one queued deadline."""

    __slots__ = ("deadline", "seq", "action", "cancelled")

    def __init__(self, deadline: int, seq: int, action: Callable[[], None]):
        self.deadline = deadline
        self.seq = seq
        self.action = action
        self.cancelled = False


class TimerOps(LibraryOps):
    """Entry points and internals for library timing."""

    ENTRIES = {
        "delay_us": "lib_delay_us",
    }

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        self._heap: List[Tuple[int, int, TimeoutHandle]] = []
        self._seq = itertools.count()
        self._armed_for: Optional[int] = None
        self._draining = False
        self.alarms_taken = 0

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
        # One wake-me closure per thread, built on first delay.
        wake = tcb._wake_cb
        if wake is None:
            wake = tcb._wake_cb = lambda: self._wake_sleeper(tcb)
        handle = self._push(rt.world.now + rt.world.cycles_for_us(us), wake)
        record.data["timeout_handle"] = handle
        rt.kern.leave()
        return BLOCKED

    def _wake_sleeper(self, tcb: Tcb) -> None:
        if tcb.wait is None or tcb.wait.kind != "delay":
            return  # woken early (handler or cancellation)
        tcb.wait.deliver(OK)
        self.rt.sched.make_ready(tcb)

    # -- internal timeouts (condvars etc.) ----------------------------------------

    def add_timeout(
        self, us_from_now: float, action: Callable[[], None]
    ) -> TimeoutHandle:
        """Queue ``action`` to run (kernel held) after ``us_from_now``."""
        deadline = self.rt.world.now + self.rt.world.cycles_for_us(us_from_now)
        return self._push(deadline, action)

    def cancel_timeout(self, handle: TimeoutHandle) -> None:
        """Drop a queued deadline.

        When the cancelled entry is at the head of the heap the UNIX
        timer is armed for a deadline nobody wants any more: sweep the
        cancelled heads and, if later deadlines remain, retarget the
        timer at the real earliest -- otherwise it fires early and the
        process takes a spurious SIGALRM with nothing due.

        When the sweep empties the queue the stale one-shot stays
        armed and only ``_armed_for`` is cleared: cancellations arrive
        on signal-delivery paths (condvar wakeups, EINTR'd sleeps)
        where an immediate disarm would cost a ``setitimer`` dearer
        than the single self-cleaning alarm it avoids, and any
        deadline pushed before then retargets the timer anyway.
        """
        handle.cancelled = True
        if self._heap and self._heap[0][2] is handle:
            while self._heap and self._heap[0][2].cancelled:
                heapq.heappop(self._heap)
            if self._heap:
                self._rearm()
            else:
                self._armed_for = None

    # -- queue mechanics ---------------------------------------------------------------

    def _push(self, deadline: int, action: Callable[[], None]) -> TimeoutHandle:
        handle = TimeoutHandle(deadline, next(self._seq), action)
        heapq.heappush(self._heap, (deadline, handle.seq, handle))
        self._rearm()
        return handle

    def _rearm(self) -> None:
        """Keep the single UNIX timer armed for the earliest deadline."""
        if self._draining:
            # ``on_alarm`` is popping due entries; an action that
            # queues or cancels a deadline mid-drain must not touch the
            # UNIX timer for entries the loop is about to pop.  One
            # rearm happens when the drain completes.
            return
        rt = self.rt
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            if self._armed_for is not None:
                rt.timer.disarm()
                self._armed_for = None
            return
        earliest = self._heap[0][0]
        if self._armed_for == earliest:
            return
        delay = max(earliest - rt.world.now, 1)
        rt.timer.arm(delay, armer=None, tag="libtimer")
        self._armed_for = earliest

    def on_alarm(self) -> None:
        """SIGALRM arrived (kernel flag held): wake every due entry."""
        rt = self.rt
        self.alarms_taken += 1
        self._armed_for = None
        self._draining = True
        try:
            now = rt.world.now
            while self._heap and self._heap[0][0] <= now:
                __, __, handle = heapq.heappop(self._heap)
                if handle.cancelled:
                    continue
                rt.world.spend(costs.TIMER_TICK)
                handle.action()
        finally:
            self._draining = False
        self._rearm()

    @property
    def pending_count(self) -> int:
        return sum(1 for __, __, h in self._heap if not h.cancelled)
