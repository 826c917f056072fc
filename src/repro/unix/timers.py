"""Interval timers (``setitimer`` / ``alarm``).

A timer expiration posts ``SIGALRM`` with a ``timer`` cause naming the
*armer* -- the token (a thread, in the Pthreads world) that set the
timer.  The library's signal delivery model uses that to direct the
alarm "at the thread which armed the timer" (paper, delivery rule 3),
and the time-slicer uses a recurring timer whose cause is tagged as a
slice expiration (action rule 2).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.hw import costs
from repro.sim.events import Event
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.sigset import SIGALRM
from repro.unix.signals import SigCause

ITIMER_REAL = 0
ITIMER_VIRTUAL = 1


class IntervalTimer:
    """One process's interval timer of a given kind."""

    def __init__(
        self,
        world: World,
        kernel: UnixKernel,
        proc: Any,
        which: int = ITIMER_REAL,
        sig: int = SIGALRM,
    ) -> None:
        if which not in (ITIMER_REAL, ITIMER_VIRTUAL):
            raise ValueError("bad itimer kind: %r" % (which,))
        self._world = world
        self._kernel = kernel
        self._proc = proc
        self._which = which
        self._sig = sig
        self._event: Optional[Event] = None
        self._interval = 0  # cycles; 0 = one-shot
        self._armer: Optional[Any] = None
        self._tag: Optional[str] = None
        self._event_name = "itimer(%d)" % which
        self.expirations = 0

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.fired

    def arm(
        self,
        value_cycles: int,
        interval_cycles: int = 0,
        armer: Optional[Any] = None,
        tag: Optional[str] = None,
    ) -> None:
        """``setitimer``: first expiry after ``value_cycles``, then every
        ``interval_cycles`` (0 disables rearming).

        ``armer`` is recorded in the signal cause; ``tag`` marks special
        uses (the time-slicer passes ``"timeslice"``).
        """
        if value_cycles <= 0:
            raise ValueError("timer value must be positive: %r" % value_cycles)
        self._kernel._enter("setitimer", costs.SYS_SETITIMER)
        self.disarm_quietly()
        self._interval = interval_cycles
        self._armer = armer
        self._tag = tag
        self._schedule(value_cycles)

    def disarm(self) -> None:
        """``setitimer`` with zero value: cancel any pending expiry."""
        self._kernel._enter("setitimer", costs.SYS_SETITIMER)
        self.disarm_quietly()

    def disarm_quietly(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule(self, delay: int) -> None:
        self._event = self._world.schedule_in(
            delay, self._expire, name=self._event_name
        )

    def _expire(self) -> None:
        self.expirations += 1
        self._event = None
        if self._interval > 0:
            self._schedule(self._interval)
        cause = SigCause(kind="timer", thread=self._armer, data=self._tag)
        self._kernel.post_signal(self._proc, self._sig, cause)


def alarm(
    world: World,
    kernel: UnixKernel,
    proc: Any,
    seconds_in_us: float,
    armer: Optional[Any] = None,
) -> IntervalTimer:
    """One-shot ``alarm``-style convenience over :class:`IntervalTimer`."""
    timer = IntervalTimer(world, kernel, proc)
    timer.arm(world.cycles_for_us(seconds_in_us), armer=armer)
    return timer
