"""The virtual cycle clock.

Everything in the reproduction is timed against this clock.  It counts
CPU cycles; the :class:`~repro.hw.costs.CostModel` of the simulated
machine converts cycles to microseconds, which is the unit the paper's
Table 2 reports.

The clock has one *watcher* slot: a callback fired with the old and
new cycle count and the cost key of every advance.  A keyed advance
names the entry of :mod:`repro.hw.costs` it charges; an advance of a
plain cycle count (a compute burst, a cost plus a coherence surcharge)
passes ``None``; the idle jump to the next event passes :data:`IDLE`.
Only the cycle profiler (:mod:`repro.obs.profile`) watches the clock,
to attribute every cycle.  The event queue does not: callers compare
the clock against its cached horizon (``EventQueue._horizon``) and
fire due events at the points the library allows an interruption to
land.
"""

from __future__ import annotations

from typing import Callable, Optional

Watcher = Callable[[int, int, Optional[str]], None]

#: The key of the advance that idles the CPU until the next event (not
#: a cost-table key: idle time is not a cost).
IDLE = "<idle>"


class VirtualClock:
    """A monotonically increasing cycle counter.

    ``cycles`` is a plain attribute (executor hot paths read it tens of
    times per step; a property would dominate); treat it as read-only
    outside this class and advance via :meth:`advance`.

    Parameters
    ----------
    start:
        Initial cycle count (defaults to 0).
    """

    __slots__ = ("cycles", "_watcher")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start in the past: %r" % (start,))
        self.cycles = start
        self._watcher: Optional[Watcher] = None

    def advance(self, cycles: int, key: Optional[str] = None) -> None:
        """Move the clock forward by ``cycles`` (must be >= 0), charging
        cost ``key`` (None: plain cycles)."""
        if cycles <= 0:
            if cycles == 0:
                return
            raise ValueError("cannot advance clock backwards: %r" % (cycles,))
        before = self.cycles
        self.cycles = after = before + cycles
        if self._watcher is not None:
            self._watcher(before, after, key)

    def advance_to(self, cycles: int, key: Optional[str] = None) -> None:
        """Move the clock forward to an absolute instant (>= now)."""
        if cycles < self.cycles:
            raise ValueError(
                "cannot rewind clock from %d to %d" % (self.cycles, cycles)
            )
        self.advance(cycles - self.cycles, key)

    def watch(self, watcher: Watcher) -> None:
        """Install ``watcher(before, after, key)`` to run on every advance."""
        if self._watcher is not None:
            raise RuntimeError("the clock already has a watcher")
        self._watcher = watcher

    def unwatch(self) -> None:
        """Empty the watcher slot."""
        self._watcher = None

    def __repr__(self) -> str:
        return "VirtualClock(cycles=%d)" % self.cycles
