"""The virtual cycle clock.

Everything in the reproduction is timed against this clock.  It counts
CPU cycles; the :class:`~repro.hw.costs.CostModel` of the simulated
machine converts cycles to microseconds, which is the unit the paper's
Table 2 reports.

The clock also supports *watchers*: callbacks fired with the old and
new cycle count whenever the clock advances.  Only the cycle profiler
(:mod:`repro.obs.profile`) registers one, to attribute every cycle.
The event queue does not watch the clock: callers compare the clock
against its cached horizon (``EventQueue._horizon``) and fire due
events at the points the library allows an interruption to land.
"""

from __future__ import annotations

from typing import Callable, List

Watcher = Callable[[int, int], None]


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

    __slots__ = ("cycles", "_watchers")

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start in the past: %r" % (start,))
        self.cycles = start
        self._watchers: List[Watcher] = []

    def advance(self, cycles: int) -> None:
        """Move the clock forward by ``cycles`` (must be >= 0)."""
        if cycles <= 0:
            if cycles == 0:
                return
            raise ValueError("cannot advance clock backwards: %r" % (cycles,))
        before = self.cycles
        self.cycles = after = before + cycles
        if self._watchers:
            for watcher in self._watchers:
                watcher(before, after)

    def advance_to(self, cycles: int) -> None:
        """Move the clock forward to an absolute instant (>= now)."""
        if cycles < self.cycles:
            raise ValueError(
                "cannot rewind clock from %d to %d" % (self.cycles, cycles)
            )
        self.advance(cycles - self.cycles)

    def add_watcher(self, watcher: Watcher) -> None:
        """Register ``watcher(before, after)`` to run on every advance."""
        self._watchers.append(watcher)

    def remove_watcher(self, watcher: Watcher) -> None:
        self._watchers.remove(watcher)

    def __repr__(self) -> str:
        return "VirtualClock(cycles=%d)" % self.cycles
