"""SPARC register windows.

The SPARC keeps a small circular buffer of register windows (typically 7
or 8 usable).  ``save`` on a call rotates to a fresh window; ``restore``
on return rotates back.  When the buffer is exhausted a *window
overflow* trap spills the oldest window to the stack; returning into a
spilled window causes a *window underflow* trap that reloads it.

The paper's context switch is dominated by two of these traps: the
``ST_FLUSH_WINDOWS`` trap that spills *all* active windows of the
outgoing thread, and the underflow trap taken when the incoming thread's
``restore`` executes.  This module models window occupancy so those
traps are charged when (and only when) the real hardware would take
them.
"""

from __future__ import annotations

from repro.hw import costs
from repro.hw.clock import VirtualClock
from repro.hw.costs import CostModel


class RegisterWindows:
    """Occupancy model for one CPU's register-window file.

    Parameters
    ----------
    clock:
        The virtual clock to charge trap costs against.
    model:
        The CPU cost model.
    nwindows:
        Hardware window count.  One window is reserved for the trap
        handler, so ``nwindows - 1`` are usable, as on real SPARCs.
    """

    def __init__(
        self, clock: VirtualClock, model: CostModel, nwindows: int = 8
    ) -> None:
        if nwindows < 2:
            raise ValueError("need at least 2 register windows")
        self._clock = clock
        self._model = model
        # Trap/call costs resolved once: save/restore run on every
        # simulated frame push/pop, flush/switch_in on every context
        # switch -- the two-stage CostModel.cost lookup would dominate.
        self._c_call = model.cost(costs.CALL)
        self._c_ret = model.cost(costs.RET)
        self._c_overflow = model.cost(costs.WINDOW_OVERFLOW_TRAP)
        self._c_fill = model.cost(costs.WINDOW_FILL_TRAP)
        self._c_flush = model.cost(costs.FLUSH_WINDOWS_TRAP)
        self._c_underflow = model.cost(costs.WINDOW_UNDERFLOW_TRAP)
        self._c_regs = model.cost(costs.WINDOW_REGS)
        self._usable = nwindows - 1
        self._active = 1  # the window of the currently executing frame
        self.overflow_traps = 0
        self.underflow_traps = 0
        self.flush_traps = 0

    @property
    def active(self) -> int:
        """Number of register windows currently holding live frames."""
        return self._active

    def save(self) -> None:
        """Execute a ``save`` (function call).  May overflow-trap.

        The trap and the call are charged as separate advances, each
        with its own cost key, so a clock watcher can tell the trap
        cycles from the call cycles.
        """
        if self._active == self._usable:
            self.overflow_traps += 1
            self._clock.advance(self._c_overflow, costs.WINDOW_OVERFLOW_TRAP)
        else:
            self._active += 1
        self._clock.advance(self._c_call, costs.CALL)

    def restore(self) -> None:
        """Execute a ``restore`` (function return).  May fill-trap.

        An ordinary call-path underflow fills a single window -- far
        cheaper than the bulk refill a context switch pays.
        """
        if self._active <= 1:
            self.underflow_traps += 1
            self._clock.advance(self._c_fill, costs.WINDOW_FILL_TRAP)
        else:
            self._active -= 1
        self._clock.advance(self._c_ret, costs.RET)

    def flush(self) -> None:
        """``ST_FLUSH_WINDOWS``: spill every active window to the stack.

        This is the trap the outgoing thread takes on a context switch
        (and that SunOS ``setjmp`` takes, which is why a setjmp/longjmp
        pair approximates a context switch in Table 2).
        """
        self.flush_traps += 1
        self._clock.advance(self._c_flush, costs.FLUSH_WINDOWS_TRAP)
        self._active = 1

    def switch_in(self) -> None:
        """Load the incoming thread's top frame (``restore`` underflow)."""
        self.underflow_traps += 1
        self._clock.advance(self._c_underflow, costs.WINDOW_UNDERFLOW_TRAP)
        self._clock.advance(self._c_regs, costs.WINDOW_REGS)
        self._active = 1

    def __repr__(self) -> str:
        return "RegisterWindows(active=%d/%d, flush=%d, under=%d, over=%d)" % (
            self._active,
            self._usable,
            self.flush_traps,
            self.underflow_traps,
            self.overflow_traps,
        )
