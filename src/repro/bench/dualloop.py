"""Dual-loop timing analysis over the virtual clock.

The paper's measurements "were taken ... using dual loop timing
analysis": time a loop executing the operation, time an identical loop
executing nothing, subtract, divide by the iteration count.  On the
virtual clock this is exact rather than statistical, but we keep the
methodology (including a small per-iteration loop overhead that the
subtraction cancels) so the harness matches the paper's procedure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.world import World

#: Simulated cycles of loop bookkeeping per iteration (cancelled by
#: the empty-loop subtraction, exactly as in the paper's methodology).
LOOP_OVERHEAD_CYCLES = 2


class DualLoopTimer:
    """Collects start/stop samples against a world's clock."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._start: Optional[int] = None
        self.samples: List[int] = []

    def start(self) -> None:
        self._start = self.world.now

    def stop(self) -> None:
        if self._start is None:
            raise RuntimeError("stop() without start()")
        self.samples.append(self.world.now - self._start)
        self._start = None

    def mark(self) -> int:
        """Raw timestamp (cycles) for interval arithmetic."""
        return self.world.now

    def record_interval(self, start_cycles: int, end_cycles: int) -> None:
        if end_cycles < start_cycles:
            raise ValueError("interval ends before it starts")
        self.samples.append(end_cycles - start_cycles)

    # -- reductions -----------------------------------------------------------

    def total_cycles(self) -> int:
        return sum(self.samples)

    def mean_us(self) -> float:
        if not self.samples:
            raise RuntimeError("no samples collected")
        return self.world.us(self.total_cycles()) / len(self.samples)

    def per_op_us(self, loop_samples: int, ops_per_sample: int) -> float:
        """Dual-loop reduction: subtract the empty-loop overhead."""
        if not self.samples:
            raise RuntimeError("no samples collected")
        overhead = LOOP_OVERHEAD_CYCLES * ops_per_sample
        cycles = sum(max(s - overhead, 0) for s in self.samples)
        del loop_samples
        return self.world.us(cycles) / (len(self.samples) * ops_per_sample)
