"""Thread-state inspection and execution timelines.

:class:`Timeline` turns the tracer's dispatch records into "who ran
when" segments -- the exact evidence the paper's Figure 5 presents as
solid lines under the three priority-inversion scenarios.
:class:`Inspector` renders per-thread state from the TCBs, the
information the paper suggests a threads-aware debugger should expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.debug.trace import Tracer


@dataclass(frozen=True)
class Segment:
    """A half-open interval [start, end) during which ``thread`` ran."""

    start: int
    end: int
    thread: str

    @property
    def length(self) -> int:
        return self.end - self.start


class Timeline:
    """Execution segments reconstructed from ``dispatch`` trace records."""

    def __init__(self, tracer: Tracer, end_time: Optional[int] = None) -> None:
        records = tracer.of_kind("dispatch")
        if end_time is None:
            # Without an explicit end the final dispatch would get a
            # zero-length segment and the last-running thread would be
            # undercounted by ran()/runtime_of(); the newest record of
            # *any* kind is the latest instant the trace can vouch for.
            end_time = tracer.latest_time()
        self.segments: List[Segment] = []
        for index, record in enumerate(records):
            if index + 1 < len(records):
                end = records[index + 1].time
            else:
                end = end_time if end_time is not None else record.time
            if end < record.time:
                end = record.time
            self.segments.append(
                Segment(record.time, end, record["thread"])
            )

    def ran(self, thread: str) -> bool:
        """Did ``thread`` execute at all (for a nonzero interval)?"""
        return any(s.thread == thread and s.length > 0 for s in self.segments)

    def runtime_of(self, thread: str) -> int:
        """Total cycles ``thread`` held the CPU."""
        return sum(s.length for s in self.segments if s.thread == thread)

    def ran_during(self, thread: str, start: int, end: int) -> bool:
        """Did ``thread`` run (partly) inside [start, end)?"""
        if end <= start:
            return False  # empty window contains no instants
        for s in self.segments:
            if s.thread != thread:
                continue
            if s.start < end and s.end > start and s.length > 0:
                return True
        return False

    def order_of_first_runs(self) -> List[str]:
        """Thread names in order of first dispatch."""
        seen: List[str] = []
        for s in self.segments:
            if s.thread not in seen:
                seen.append(s.thread)
        return seen

    def render(self, us_per_cycle: float = 1.0, width: int = 72) -> str:
        """ASCII art of the timeline (one row per thread)."""
        if not self.segments:
            return "(empty timeline)"
        t0 = self.segments[0].start
        t1 = max(s.end for s in self.segments)
        span = max(t1 - t0, 1)
        threads = sorted({s.thread for s in self.segments})
        lines = []
        for thread in threads:
            row = [" "] * width
            for s in self.segments:
                if s.thread != thread or s.length == 0:
                    continue
                lo = int((s.start - t0) * (width - 1) / span)
                hi = max(int((s.end - t0) * (width - 1) / span), lo)
                for i in range(lo, hi + 1):
                    row[i] = "="
            lines.append("%-12s |%s|" % (thread, "".join(row)))
        header = "%-12s  t=%d..%d cycles (%.1f us)" % (
            "",
            t0,
            t1,
            span * us_per_cycle,
        )
        return "\n".join([header] + lines)


class Inspector:
    """Debugger-style views over a Pthreads runtime's thread table."""

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime

    def thread_rows(self) -> List[dict]:
        """One summary dict per live thread."""
        rows = []
        for tcb in self._runtime.threads.values():
            rows.append(
                {
                    "name": tcb.name,
                    "state": tcb.state.name,
                    "priority": tcb.effective_priority,
                    "base_priority": tcb.base_priority,
                    "detached": tcb.detached,
                    "frames": tcb.frames.depth(),
                    "stack_used": tcb.stack.used if tcb.stack else 0,
                    "pending_signals": sorted(tcb.pending.signals()),
                }
            )
        return rows

    def render(self) -> str:
        """Tabular dump of every thread, debugger style."""
        rows = self.thread_rows()
        if not rows:
            return "(no threads)"
        header = "%-14s %-10s %4s %4s %-5s %6s %10s %s" % (
            "THREAD",
            "STATE",
            "PRIO",
            "BASE",
            "DET",
            "FRAMES",
            "STACK",
            "PENDING",
        )
        lines = [header]
        for row in rows:
            lines.append(
                "%-14s %-10s %4d %4d %-5s %6d %10d %s"
                % (
                    row["name"],
                    row["state"],
                    row["priority"],
                    row["base_priority"],
                    "yes" if row["detached"] else "no",
                    row["frames"],
                    row["stack_used"],
                    ",".join(map(str, row["pending_signals"])) or "-",
                )
            )
        return "\n".join(lines)
