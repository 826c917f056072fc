"""Cycle attribution: where did the virtual cycles go?

Table 2 of the paper is a latency breakdown of primitive operations;
this module produces the complementary whole-run view -- every cycle
the virtual clock advances is attributed to one category (compute,
window traps, syscalls, signal delivery, scheduling, synchronization,
memory, miscellaneous library work, idle) and to the thread that was
current when it was spent.  In an SMP world every CPU's clock is
watched: CPU 0 runs the library and charges its threads, and each
other CPU ``i`` charges the name ``<cpuI>``.

Mechanism: the profiler is each clock's one *watcher*, so it sees
every advance together with the cost key it charges (see
:mod:`repro.hw.clock`).  A key maps to its category through
:data:`CATEGORY_OF_KEY`: ``World.spend``, the register-window file,
the heap and the atomic instructions all pass the key of the cost they
charge.  Keyless advances -- ``spend_cycles``, user work bursts, SMP
coherence surcharges added to an instruction's cost -- count as
``compute``, and the idle jump to the next event carries the clock's
:data:`~repro.hw.clock.IDLE` marker.  No method is wrapped.

Two invariants make this admissible instrumentation:

- the profiler never advances the clock itself, so simulated time is
  bit-identical with and without it (the golden Table 2 snapshot test
  runs with it attached);
- detached (the default), the clock's watcher slot is empty, so the
  disabled cost is one ``is None`` test per advance.

The total across categories equals the cycles the clocks advanced
while attached -- exactly, by construction, since every advance passes
through a watcher once.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.hw import clock, costs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime
    from repro.hw.clock import VirtualClock
    from repro.sim.world import World

# Categories, in report order.
COMPUTE = "compute"
WINDOW_TRAPS = "window-traps"
SYSCALLS = "syscalls"
SIGNAL_DELIVERY = "signal-delivery"
SCHEDULING = "scheduling"
SYNCHRONIZATION = "synchronization"
MEMORY = "memory"
SMP = "smp"
LIBRARY_MISC = "library-misc"
IDLE = "idle"

CATEGORIES = (
    COMPUTE,
    WINDOW_TRAPS,
    SYSCALLS,
    SIGNAL_DELIVERY,
    SCHEDULING,
    SYNCHRONIZATION,
    MEMORY,
    SMP,
    LIBRARY_MISC,
    IDLE,
)

#: Cost key -> category.  Every key in ``hw.costs`` appears here; a key
#: added there without a category falls back to ``library-misc`` (the
#: consistency test pins the explicit mapping to the cost table).
CATEGORY_OF_KEY: Dict[str, str] = {
    # Raw instructions execute as part of whatever the thread is doing.
    costs.INSN: COMPUTE,
    costs.CALL: COMPUTE,
    costs.RET: COMPUTE,
    costs.LDSTUB: COMPUTE,
    costs.CAS: COMPUTE,
    # Register-window traps.
    costs.FLUSH_WINDOWS_TRAP: WINDOW_TRAPS,
    costs.WINDOW_UNDERFLOW_TRAP: WINDOW_TRAPS,
    costs.WINDOW_OVERFLOW_TRAP: WINDOW_TRAPS,
    costs.WINDOW_FILL_TRAP: WINDOW_TRAPS,
    costs.WINDOW_REGS: WINDOW_TRAPS,
    # The UNIX kernel interface.
    costs.SYSCALL: SYSCALLS,
    costs.GETPID_WORK: SYSCALLS,
    costs.SIGSETMASK_WORK: SYSCALLS,
    costs.SIGACTION_WORK: SYSCALLS,
    costs.SETITIMER_WORK: SYSCALLS,
    costs.KILL_WORK: SYSCALLS,
    costs.SBRK_WORK: SYSCALLS,
    costs.PROC_SWITCH: SYSCALLS,
    # Network syscalls (repro.unix.net) -- in-kernel work per service.
    costs.SOCKET_WORK: SYSCALLS,
    costs.BIND_WORK: SYSCALLS,
    costs.ACCEPT_WORK: SYSCALLS,
    costs.CONNECT_WORK: SYSCALLS,
    costs.SEND_WORK: SYSCALLS,
    costs.RECV_WORK: SYSCALLS,
    costs.SELECT_WORK: SYSCALLS,
    costs.SELECT_PER_FD: SYSCALLS,
    costs.EPOLL_WORK: SYSCALLS,
    costs.EPOLL_CTL_WORK: SYSCALLS,
    costs.EPOLL_WAIT_WORK: SYSCALLS,
    costs.EPOLL_PER_READY: SYSCALLS,
    costs.NET_DELIVER: SYSCALLS,
    # Signal machinery (UNIX delivery and the library's own model).
    costs.UNIX_SIGNAL_DELIVER: SIGNAL_DELIVERY,
    costs.UNIX_SIGRETURN: SIGNAL_DELIVERY,
    costs.SIG_RECIPIENT_RULES: SIGNAL_DELIVERY,
    costs.SIG_ACTION_RULES: SIGNAL_DELIVERY,
    costs.FAKE_CALL_SETUP: SIGNAL_DELIVERY,
    costs.WRAPPER_OVERHEAD: SIGNAL_DELIVERY,
    costs.SIG_LOG_IN_KERNEL: SIGNAL_DELIVERY,
    costs.SIG_MASK_OP: SIGNAL_DELIVERY,
    # Library kernel, dispatcher, ready queue.
    costs.ENTER_KERNEL: SCHEDULING,
    costs.LEAVE_KERNEL: SCHEDULING,
    costs.DISPATCH_SELECT: SCHEDULING,
    costs.DISPATCH_OVERHEAD: SCHEDULING,
    costs.READY_ENQUEUE: SCHEDULING,
    costs.READY_DEQUEUE: SCHEDULING,
    costs.ERRNO_SWITCH: SCHEDULING,
    costs.PRIO_ADJUST: SCHEDULING,
    costs.TIMER_TICK: SCHEDULING,
    # Synchronization objects.
    costs.MUTEX_FAST_LOCK: SYNCHRONIZATION,
    costs.MUTEX_FAST_UNLOCK: SYNCHRONIZATION,
    costs.MUTEX_SLOW_EXTRA: SYNCHRONIZATION,
    costs.MUTEX_TRANSFER: SYNCHRONIZATION,
    costs.PROTOCOL_CHECK: SYNCHRONIZATION,
    costs.COND_WAIT_SETUP: SYNCHRONIZATION,
    costs.COND_SIGNAL_WORK: SYNCHRONIZATION,
    costs.SEM_OVERHEAD: SYNCHRONIZATION,
    # Memory and the thread pool.
    costs.HEAP_ALLOC: MEMORY,
    costs.HEAP_FREE: MEMORY,
    costs.POOL_POP: MEMORY,
    costs.POOL_PUSH: MEMORY,
    costs.TCB_INIT: MEMORY,
    costs.STACK_SETUP: MEMORY,
    costs.STACK_FAULT_IN: MEMORY,
    # Multiprocessor coherence and cross-CPU signalling.
    costs.LINE_TRANSFER_NEAR: SMP,
    costs.LINE_TRANSFER_FAR: SMP,
    costs.LINE_SHARED_JOIN: SMP,
    costs.SPIN_READ: SMP,
    costs.IPI_SEND: SMP,
    costs.IPI_RECEIVE: SMP,
    costs.IPI_LATENCY: SMP,
    costs.SMP_MIGRATE: SMP,
    costs.SMP_DISPATCH: SMP,
    # Everything else in the library.
    costs.SETJMP_SAVE: LIBRARY_MISC,
    costs.LONGJMP_RESTORE: LIBRARY_MISC,
    costs.CREATE_MISC: LIBRARY_MISC,
    costs.JOIN_WORK: LIBRARY_MISC,
    costs.EXIT_WORK: LIBRARY_MISC,
    costs.DETACH_WORK: LIBRARY_MISC,
    costs.CANCEL_WORK: LIBRARY_MISC,
    costs.TSD_OP: LIBRARY_MISC,
    costs.ONCE_OP: LIBRARY_MISC,
    costs.CLEANUP_OP: LIBRARY_MISC,
    costs.ATTR_OP: LIBRARY_MISC,
}


def path_category(path: str, category_of: Dict[str, str]) -> str:
    """The one category every part of cost path ``path`` belongs to.

    A path is charged as one spend, so the profiler can label it with
    one category only; a path whose parts span two is rejected.
    """
    found = {category_of[part] for part in costs.PATHS[path]}
    if len(found) != 1:
        raise ValueError(
            "cost path %r spans categories %s" % (path, sorted(found))
        )
    return found.pop()


CATEGORY_OF_KEY.update(
    {path: path_category(path, CATEGORY_OF_KEY) for path in costs.PATHS}
)

#: What the watcher looks up: every cost key, plus keyless advances
#: (``None``: compute) and the idle jump.
_CATEGORY_OF_ADVANCE: Dict[Optional[str], str] = {
    **CATEGORY_OF_KEY, None: COMPUTE, clock.IDLE: IDLE,
}


class CycleProfiler:
    """Attributes every clock advance to a category and a thread."""

    def __init__(self) -> None:
        self.by_category: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self.by_thread: Dict[str, int] = {}
        self.start_cycles = 0
        self._world: Optional["World"] = None
        self._runtime: Optional["PthreadsRuntime"] = None
        #: Every watched clock (CPU 0's, which is the world's, first)
        #: and its reading at attach time.
        self._clocks: List["VirtualClock"] = []
        self._starts: List[int] = []

    @property
    def attached(self) -> bool:
        return self._world is not None

    # -- attachment ----------------------------------------------------------

    def attach_world(self, world: "World") -> None:
        """Become the watcher of the world clock and of every other
        CPU's clock.

        Attach before the first cycle is spent (the runtime does this
        right after building the world) so the category totals cover
        the whole run and sum to the final clocks exactly.
        """
        if self._world is not None:
            raise RuntimeError("profiler is already attached")
        world.clock.watch(self._on_advance)
        self._clocks = [world.clock]
        if world.smp is not None:
            for cpu in world.smp.cpus[1:]:
                cpu.clock.watch(
                    partial(self._on_advance, name="<cpu%d>" % cpu.index)
                )
                self._clocks.append(cpu.clock)
        self._starts = [c.cycles for c in self._clocks]
        self._world = world
        self.start_cycles = world.clock.cycles

    def attach_runtime(self, runtime: "PthreadsRuntime") -> None:
        """Bind the runtime whose ``current`` names the running thread."""
        self._runtime = runtime
        if self._world is None:
            self.attach_world(runtime.world)

    def detach(self) -> None:
        """Stop watching the clocks."""
        for watched in self._clocks:
            watched.unwatch()
        self._clocks = []
        self._world = None
        self._runtime = None

    # -- the watcher -----------------------------------------------------------

    def _on_advance(
        self,
        before: int,
        after: int,
        key: Optional[str],
        name: Optional[str] = None,
    ) -> None:
        """Attribute one advance; ``name`` is preset for CPUs >= 1."""
        delta = after - before
        self.by_category[_CATEGORY_OF_ADVANCE.get(key, LIBRARY_MISC)] += delta
        if name is None:
            runtime = self._runtime
            if runtime is not None:
                current = runtime.current
                name = current.name if current is not None else "<kernel>"
            else:
                name = "<world>"
        threads = self.by_thread
        threads[name] = threads.get(name, 0) + delta

    # -- results ----------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(self.by_category.values())

    def attributed_span(self) -> int:
        """Cycles the watched clocks advanced while attached, summed
        (the oracle the category total must match exactly)."""
        if self._world is None:
            return self.total_cycles
        return sum(
            watched.cycles - start
            for watched, start in zip(self._clocks, self._starts)
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "by_category": {
                c: self.by_category[c] for c in CATEGORIES
                if self.by_category[c]
            },
            "by_thread": dict(
                sorted(self.by_thread.items(), key=lambda kv: -kv[1])
            ),
            "total_cycles": self.total_cycles,
            "start_cycles": self.start_cycles,
        }

    def render(self, us_per_cycle: Optional[float] = None) -> str:
        """The Table-2-style "where did the cycles go" breakdown."""
        total = self.total_cycles
        if total == 0:
            return "(no cycles attributed)"
        if us_per_cycle is None and self._world is not None:
            us_per_cycle = 1.0 / self._world.model.mhz
        lines = ["%-16s %14s %12s %7s" % ("CATEGORY", "CYCLES", "US", "%")]
        for category in CATEGORIES:
            cycles = self.by_category[category]
            if cycles == 0:
                continue
            us = cycles * us_per_cycle if us_per_cycle else 0.0
            lines.append(
                "%-16s %14d %12.2f %6.1f%%"
                % (category, cycles, us, 100.0 * cycles / total)
            )
        lines.append(
            "%-16s %14d %12.2f %6.1f%%"
            % ("total", total, total * (us_per_cycle or 0.0), 100.0)
        )
        lines.append("")
        lines.append("%-16s %14s %12s %7s" % ("THREAD", "CYCLES", "US", "%"))
        for name, cycles in sorted(
            self.by_thread.items(), key=lambda kv: -kv[1]
        ):
            us = cycles * us_per_cycle if us_per_cycle else 0.0
            lines.append(
                "%-16s %14d %12.2f %6.1f%%"
                % (name, cycles, us, 100.0 * cycles / total)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "CycleProfiler(total=%d, attached=%s)" % (
            self.total_cycles, self.attached,
        )
