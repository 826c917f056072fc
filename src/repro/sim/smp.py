"""The SMP world extension: N virtual CPUs over one seeded world.

The paper's library runs on one processor; its design discussion notes
the same structure maps onto an MP kernel.  This module builds that
machine: a :class:`World` constructed with ``ncpus > 1`` grows an
:class:`SmpExtension` holding one :class:`Cpu` per processor -- each
with its own virtual clock, run queue, scheduler instance, and local
event queue -- plus a shared :class:`repro.hw.memory.CacheDirectory`
that prices every cross-CPU memory access.

Determinism is the design constraint everything here bends around:

- one seed drives all CPUs (each gets a forked RNG stream, stable
  across runs);
- the executor always steps the runnable CPU with the *lowest local
  clock* (ties break by CPU index), so the interleaving is a pure
  function of the charged costs;
- spinners park on a cache line and are woken by the write that
  changes it, with their clocks jumped to the writer's completion
  time -- timing-equivalent to busy-waiting, but the executor retires
  O(handoffs) steps instead of O(spin iterations).

CPU 0 is special: it shares the world's own clock and event queue, so
the single-CPU Pthreads runtime *is* CPU 0 of the SMP machine.  With
``ncpus=1`` no extension is attached at all and the world is
bit-identical to the pre-SMP simulator (the golden Table 2 gate).

Cross-CPU signalling goes through interprocessor interrupts: a wakeup
or signal aimed at a thread on another CPU charges ``IPI_SEND`` on the
source clock, rides the event queue for ``IPI_LATENCY`` cycles, and
charges ``IPI_RECEIVE`` on the target clock before the normal delivery
machinery runs (see :meth:`SmpExtension.send_ipi` and the routing hook
in :mod:`repro.unix.kernel`).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.hw import costs
from repro.hw.atomic import (
    SharedCell,
    smp_compare_and_swap,
    smp_fetch_add,
    smp_ldstub,
    smp_load,
    smp_store,
    smp_swap,
)
from repro.hw.clock import IDLE, VirtualClock
from repro.hw.memory import CacheDirectory, CacheLine
from repro.sim.events import EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.world import World

#: Signal-cause kinds that originate outside the interrupted CPU
#: (device/timer/external interrupts land on the interrupt CPU and
#: must cross to the target's CPU via IPI).
ASYNC_CAUSE_KINDS = frozenset(("external", "timer", "io", "device"))


class SmpTask:
    """One generator task scheduled on the SMP executor.

    The body is a generator that yields *operation tuples* (see
    :meth:`SmpExecutor._exec`); the executor runs exactly one op per
    step, so the cross-CPU interleaving is as fine-grained as the ops.
    """

    __slots__ = (
        "name", "gen", "cpu", "state", "ready_at", "park_time",
        "send_value", "pending_op", "steps",
    )

    def __init__(self, name: str, gen: Any, cpu: int) -> None:
        self.name = name
        self.gen = gen
        self.cpu = cpu
        self.state = "ready"  # ready | running | spinning | done
        self.ready_at = 0
        self.park_time = 0
        self.send_value: Any = None
        self.pending_op: Optional[tuple] = None
        self.steps = 0

    def __repr__(self) -> str:
        return "SmpTask(%s, cpu=%d, %s)" % (self.name, self.cpu, self.state)


class CpuScheduler:
    """The per-CPU scheduler: a FIFO run queue with steal support.

    Deliberately simple -- the interesting scheduling in this
    reproduction lives in the Pthreads dispatcher; this instance just
    gives every simulated processor its own queue discipline, which is
    what the run-queue-disjointness invariant (``repro.check``) guards.
    """

    __slots__ = ("cpu", "runq")

    def __init__(self, cpu: "Cpu") -> None:
        self.cpu = cpu
        self.runq: deque = deque()

    def put(self, task: SmpTask) -> None:
        task.cpu = self.cpu.index
        task.state = "ready"
        self.runq.append(task)

    def pick(self) -> Optional[SmpTask]:
        if not self.runq:
            return None
        task = self.runq.popleft()
        task.state = "running"
        return task

    def steal_from(self) -> Optional[SmpTask]:
        """Victim side of work stealing: give up the *tail* task."""
        if not self.runq:
            return None
        task = self.runq.pop()
        return task

    def __len__(self) -> int:
        return len(self.runq)


class Cpu:
    """One simulated processor: clock + scheduler + local event queue.

    CPU 0 aliases the world's clock and event queue so existing
    single-CPU code *is* CPU 0; higher CPUs own private ones.
    """

    def __init__(
        self,
        smp: "SmpExtension",
        index: int,
        clock: Optional[VirtualClock] = None,
        events: Optional[EventQueue] = None,
    ) -> None:
        self.smp = smp
        self.index = index
        self.clock = clock if clock is not None else VirtualClock()
        self.events = events if events is not None else EventQueue()
        self.sched = CpuScheduler(self)
        self.current: Optional[SmpTask] = None
        self.rng = smp.world.rng.fork(0x5A50 + index)
        # Persistent counters (harvested into smp.* metrics).
        self.ipis_sent = 0
        self.ipis_received = 0
        self.migrations_in = 0
        self.dispatches = 0
        self.retired = 0
        self.spin_cycles = 0

    @property
    def runq(self) -> deque:
        return self.sched.runq

    @property
    def now(self) -> int:
        return self.clock.cycles

    def spend(self, key: str, times: int = 1) -> None:
        """Charge a cost-table key against this CPU's clock."""
        self.clock.advance(self.smp.table[key] * times, key)

    def spend_cycles(self, cycles: int) -> None:
        self.clock.advance(cycles)

    # -- coherence-priced memory ops (shared cells) -----------------------

    def load(self, cell: SharedCell) -> int:
        return smp_load(
            self.clock, self.smp.table, self.smp.directory, self.index, cell
        )

    def store(self, cell: SharedCell, value: int) -> None:
        smp_store(
            self.clock, self.smp.table, self.smp.directory, self.index,
            cell, value,
        )
        self.smp.line_written(cell.line, self.clock.cycles)

    def ldstub(self, cell: SharedCell) -> int:
        old = smp_ldstub(
            self.clock, self.smp.table, self.smp.directory, self.index, cell
        )
        self.smp.line_written(cell.line, self.clock.cycles)
        return old

    def compare_and_swap(
        self, cell: SharedCell, expected: int, new: int
    ) -> bool:
        ok = smp_compare_and_swap(
            self.clock, self.smp.table, self.smp.directory, self.index,
            cell, expected, new,
        )
        self.smp.line_written(cell.line, self.clock.cycles)
        return ok

    def swap(self, cell: SharedCell, value: int) -> int:
        old = smp_swap(
            self.clock, self.smp.table, self.smp.directory, self.index,
            cell, value,
        )
        self.smp.line_written(cell.line, self.clock.cycles)
        return old

    def fetch_add(self, cell: SharedCell, delta: int) -> int:
        old = smp_fetch_add(
            self.clock, self.smp.table, self.smp.directory, self.index,
            cell, delta,
        )
        self.smp.line_written(cell.line, self.clock.cycles)
        return old

    def __repr__(self) -> str:
        return "Cpu(%d, t=%d, runq=%d)" % (
            self.index, self.clock.cycles, len(self.sched.runq),
        )


class SmpExtension:
    """The multiprocessor face of a :class:`World`.

    Owns the CPUs, the shared cache directory, the line-waiter table
    for parked spinners, and the IPI plumbing.  Attached by
    ``World(ncpus=N)`` for N > 1; constructible directly for an
    explicit 1-CPU SMP machine (the lock zoo's baseline column).
    """

    def __init__(
        self,
        world: "World",
        ncpus: int,
        cpus_per_chip: int = 16,
    ) -> None:
        if ncpus < 1:
            raise ValueError("need at least one CPU: %r" % ncpus)
        self.world = world
        self.ncpus = ncpus
        self.table = world._costs
        self.directory = CacheDirectory(
            ncpus, self.table, cpus_per_chip=cpus_per_chip
        )
        self.cpus: List[Cpu] = [
            Cpu(self, 0, clock=world.clock, events=world.events)
        ]
        for index in range(1, ncpus):
            self.cpus.append(Cpu(self, index))
        #: Device/timer/external interrupts are taken on this CPU; a
        #: signal they raise for a thread on another CPU crosses via
        #: IPI.  On a uniprocessor everything is local.
        self.interrupt_cpu = 1 if ncpus > 1 else 0
        self.ipis_sent = 0
        self.ipis_delivered = 0
        self.migrations = 0
        self._line_waiters: Dict[CacheLine, List[SmpTask]] = {}
        self._executor: Optional["SmpExecutor"] = None

    # -- shared memory ------------------------------------------------------

    def cell(self, name: str, value: int = 0) -> SharedCell:
        """A shared word on its own (fresh) cache line."""
        return SharedCell(self.directory.line(name), value)

    def line_written(self, line: CacheLine, at_time: int) -> None:
        """Wake any tasks parked on ``line`` (called after every store)."""
        waiters = self._line_waiters.pop(line, None)
        if not waiters:
            return
        cpus = self.cpus
        for task in waiters:
            task.ready_at = at_time
            cpu = cpus[task.cpu]
            cpu.spin_cycles += max(0, at_time - task.park_time)
            cpu.sched.put(task)

    def parked(self, line: CacheLine) -> List[SmpTask]:
        return list(self._line_waiters.get(line, ()))

    # -- interprocessor interrupts -----------------------------------------

    def send_ipi(
        self,
        src_index: int,
        dst_index: int,
        action: Callable[[], None],
        name: str = "ipi",
    ) -> None:
        """Cross-call ``action`` from CPU ``src`` to CPU ``dst``.

        The send trap is charged on the source clock; the interrupt
        arrives ``IPI_LATENCY`` cycles later on the destination, which
        charges ``IPI_RECEIVE`` before running ``action``.  CPU 0's
        interrupts ride the world event queue (so the Pthreads
        executor fires them in its normal course); other CPUs use
        their local queues, drained by the SMP executor.
        """
        src = self.cpus[src_index]
        dst = self.cpus[dst_index]
        src.clock.advance(self.table[costs.IPI_SEND], costs.IPI_SEND)
        src.ipis_sent += 1
        self.ipis_sent += 1
        arrive = src.clock.cycles + self.table[costs.IPI_LATENCY]
        # CPU 0's queue is the world's: never post behind its clock.
        floor = self.world.clock.cycles if dst.index == 0 else 0
        dst.events.post(max(arrive, floor), self._ipi_arrive, (dst, action),
                        name)

    def _ipi_arrive(self, ipi: Tuple["Cpu", Callable[[], None]]) -> None:
        """Callout of :meth:`send_ipi`: the interrupt reaches ``dst``."""
        dst, action = ipi
        self.ipis_delivered += 1
        dst.ipis_received += 1
        if dst.index == 0:
            self.world.spend(costs.IPI_RECEIVE)
        else:
            dst.clock.advance(
                self.table[costs.IPI_RECEIVE], costs.IPI_RECEIVE
            )
        action()

    def route_signal(self, kernel: Any, proc: Any, sig: int, cause: Any) -> bool:
        """IPI-route an asynchronous signal when it must cross CPUs.

        Returns True when the signal was turned into an IPI (the
        caller must *not* post it directly); False when delivery is
        local and the single-CPU path applies.  Synchronous causes
        (faults, explicit intra-process sends) are always local: they
        originate on the CPU already running the target.
        """
        if self.ncpus < 2:
            return False
        kind = getattr(cause, "kind", None)
        if kind not in ASYNC_CAUSE_KINDS:
            return False
        target_cpu = getattr(proc, "cpu", 0)
        src_index = self.interrupt_cpu
        if src_index == target_cpu:
            return False
        # The interrupt CPU observes the device at the world's current
        # instant; its shadow clock catches up before the send trap.
        src = self.cpus[src_index]
        if src.clock.cycles < self.world.now:
            src.clock.advance_to(self.world.now, IDLE)
        stamped = dataclasses.replace(cause, via_ipi=True)
        self.send_ipi(
            src_index,
            target_cpu,
            lambda: kernel.post_signal_local(proc, sig, stamped),
            name="ipi:sig%d" % sig,
        )
        return True

    # -- bookkeeping --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        out = dict(self.directory.counters())
        out["smp.ipis_sent"] = self.ipis_sent
        out["smp.ipis_delivered"] = self.ipis_delivered
        out["smp.migrations"] = self.migrations
        out["smp.spin_cycles"] = sum(c.spin_cycles for c in self.cpus)
        return out

    def signature(self) -> tuple:
        """Stable state summary folded into ``World.state_digest``."""
        return (
            tuple(
                (c.clock.cycles, len(c.sched.runq), len(c.events),
                 c.ipis_sent, c.ipis_received)
                for c in self.cpus
            ),
            self.directory.signature(),
            self.ipis_sent,
            self.ipis_delivered,
            self.migrations,
        )

    def __repr__(self) -> str:
        return "SmpExtension(ncpus=%d, ipis=%d, bounces=%d)" % (
            self.ncpus, self.ipis_sent, self.directory.bounces,
        )


class SmpDeadlockError(Exception):
    """Every live task is parked on a line nobody will ever write."""


class SmpExecutor:
    """Runs generator tasks over the SMP machine, deterministically.

    The stepping rule: among CPUs that have work (a running task or a
    non-empty run queue), execute one operation on the CPU whose local
    clock is lowest, breaking ties by CPU index.  Idle CPUs steal the
    tail of the longest run queue (one migration charge) when stealing
    is enabled.  Spinners park on cache lines and wake on writes (see
    module docstring); a state where only parked tasks remain raises
    :class:`SmpDeadlockError`.

    Operation tuples the task generators may yield:

    ``("spend", key, times)``          charge a cost-table key
    ``("spend_cycles", n)``            charge raw cycles (work bursts)
    ``("pause", n)``                   backoff delay (counted as spin)
    ``("load", cell)``                 -> value
    ``("store", cell, v)``
    ``("ldstub", cell)``               -> old value
    ``("cas", cell, expected, new)``   -> bool
    ``("swap", cell, v)``              -> old value
    ``("fetch_add", cell, d)``         -> old value
    ``("spin_read", cell, pred)``      -> value once ``pred(value)``
    ``("yield",)``                     requeue behind local peers
    """

    def __init__(
        self,
        world: "World",
        smp: Optional[SmpExtension] = None,
        migration: bool = True,
        check: Optional[Any] = None,
        check_every: int = 64,
    ) -> None:
        smp = smp if smp is not None else world.smp
        if smp is None:
            raise ValueError(
                "world has no SMP extension; construct World(ncpus=N) "
                "or pass an explicit SmpExtension"
            )
        self.world = world
        self.smp = smp
        self.migration = migration and smp.ncpus > 1
        self.check = check
        self.check_every = check_every
        self.tasks: List[SmpTask] = []
        self.live = 0
        self.steps = 0
        smp._executor = self

    # -- task management ---------------------------------------------------

    def spawn(self, body_gen: Any, cpu: int = 0, name: str = "") -> SmpTask:
        """Enqueue a generator task on CPU ``cpu``'s run queue."""
        if not 0 <= cpu < self.smp.ncpus:
            raise ValueError("no such CPU: %r" % cpu)
        task = SmpTask(name or "task-%d" % len(self.tasks), body_gen, cpu)
        target = self.smp.cpus[cpu]
        task.ready_at = target.clock.cycles
        target.sched.put(task)
        self.tasks.append(task)
        self.live += 1
        return task

    # -- the interleaving loop ---------------------------------------------

    def run(self, max_steps: int = 5_000_000) -> None:
        """Run until every task finishes (or ``max_steps`` ops retire)."""
        check = self.check
        while self.live > 0:
            if self.steps >= max_steps:
                raise RuntimeError(
                    "SMP executor exceeded %d steps (%d tasks live)"
                    % (max_steps, self.live)
                )
            if self.migration:
                self._try_steal()
            cpu = self._pick_cpu()
            if cpu is None:
                if not self._advance_to_events():
                    raise SmpDeadlockError(
                        "%d tasks parked on cache lines with no runnable "
                        "writer" % self.live
                    )
                continue
            self._step(cpu)
            self.steps += 1
            if check is not None and self.steps % self.check_every == 0:
                check.on_smp_step(self.world)

    def _pick_cpu(self) -> Optional[Cpu]:
        best = None
        best_key = None
        for cpu in self.smp.cpus:
            if cpu.current is None and not cpu.sched.runq:
                if not cpu.events.due_before(cpu.clock.cycles):
                    continue
            key = (cpu.clock.cycles, cpu.index)
            if best_key is None or key < best_key:
                best = cpu
                best_key = key
        return best

    def _try_steal(self) -> None:
        cpus = self.smp.cpus
        victim = None
        for cpu in cpus:
            if len(cpu.sched.runq) > 0 and (
                victim is None or len(cpu.sched.runq) > len(victim.sched.runq)
            ):
                victim = cpu
        if victim is None or len(victim.sched.runq) < 2:
            return
        thief = None
        for cpu in cpus:
            if cpu.current is None and not cpu.sched.runq:
                if thief is None or (
                    (cpu.clock.cycles, cpu.index)
                    < (thief.clock.cycles, thief.index)
                ):
                    thief = cpu
        if thief is None:
            return
        task = victim.sched.steal_from()
        if task is None:
            return
        thief.spend(costs.SMP_MIGRATE)
        thief.migrations_in += 1
        self.smp.migrations += 1
        thief.sched.put(task)

    def _advance_to_events(self) -> bool:
        """All queues empty: jump the earliest event (IPIs in flight)."""
        best = None
        for cpu in self.smp.cpus:
            when = cpu.events.next_time()
            if when is not None and (best is None or when < best[0]):
                best = (when, cpu)
        if best is None:
            return False
        when, cpu = best
        cpu.clock.advance_to(max(when, cpu.clock.cycles), IDLE)
        cpu.events.fire_due(cpu.clock.cycles)
        return True

    def _step(self, cpu: Cpu) -> None:
        if cpu.events.due_before(cpu.clock.cycles):
            cpu.events.fire_due(cpu.clock.cycles)
            if cpu.current is None and not cpu.sched.runq:
                return
        task = cpu.current
        if task is None:
            cpu.spend(costs.SMP_DISPATCH)
            cpu.dispatches += 1
            task = cpu.sched.pick()
            if task is None:
                return
            cpu.current = task
            if task.ready_at > cpu.clock.cycles:
                cpu.clock.advance_to(task.ready_at, IDLE)
        if task.pending_op is not None:
            op = task.pending_op
            task.pending_op = None
        else:
            try:
                op = task.gen.send(task.send_value)
                task.steps += 1
            except StopIteration:
                task.state = "done"
                cpu.current = None
                cpu.retired += 1
                self.live -= 1
                return
        task.send_value = self._exec(cpu, task, op)
        if cpu.index == 0:
            self.world.fire_due()

    def _exec(self, cpu: Cpu, task: SmpTask, op: tuple) -> Any:
        kind = op[0]
        if kind == "spin_read":
            cell, pred = op[1], op[2]
            extra = self.smp.directory.read(
                cpu.index, cell.line, cpu.clock.cycles
            )
            cpu.clock.advance(self.smp.table[costs.SPIN_READ] + extra)
            value = cell.value
            if pred(value):
                return value
            # Park: the next write to this line wakes us for a re-check.
            task.pending_op = op
            task.state = "spinning"
            task.park_time = cpu.clock.cycles
            self.smp._line_waiters.setdefault(cell.line, []).append(task)
            cpu.current = None
            return None
        if kind == "spend":
            key = op[1]
            times = op[2] if len(op) > 2 else 1
            cpu.spend(key, times)
            return None
        if kind == "spend_cycles":
            cpu.spend_cycles(op[1])
            return None
        if kind == "pause":
            cpu.spend_cycles(op[1])
            cpu.spin_cycles += op[1]
            return None
        if kind == "load":
            return cpu.load(op[1])
        if kind == "store":
            cpu.store(op[1], op[2])
            return None
        if kind == "ldstub":
            return cpu.ldstub(op[1])
        if kind == "cas":
            return cpu.compare_and_swap(op[1], op[2], op[3])
        if kind == "swap":
            return cpu.swap(op[1], op[2])
        if kind == "fetch_add":
            return cpu.fetch_add(op[1], op[2])
        if kind == "yield":
            cpu.current = None
            task.ready_at = cpu.clock.cycles
            cpu.sched.put(task)
            return None
        raise ValueError("unknown SMP op: %r" % (op,))

    # -- results -----------------------------------------------------------

    @property
    def makespan(self) -> int:
        """Completion time: the maximum cycle count across CPU clocks."""
        return max(c.clock.cycles for c in self.smp.cpus)

    def __repr__(self) -> str:
        return "SmpExecutor(cpus=%d, steps=%d, live=%d)" % (
            self.smp.ncpus, self.steps, self.live,
        )
