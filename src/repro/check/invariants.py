"""Invariant rules over the library's shared state.

A :class:`CheckContext` attaches to a runtime (``PthreadsRuntime(...,
check=ctx)``), registers every synchronisation object as it is created,
and runs its rule set at every kernel-flag release
(:meth:`repro.core.kernel.LibKernel.leave`) -- the points where the
monolithic monitor promises the shared state is consistent.  A broken
rule raises :class:`InvariantViolation` immediately, so the schedule
that exposed it is still on the choice trail.

The rules encode exactly the properties the satellite bug fixes of this
subsystem restore: mutex owner/cell/queue consistency, per-mutex
counters summing to the run-wide :class:`~repro.core.mutex.MutexOps`
totals, condvar waiters actually parked on their queue (a thread
"waiting" but unqueued misses every wakeup), reader/writer bookkeeping
sanity, priority-boost bounds, cleanup-stack balance at termination,
no thread parked on an undone request of a closed socket, and each
epoll registration held as one record in all three places that name it.
:meth:`CheckContext.check_quiescent` adds end-of-run rules --
everything unlocked, no waiters, no leaked ``waiting_writers`` claims
-- which is where the pre-fix ``wrlock`` cancellation leak shows up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.tcb import Tcb, ThreadState
from repro.unix.net import EpollInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cond import Cond
    from repro.core.mutex import Mutex
    from repro.core.runtime import PthreadsRuntime
    from repro.core.rwlock import RwLock
    from repro.core.semaphore import Semaphore
    from repro.check.schedule import ScriptedChoices


class InvariantViolation(Exception):
    """A consistency rule over the library state broke.

    ``rule`` names the rule (stable identifiers, used by the reducer to
    confirm a shrunk schedule still fails the *same* way).
    """

    def __init__(self, rule: str, detail: str) -> None:
        super().__init__("%s: %s" % (rule, detail))
        self.rule = rule
        self.detail = detail


class CheckContext:
    """Registries, counters, and the invariant rule set for one run."""

    def __init__(self, choices: Optional["ScriptedChoices"] = None) -> None:
        self.choices = choices
        self.runtime: Optional["PthreadsRuntime"] = None
        self.mutexes: List["Mutex"] = []
        self.conds: List["Cond"] = []
        self.rwlocks: List["RwLock"] = []
        self.sems: List["Semaphore"] = []
        self.workqueues: List[object] = []
        self.checks_run = 0
        self.violations_found = 0

    # -- wiring (called by the runtime) ------------------------------------

    def attach(self, runtime: "PthreadsRuntime") -> None:
        self.runtime = runtime
        runtime.world.choices = self.choices

    def register_mutex(self, mutex: "Mutex") -> None:
        self.mutexes.append(mutex)

    def register_cond(self, cond: "Cond") -> None:
        self.conds.append(cond)

    def register_rwlock(self, rw: "RwLock") -> None:
        self.rwlocks.append(rw)

    def register_sem(self, sem: "Semaphore") -> None:
        self.sems.append(sem)

    def register_workqueue(self, wq: object) -> None:
        """An application-level work queue (see repro.net.servers).

        Duck-typed: anything with ``items``/``enqueued``/``dequeued``/
        ``closed`` counters can register.  The rules audit the counter
        arithmetic at every kernel release -- a dequeue that lost an
        item (or an item taken twice) breaks the books immediately,
        under whichever schedule the explorer found it.
        """
        self.workqueues.append(wq)

    # -- rule plumbing ------------------------------------------------------

    def _fail(self, rule: str, detail: str) -> None:
        self.violations_found += 1
        raise InvariantViolation(rule, detail)

    def on_kernel_release(self, runtime: "PthreadsRuntime") -> None:
        """Run every state rule; called with the kernel flag released.

        One pass per kind of object: mutexes (the counter sums folded
        in), condition variables, then one walk of the thread table for
        the four rules over threads.  The rule order is fixed, so the
        first broken rule is the one reported: the thread walk notes
        the first breach of each of its rules, and each is raised at
        its rule's place in that order.  A registry that is empty has
        nothing to see.
        """
        self.checks_run += 1
        self._sweep_mutexes(runtime.mutex_ops)
        if self.conds:
            self._sweep_conds()
        lost_wakeup, thread_breach, unbalanced = self._sweep_threads(runtime)
        if lost_wakeup is not None:
            self._fail("cond-lost-wakeup", lost_wakeup)
        if self.rwlocks:
            self._check_rwlocks()
        if self.sems:
            self._check_sems()
        if self.workqueues:
            self._check_workqueues()
        if thread_breach is not None:
            self._fail(*thread_breach)
        if unbalanced is not None:
            self.check_cleanup_balance(unbalanced)
        if runtime.net is not None and runtime.net.epoll_instances:
            self._check_epoll(runtime)
        if runtime.world.smp is not None:
            self._check_smp(runtime.world.smp)

    def on_smp_step(self, world) -> None:
        """Periodic sweep for SMP-executor runs (no library kernel)."""
        self.checks_run += 1
        if world.smp is not None:
            self._check_smp(world.smp)

    # -- state rules --------------------------------------------------------

    def _sweep_mutexes(self, ops) -> None:
        """The mutex rules on every mutex, then ``mutex-counter-agreement``
        over the per-mutex counters summed on the way."""
        contentions = handoffs = 0
        for m in self.mutexes:
            contentions += m.contentions
            handoffs += m.handoffs
            owner = m.owner
            waiters = m.waiters.order
            if m.destroyed:
                if m.locked or owner is not None or waiters:
                    self._fail(
                        "mutex-destroyed-clean",
                        "%r destroyed but still in use" % m,
                    )
                continue
            locked = m.locked
            if locked != (owner is not None):
                self._fail(
                    "mutex-owner-cell",
                    "%r: cell=%d but owner=%s"
                    % (m, m.cell.value, owner and owner.name),
                )
            if owner is not None:
                if not owner.alive:
                    self._fail(
                        "mutex-owner-dead",
                        "%r held by %s, which terminated without unlocking"
                        % (m, owner.name),
                    )
                if owner in waiters:
                    self._fail(
                        "mutex-owner-queued",
                        "%r: owner %s is also queued on it" % (m, owner.name),
                    )
            if not waiters:
                continue
            if not locked:
                self._fail(
                    "mutex-free-with-waiters",
                    "%r: unlocked but %d waiters queued" % (m, len(waiters)),
                )
            for tcb in waiters:
                wait = tcb.wait
                if (
                    tcb.state is not ThreadState.BLOCKED
                    or wait is None
                    or wait.kind != "mutex"
                    or wait.obj is not m
                ):
                    self._fail(
                        "mutex-waiter-state",
                        "%s queued on %r but its wait is %r (state %s)"
                        % (tcb.name, m, wait, tcb.state.value),
                    )
        self._check_counter_sums(ops, contentions, handoffs)

    def _check_counter_sums(
        self, ops, contentions: int, handoffs: int
    ) -> None:
        if contentions != ops.contentions:
            self._fail(
                "mutex-counter-agreement",
                "per-mutex contentions sum to %d, run-wide total is %d"
                % (contentions, ops.contentions),
            )
        if handoffs != ops.handoffs:
            self._fail(
                "mutex-counter-agreement",
                "per-mutex handoffs sum to %d, run-wide total is %d"
                % (handoffs, ops.handoffs),
            )

    def _sweep_conds(self) -> None:
        for c in self.conds:
            waiters = c.waiters.order
            if not waiters:
                continue
            if c.destroyed:
                self._fail(
                    "cond-destroyed-clean",
                    "%r destroyed with %d waiters" % (c, len(waiters)),
                )
            for tcb in waiters:
                wait = tcb.wait
                if (
                    tcb.state is not ThreadState.BLOCKED
                    or wait is None
                    or wait.kind != "cond"
                    or wait.obj is not c
                ):
                    self._fail(
                        "cond-waiter-state",
                        "%s queued on %r but its wait is %r (state %s)"
                        % (tcb.name, c, wait, tcb.state.value),
                    )

    def _sweep_threads(
        self, runtime: "PthreadsRuntime"
    ) -> Tuple[Optional[str], Optional[Tuple[str, str]], Optional[Tcb]]:
        """One walk of the thread table for its four rules.

        Returns ``(lost_wakeup, thread_breach, unbalanced)``, each None
        where its rule holds: the detail of the first
        ``cond-lost-wakeup``; ``(rule, detail)`` of the first thread
        breaking ``priority-boost-bounds`` or ``net-parked-on-closed``
        (in that order within a thread); and the first zombie that
        breaks ``cleanup-balance``.
        """
        lost_wakeup = thread_breach = unbalanced = None
        for tcb in runtime.threads.values():
            effective = tcb.effective_priority
            base = tcb.base_priority
            if effective != base and thread_breach is None:
                if effective < base:
                    thread_breach = (
                        "priority-boost-bounds",
                        "%s: effective %d below base %d"
                        % (tcb.name, effective, base),
                    )
                elif not tcb.held_mutexes and not tcb.srp_stack:
                    thread_breach = (
                        "priority-boost-bounds",
                        "%s: boosted to %d holding nothing (base %d)"
                        % (tcb.name, effective, base),
                    )
            wait = tcb.wait
            if wait is not None:
                kind = wait.kind
                if kind == "cond":
                    # cond-lost-wakeup, the converse of cond-waiter-state:
                    # a thread blocked "on a condvar" but missing from
                    # that condvar's queue can never be signalled.
                    if (
                        lost_wakeup is None
                        and tcb.state is ThreadState.BLOCKED
                        and tcb not in wait.obj.waiters.order
                    ):
                        lost_wakeup = (
                            "%s waits on %r but is not in its queue"
                            % (tcb.name, wait.obj)
                        )
                elif kind == "io" and thread_breach is None:
                    request = wait.data["request"]
                    sock = request.sock
                    if (
                        sock is not None
                        and sock.state == "closed"
                        and not request.done
                    ):
                        thread_breach = (
                            "net-parked-on-closed",
                            "%s parked in %s on closed %r"
                            % (tcb.name, request.op, sock),
                        )
            if (
                tcb.cleanup_stack
                and unbalanced is None
                and tcb.state is ThreadState.TERMINATED
            ):
                unbalanced = tcb
        return lost_wakeup, thread_breach, unbalanced

    def _check_rwlocks(self) -> None:
        for rw in self.rwlocks:
            if rw.active_readers < 0 or rw.waiting_writers < 0:
                self._fail(
                    "rwlock-counts",
                    "%r: negative bookkeeping" % rw,
                )
            if rw.active_writer is not None and rw.active_readers > 0:
                self._fail(
                    "rwlock-exclusion",
                    "%r: writer %s active alongside %d readers"
                    % (rw, rw.active_writer.name, rw.active_readers),
                )
            if rw.waiting_writers < len(rw.writers_cond.waiters):
                self._fail(
                    "rwlock-writer-claims",
                    "%r: %d queued writers but only %d claims"
                    % (rw, len(rw.writers_cond.waiters), rw.waiting_writers),
                )

    def _check_sems(self) -> None:
        for s in self.sems:
            if s.count < 0:
                self._fail(
                    "sem-count", "%r: negative count" % s
                )
            if s.mutex.destroyed != s.cond.destroyed:
                self._fail(
                    "sem-half-destroyed",
                    "%r: mutex destroyed=%s but cond destroyed=%s"
                    % (s, s.mutex.destroyed, s.cond.destroyed),
                )

    def _check_workqueues(self) -> None:
        for wq in self.workqueues:
            enq = wq.enqueued
            deq = wq.dequeued
            depth = len(wq.items)
            if deq > enq:
                self._fail(
                    "workqueue-counts",
                    "%r: dequeued %d exceeds enqueued %d" % (wq, deq, enq),
                )
            if enq - deq != depth:
                self._fail(
                    "workqueue-depth",
                    "%r: enqueued %d - dequeued %d != depth %d"
                    % (wq, enq, deq, depth),
                )

    def _check_smp(self, smp) -> None:
        """Per-CPU run-queue disjointness on the SMP machine.

        A task may appear on at most one CPU's run queue, never on two
        (a stolen task must leave its victim's queue), never while it
        is some CPU's current task, and a queue may not hold the same
        task twice.  The same rule the dispatcher's single ready queue
        gets for free becomes an invariant worth checking the moment
        there are N queues and a migration path between them.
        """
        seen = {}
        for cpu in smp.cpus:
            current = cpu.current
            if current is not None:
                if id(current) in seen:
                    self._fail(
                        "smp-runq-disjoint",
                        "task %s is current on cpu%d but also %s"
                        % (current.name, cpu.index, seen[id(current)]),
                    )
                seen[id(current)] = "current on cpu%d" % cpu.index
            for task in cpu.sched.runq:
                where = "queued on cpu%d" % cpu.index
                if id(task) in seen:
                    self._fail(
                        "smp-runq-disjoint",
                        "task %s is %s and %s"
                        % (task.name, seen[id(task)], where),
                    )
                seen[id(task)] = where
                if task.cpu != cpu.index:
                    self._fail(
                        "smp-runq-disjoint",
                        "task %s sits on cpu%d's queue but claims cpu%d"
                        % (task.name, cpu.index, task.cpu),
                    )

    def _check_epoll(self, runtime: "PthreadsRuntime") -> None:
        """Every epoll registration is one :class:`EpollItem`, and the
        places that name it agree: an instance's ``ready`` entry is its
        ``interest`` entry, and each interest entry sits exactly once on
        the chain of a socket that is still open, a chain whose every
        item is its own instance's interest entry.  A close that skips
        the purge leaves an entry on a closed socket, whose descriptor
        may already name another one.
        """
        for ep in runtime.fds.entries.values():
            if not isinstance(ep, EpollInstance):
                continue
            if any(ep.interest.get(fd) is not x for fd, x in ep.ready.items()):
                self._fail(
                    "net-epoll-registration",
                    "%r: a ready entry is not its interest entry" % ep,
                )
            for fd, item in ep.interest.items():
                chain, link = [], item.sock.epitems
                while link is not None:
                    chain.append(link)
                    link = link.next
                if (
                    item.sock.state == "closed"
                    or chain.count(item) != 1
                    or any(x.ep.interest.get(x.fd) is not x for x in chain)
                ):
                    self._fail(
                        "net-epoll-registration",
                        "%r: fd %d registered on %r, chained %d times among %d"
                        % (ep, fd, item.sock, chain.count(item), len(chain)),
                    )

    def check_cleanup_balance(self, tcb: Tcb) -> None:
        """``cleanup-balance`` on one thread: the sweep runs it on every
        zombie, and ``ThreadOps._reclaim`` on a thread leaving the table
        (a detached thread leaves before any sweep sees it dead)."""
        if tcb.state is ThreadState.TERMINATED and tcb.cleanup_stack:
            self._fail(
                "cleanup-balance",
                "%s terminated with %d cleanup handlers pushed"
                % (tcb.name, len(tcb.cleanup_stack)),
            )

    # -- end-of-run rules ---------------------------------------------------

    def check_quiescent(self, runtime: "PthreadsRuntime") -> None:
        """Rules for a run that completed cleanly: everything idle.

        Leaked claims show up here -- a cancelled writer that never
        withdrew its ``waiting_writers`` increment leaves the count
        nonzero forever, with no live thread to account for it.
        """
        self.checks_run += 1
        self._check_counter_sums(
            runtime.mutex_ops,
            sum(m.contentions for m in self.mutexes),
            sum(m.handoffs for m in self.mutexes),
        )
        for m in self.mutexes:
            if m.destroyed:
                continue
            if m.locked or m.owner is not None or m.waiters:
                self._fail(
                    "quiescent-mutex",
                    "%r still held at end of run" % m,
                )
        for c in self.conds:
            if c.waiters:
                self._fail(
                    "quiescent-cond",
                    "%r still has waiters at end of run" % c,
                )
        for wq in self.workqueues:
            if wq.items or not wq.closed:
                self._fail(
                    "quiescent-workqueue",
                    "%r not drained and closed at end of run" % wq,
                )
            if wq.dequeued != wq.enqueued:
                self._fail(
                    "quiescent-workqueue",
                    "%r: %d enqueued but only %d ever dequeued"
                    % (wq, wq.enqueued, wq.dequeued),
                )
        for rw in self.rwlocks:
            if (
                rw.active_readers
                or rw.active_writer is not None
                or rw.waiting_writers
            ):
                self._fail(
                    "quiescent-rwlock",
                    "%r not idle at end of run (readers=%d, writer=%s, "
                    "waiting_writers=%d)"
                    % (
                        rw,
                        rw.active_readers,
                        rw.active_writer and rw.active_writer.name,
                        rw.waiting_writers,
                    ),
                )
