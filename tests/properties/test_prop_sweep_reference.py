"""The fused invariant sweep judges every state as the rule methods did.

:meth:`CheckContext.on_kernel_release` runs its rules as one pass per
kind of object -- mutexes with the counter sums folded in, condition
variables, one walk of the thread table -- and raises the first breach
in a fixed rule order.  :class:`ReferenceRules` keeps the sweep it
replaced, one method per group of rules run in that same order, as a
test-side oracle.  At every kernel release of a checked run both
judge the same state: they must raise the same ``(rule, detail)``, or
both pass.

Two sources of states: random walks of every workload in
:mod:`repro.check.workloads`, with and without each preseeded bug
(:mod:`repro.check.preseed`), and hand-corrupted states -- a random
walk stopped part way, then one to three random breaches applied, so
several rules break at once and the reported one depends on the rule
order.
"""

import random

import pytest

from repro.check import explore as explore_mod
from repro.check.explore import Explorer
from repro.check.invariants import CheckContext, InvariantViolation
from repro.check.preseed import BUGS, preseeded
from repro.check.schedule import ScriptedChoices
from repro.check.workloads import (
    cond_relay,
    epoll_server,
    pooled_server,
    smp_timer_mutex,
    writer_cancel,
)
from repro.core.config import RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.core.tcb import Tcb, ThreadState, WaitRecord
from repro.sched.perverted import EnumerableSwitchPolicy
from repro.sim.frames import ProgramCrash
from repro.sim.rng import DeterministicRng
from repro.sim.world import DeadlockError
from repro.unix.net import EpollInstance

#: name -> (workload factory, simulated CPUs), every workload of
#: repro.check.workloads.
WORKLOADS = {
    "cond_relay": (lambda: cond_relay(waiters=2), 1),
    "writer_cancel": (lambda: writer_cancel(), 1),
    "pooled_server": (lambda: pooled_server(clients=3, workers=2), 1),
    "epoll_server": (lambda: epoll_server(clients=3), 1),
    "smp_timer_mutex": (lambda: smp_timer_mutex(), 2),
}
WALKS = 12


class ReferenceRules:
    """The rule methods the fused sweep replaced, kept as they were.

    Reads the registries of a :class:`CheckContext`; raising counts
    nothing on it.
    """

    def __init__(self, ctx: CheckContext) -> None:
        self.mutexes = ctx.mutexes
        self.conds = ctx.conds
        self.rwlocks = ctx.rwlocks
        self.sems = ctx.sems
        self.workqueues = ctx.workqueues

    def _fail(self, rule: str, detail: str) -> None:
        raise InvariantViolation(rule, detail)

    def sweep(self, runtime) -> None:
        if self.mutexes:
            self._check_mutexes()
        self._check_counters(runtime)
        self._check_conds(runtime)
        if self.rwlocks:
            self._check_rwlocks()
        if self.sems:
            self._check_sems()
        if self.workqueues:
            self._check_workqueues()
        self._check_threads(runtime)
        if runtime.net is not None and runtime.net.epoll_instances:
            self._check_epoll(runtime)
        if runtime.world.smp is not None:
            self._check_smp(runtime.world.smp)

    def _check_mutexes(self) -> None:
        for m in self.mutexes:
            if m.destroyed:
                if m.locked or m.owner is not None or m.waiters:
                    self._fail(
                        "mutex-destroyed-clean",
                        "%r destroyed but still in use" % m,
                    )
                continue
            if m.locked != (m.owner is not None):
                self._fail(
                    "mutex-owner-cell",
                    "%r: cell=%d but owner=%s"
                    % (m, m.cell.value, m.owner and m.owner.name),
                )
            if m.owner is not None and not m.owner.alive:
                self._fail(
                    "mutex-owner-dead",
                    "%r held by %s, which terminated without unlocking"
                    % (m, m.owner.name),
                )
            if m.owner is not None and m.owner in m.waiters:
                self._fail(
                    "mutex-owner-queued",
                    "%r: owner %s is also queued on it" % (m, m.owner.name),
                )
            if not m.locked and m.waiters:
                self._fail(
                    "mutex-free-with-waiters",
                    "%r: unlocked but %d waiters queued" % (m, len(m.waiters)),
                )
            for tcb in m.waiters:
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

    def _check_counters(self, runtime: "PthreadsRuntime") -> None:
        ops = runtime.mutex_ops
        contentions = handoffs = 0
        for m in self.mutexes:
            contentions += m.contentions
            handoffs += m.handoffs
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

    def _check_conds(self, runtime: "PthreadsRuntime") -> None:
        for c in self.conds:
            if c.destroyed and c.waiters:
                self._fail(
                    "cond-destroyed-clean",
                    "%r destroyed with %d waiters" % (c, len(c.waiters)),
                )
            for tcb in c.waiters:
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
        # The converse is the lost-wakeup rule: a thread blocked "on a
        # condvar" but missing from that condvar's queue can never be
        # signalled.
        for tcb in runtime.threads.values():
            wait = tcb.wait
            if (
                wait is not None
                and wait.kind == "cond"
                and tcb.state is ThreadState.BLOCKED
                and tcb not in wait.obj.waiters
            ):
                self._fail(
                    "cond-lost-wakeup",
                    "%s waits on %r but is not in its queue"
                    % (tcb.name, wait.obj),
                )

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

    def _check_threads(self, runtime: "PthreadsRuntime") -> None:
        for tcb in runtime.threads.values():
            if tcb.effective_priority < tcb.base_priority:
                self._fail(
                    "priority-boost-bounds",
                    "%s: effective %d below base %d"
                    % (tcb.name, tcb.effective_priority, tcb.base_priority),
                )
            if (
                not tcb.held_mutexes
                and not tcb.srp_stack
                and tcb.effective_priority != tcb.base_priority
            ):
                self._fail(
                    "priority-boost-bounds",
                    "%s: boosted to %d holding nothing (base %d)"
                    % (tcb.name, tcb.effective_priority, tcb.base_priority),
                )
            wait = tcb.wait
            if wait is not None and wait.kind == "io":
                request = wait.data["request"]
                sock = request.sock
                if (
                    sock is not None
                    and sock.state == "closed"
                    and not request.done
                ):
                    self._fail(
                        "net-parked-on-closed",
                        "%s parked in %s on closed %r"
                        % (tcb.name, request.op, sock),
                    )
        for tcb in runtime.threads.values():
            if tcb.cleanup_stack and tcb.state is ThreadState.TERMINATED:
                self.check_cleanup_balance(tcb)

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


def judge(sweep, runtime):
    """``(rule, detail)`` of the breach ``sweep`` raises, else None."""
    try:
        sweep(runtime)
    except InvariantViolation as exc:
        return exc.rule, exc.detail
    return None


class DualContext(CheckContext):
    """A check context that judges every release twice: by the
    reference, then by the fused sweep, and keeps both verdicts."""

    def __init__(self, choices=None) -> None:
        super().__init__(choices)
        self.reference = ReferenceRules(self)
        #: (reference verdict, fused verdict) per kernel release
        self.verdicts = []

    def on_kernel_release(self, runtime) -> None:
        expected = judge(self.reference.sweep, runtime)
        try:
            super().on_kernel_release(runtime)
        except InvariantViolation as exc:
            self.verdicts.append((expected, (exc.rule, exc.detail)))
            raise
        self.verdicts.append((expected, None))


def _disagreements(contexts):
    return [
        (index, expected, got)
        for ctx in contexts
        for index, (expected, got) in enumerate(ctx.verdicts)
        if expected != got
    ]


def _explore(monkeypatch, name, bug, runs, seed):
    """Random walks of ``name`` with ``bug`` seeded, every release
    judged twice; returns the report and the walks' contexts."""
    contexts = []

    def dual(choices):
        contexts.append(DualContext(choices))
        return contexts[-1]

    monkeypatch.setattr(explore_mod, "CheckContext", dual)
    factory, ncpus = WORKLOADS[name]
    with preseeded(bug):
        report = Explorer(factory, priority=100, ncpus=ncpus).explore_random(
            runs=runs, seed=seed
        )
    return report, contexts


@pytest.mark.parametrize("bug", [None] + sorted(BUGS))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_random_walks_judge_as_the_reference(monkeypatch, name, bug):
    report, contexts = _explore(monkeypatch, name, bug, runs=WALKS, seed=7)
    assert report.schedules_explored > 0
    assert sum(len(ctx.verdicts) for ctx in contexts) > 0
    assert _disagreements(contexts) == []


@pytest.mark.parametrize(
    "name, bug",
    [("cond_relay", "grant-to-waker"), ("writer_cancel", "wrlock-cancel")],
)
def test_each_preseeded_bug_is_judged_broken_alike(monkeypatch, name, bug):
    """Exploration finds each bug, so the comparison covers a breach
    reached by a schedule, not only passing states."""
    report, contexts = _explore(monkeypatch, name, bug, runs=60, seed=1234)
    assert report.failures
    assert any(got for ctx in contexts for __, got in ctx.verdicts)
    assert _disagreements(contexts) == []


# -- hand-corrupted states ---------------------------------------------------


def _pick(rng, items):
    items = list(items)
    return rng.choice(items) if items else None


def _corrupt_mutex_cell(rt, ctx, rng):
    m = _pick(rng, ctx.mutexes)
    if m is None:
        return False
    m.cell.value = 0 if m.locked else 0xFF
    return True


def _corrupt_mutex_owner(rt, ctx, rng):
    m = _pick(rng, ctx.mutexes)
    if m is None:
        return False
    m.owner = _pick(rng, list(rt.threads.values()) + [None])
    return True


def _corrupt_mutex_destroyed(rt, ctx, rng):
    m = _pick(rng, ctx.mutexes)
    if m is None:
        return False
    m.destroyed = True
    return True


def _corrupt_mutex_queue(rt, ctx, rng):
    m = _pick(rng, ctx.mutexes)
    tcb = _pick(rng, rt.threads.values())
    if m is None or tcb is None or tcb in m.waiters:
        return False
    if rng.random() < 0.5:  # held, so the queue itself is judged
        m.cell.value = 0xFF
        m.owner = _pick(rng, [tcb, _pick(rng, rt.threads.values())])
    m.waiters.add(tcb)
    return True


def _corrupt_mutex_counter(rt, ctx, rng):
    m = _pick(rng, ctx.mutexes)
    if m is None:
        return False
    if rng.random() < 0.5:
        m.contentions += 1
    else:
        m.handoffs += 1
    return True


def _corrupt_cond_destroyed(rt, ctx, rng):
    c = _pick(rng, ctx.conds)
    if c is None:
        return False
    c.destroyed = True
    return True


def _corrupt_cond_queue(rt, ctx, rng):
    c = _pick(rng, ctx.conds)
    tcb = _pick(rng, rt.threads.values())
    if c is None or tcb is None or tcb in c.waiters:
        return False
    c.waiters.add(tcb)
    return True


def _corrupt_cond_dequeue(rt, ctx, rng):
    """Waiters taken off a condvar queue: lost wakeups, unless the
    thread is also marked runnable."""
    c = _pick(rng, [c for c in ctx.conds if c.waiters])
    if c is None:
        return False
    choice = rng.randrange(3)
    for tcb in list(c.waiters) if choice == 1 else [_pick(rng, c.waiters)]:
        c.waiters.remove(tcb)
        if choice == 2:
            tcb.state = ThreadState.READY
    return True


def _corrupt_queued_wait(rt, ctx, rng):
    """A thread queued on a held mutex or a condvar, with a wait
    record that matches the queue in all but a random part."""
    queue_on = _pick(rng, ctx.mutexes + ctx.conds)
    tcb = _pick(rng, rt.threads.values())
    if queue_on is None or tcb is None or tcb in queue_on.waiters:
        return False
    kind = "cond" if queue_on in ctx.conds else "mutex"
    if kind == "mutex":
        queue_on.cell.value = 0xFF
        others = [t for t in rt.threads.values() if t is not tcb]
        queue_on.owner = _pick(rng, others)
    obj = queue_on
    choice = rng.randrange(4)
    if choice == 1:
        kind = "mutex" if kind == "cond" else "cond"
    elif choice == 2:
        obj = _pick(
            rng, [o for o in ctx.mutexes + ctx.conds if o is not queue_on]
        )
    tcb.state = ThreadState.READY if choice == 3 else ThreadState.BLOCKED
    tcb.wait = WaitRecord(kind, obj, None)
    queue_on.waiters.add(tcb)
    return True


def _corrupt_unqueued_waits(rt, ctx, rng):
    """Threads blocked on a condvar they are not queued on."""
    c = _pick(rng, ctx.conds)
    if c is None:
        return False
    threads = [t for t in rt.threads.values() if t not in c.waiters]
    if not threads:
        return False
    for tcb in rng.sample(threads, min(len(threads), rng.randrange(1, 4))):
        tcb.state = ThreadState.BLOCKED
        tcb.wait = WaitRecord("cond", c, None)
    return True


def _corrupt_wait(rt, ctx, rng):
    """A mutex or condvar wait that no longer matches its queue."""
    tcb = _pick(
        rng,
        [
            t for t in rt.threads.values()
            if t.wait is not None and t.wait.kind in ("mutex", "cond")
        ],
    )
    if tcb is None:
        return False
    choice = rng.randrange(3)
    if choice == 0:
        tcb.state = ThreadState.READY
    elif choice == 1:
        tcb.wait.obj = _pick(rng, ctx.conds + ctx.mutexes)
    else:
        tcb.wait.kind = "cond" if tcb.wait.kind == "mutex" else "mutex"
    return True


def _corrupt_priority(rt, ctx, rng):
    tcb = _pick(rng, rt.threads.values())
    if tcb is None:
        return False
    tcb.effective_priority = tcb.base_priority + rng.choice((-3, -1, 1, 5))
    choice = rng.randrange(3)
    if choice == 1:
        tcb.srp_stack.append(tcb.base_priority)
    elif choice == 2:
        tcb.held_mutexes.append(_pick(rng, ctx.mutexes))
    return True


def _corrupt_cleanup(rt, ctx, rng):
    tcb = _pick(rng, rt.threads.values())
    if tcb is None:
        return False
    tcb.cleanup_stack.append(object())
    if rng.random() < 0.5:
        tcb.state = ThreadState.TERMINATED
    return True


def _corrupt_rwlock(rt, ctx, rng):
    rw = _pick(rng, ctx.rwlocks)
    if rw is None:
        return False
    choice = rng.randrange(3)
    if choice == 0:
        rw.active_readers = -1
    elif choice == 1:
        rw.waiting_writers = len(rw.writers_cond.waiters) - 1
    else:
        rw.active_writer = _pick(rng, rt.threads.values())
        rw.active_readers += 1
    return True


def _corrupt_sem(rt, ctx, rng):
    sem = _pick(rng, ctx.sems) or rt.sem_ops.lib_sem_init(None, 1)
    if rng.random() < 0.5:
        sem.count = -1
    else:
        sem.cond.destroyed = True
    return True


def _corrupt_workqueue(rt, ctx, rng):
    wq = _pick(rng, ctx.workqueues)
    if wq is None:
        return False
    if rng.random() < 0.5:
        wq.dequeued += 1
    else:
        wq.enqueued += 1
    return True


def _corrupt_parked_socket(rt, ctx, rng):
    tcb = _pick(
        rng,
        [
            t for t in rt.threads.values()
            if t.wait is not None and t.wait.kind == "io"
            and t.wait.data["request"].sock is not None
        ],
    )
    if tcb is None:
        return False
    request = tcb.wait.data["request"]
    request.sock.state = "closed"
    request.done = rng.random() < 0.3
    return True


def _corrupt_epoll(rt, ctx, rng):
    ep = _pick(
        rng,
        [
            e for e in rt.fds.entries.values()
            if isinstance(e, EpollInstance) and e.interest
        ],
    )
    if ep is None:
        return False
    del ep.interest[_pick(rng, ep.interest)]
    return True


CORRUPTIONS = (
    _corrupt_mutex_cell,
    _corrupt_mutex_owner,
    _corrupt_mutex_destroyed,
    _corrupt_mutex_queue,
    _corrupt_mutex_counter,
    _corrupt_cond_destroyed,
    _corrupt_cond_queue,
    _corrupt_cond_dequeue,
    _corrupt_queued_wait,
    _corrupt_unqueued_waits,
    _corrupt_wait,
    _corrupt_priority,
    _corrupt_cleanup,
    _corrupt_rwlock,
    _corrupt_sem,
    _corrupt_workqueue,
    _corrupt_parked_socket,
    _corrupt_epoll,
)


def _waiting(rt, kind):
    return any(
        t.wait is not None and t.wait.kind == kind for t in rt.threads.values()
    )


def _walked(name, seed, steps, wait_kind=None):
    """A checked runtime of ``name`` after a random walk of ``steps``,
    walked on, if ``wait_kind`` is given, until some thread waits so
    (or 300 more steps pass)."""
    factory, ncpus = WORKLOADS[name]
    ctx = DualContext(
        ScriptedChoices((), rng=DeterministicRng(seed), max_branch=4)
    )
    rt = PthreadsRuntime(
        config=RuntimeConfig(pool_size=16),
        policy=EnumerableSwitchPolicy(),
        check=ctx,
        ncpus=ncpus,
    )
    try:
        rt.main(factory(), priority=100)
        rt.run(max_steps=steps)
        while (
            wait_kind is not None
            and not _waiting(rt, wait_kind)
            and rt.steps < steps + 300
            and any(t.alive for t in rt.threads.values())
        ):
            rt.run(max_steps=rt.steps + 1)
    except (InvariantViolation, DeadlockError, ProgramCrash):
        pass
    return rt, ctx


#: The rules the fused passes judge: each must be reached by the
#: corrupted states below, or a dropped condition could go unseen.
FUSED_RULES = {
    "mutex-destroyed-clean",
    "mutex-owner-cell",
    "mutex-owner-dead",
    "mutex-owner-queued",
    "mutex-free-with-waiters",
    "mutex-waiter-state",
    "mutex-counter-agreement",
    "cond-destroyed-clean",
    "cond-waiter-state",
    "cond-lost-wakeup",
    "priority-boost-bounds",
    "net-parked-on-closed",
    "cleanup-balance",
}


def _compare(ctx, rt, disagreements, reached, label):
    expected = judge(ctx.reference.sweep, rt)
    got = judge(CheckContext.on_kernel_release.__get__(ctx), rt)
    if got != expected:
        disagreements.append(label + (expected, got))
    if expected is not None:
        reached.add(expected[0])


def judge_corrupted(seed):
    """Judge corrupted states of every workload, four seeds each.

    Each state is a random walk stopped at a random step -- walked on
    until some thread waits on a mutex, a condvar or I/O, for three of
    the four stops -- then broken by one corruption, judged, broken by
    up to two more drawn at random, and judged again.  Returns
    (disagreements, rules reached, corruption -> states it applied to).
    """
    rng = random.Random(seed)
    disagreements, reached, applied = [], set(), {}
    for corruption in CORRUPTIONS:
        for name in sorted(WORKLOADS):
            for wait_kind in (None, "mutex", "cond", "io"):
                for _ in range(4):
                    rt, ctx = _walked(
                        name, rng.randrange(2**16), rng.randrange(1, 50),
                        wait_kind,
                    )
                    if not corruption(rt, ctx, random.Random(rng.random())):
                        continue
                    applied[corruption] = applied.get(corruption, 0) + 1
                    label = (corruption.__name__, name)
                    _compare(ctx, rt, disagreements, reached, label)
                    for _ in range(rng.randrange(3)):
                        extra = rng.choice(CORRUPTIONS)
                        extra(rt, ctx, random.Random(rng.random()))
                    _compare(ctx, rt, disagreements, reached, label)
    return disagreements, reached, applied


@pytest.fixture(scope="module")
def corrupted():
    return judge_corrupted(seed=2024)


def test_corrupted_states_judge_as_the_reference(corrupted):
    disagreements, __, __ = corrupted
    assert disagreements == []


def test_corruptions_reach_every_fused_rule(corrupted):
    __, reached, applied = corrupted
    assert set(applied) == set(CORRUPTIONS)
    assert FUSED_RULES - reached == set()
