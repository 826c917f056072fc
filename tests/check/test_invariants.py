"""The invariant rules: healthy state passes, corrupted state fires."""

import pytest

from repro.check.explore import Explorer
from repro.check.invariants import CheckContext, InvariantViolation
from repro.check.workloads import cond_relay, epoll_server, pooled_server
from repro.core.config import RuntimeConfig
from repro.core.errors import EBADF
from repro.core.runtime import PthreadsRuntime
from repro.core.tcb import ThreadState, WaitRecord
from repro.unix.net import EpollItem, NetStack


def checked_runtime():
    check = CheckContext()
    runtime = PthreadsRuntime(
        config=RuntimeConfig(pool_size=16), check=check
    )
    return runtime, check


def test_healthy_run_passes_every_sweep():
    runtime, check = checked_runtime()
    runtime.main(cond_relay(waiters=2), priority=100)
    runtime.run()
    assert check.checks_run > 0
    assert check.violations_found == 0
    check.check_quiescent(runtime)  # must not raise


def test_internal_objects_are_registered():
    runtime, check = checked_runtime()
    sem = runtime.sem_ops.lib_sem_init(None, 1)
    rw = runtime.rwlock_ops.lib_rwlock_init(None, "r")
    assert sem in check.sems
    assert rw in check.rwlocks
    assert sem.mutex in check.mutexes and sem.cond in check.conds


def test_owner_cell_mismatch_fires():
    runtime, check = checked_runtime()
    mutex = runtime.mutex_ops.lib_mutex_init(None)
    mutex.cell.value = 0xFF  # locked cell, no owner recorded
    with pytest.raises(InvariantViolation, match="mutex-owner-cell"):
        check.on_kernel_release(runtime)


def test_counter_disagreement_fires():
    runtime, check = checked_runtime()
    mutex = runtime.mutex_ops.lib_mutex_init(None)
    mutex.contentions += 1  # per-mutex count without the run-wide twin
    with pytest.raises(InvariantViolation, match="mutex-counter-agreement"):
        check.on_kernel_release(runtime)
    assert check.violations_found == 1


def test_dead_owner_fires():
    runtime, check = checked_runtime()
    runtime.main(cond_relay(waiters=1), priority=100)
    runtime.run()
    mutex = runtime.mutex_ops.lib_mutex_init(None)
    dead = next(
        t
        for t in runtime.threads.values()
        if t.state is ThreadState.TERMINATED
    )
    mutex.cell.value = 0xFF
    mutex.owner = dead
    with pytest.raises(InvariantViolation, match="mutex-owner-dead"):
        check.on_kernel_release(runtime)


def test_rwlock_negative_bookkeeping_fires():
    runtime, check = checked_runtime()
    rw = runtime.rwlock_ops.lib_rwlock_init(None, "r")
    rw.waiting_writers = -1
    with pytest.raises(InvariantViolation, match="rwlock-counts"):
        check.on_kernel_release(runtime)


def test_sem_half_destroy_fires():
    runtime, check = checked_runtime()
    sem = runtime.sem_ops.lib_sem_init(None, 1)
    sem.cond.destroyed = True  # mutex still alive: torn object
    with pytest.raises(InvariantViolation, match="sem-half-destroyed"):
        check.on_kernel_release(runtime)


def test_cleanup_imbalance_at_termination_fires():
    runtime, check = checked_runtime()
    runtime.main(cond_relay(waiters=1), priority=100)
    runtime.run()
    dead = next(
        t
        for t in runtime.threads.values()
        if t.state is ThreadState.TERMINATED
    )
    dead.cleanup_stack.append(object())
    with pytest.raises(InvariantViolation, match="cleanup-balance"):
        check.on_kernel_release(runtime)


def _block_on(tcb, kind, obj):
    tcb.state = ThreadState.BLOCKED
    tcb.wait = WaitRecord(kind, obj, None)


def _held_by(mutex, tcb):
    mutex.cell.value = 0xFF
    mutex.owner = tcb


def _queue_owner(rt, live, zombie):
    m = rt.mutex_ops.lib_mutex_init(None)
    _held_by(m, live)
    m.waiters.add(live)


def _queue_on_free(rt, live, zombie):
    m = rt.mutex_ops.lib_mutex_init(None)
    _block_on(live, "mutex", m)
    m.waiters.add(live)


def _queue_zombie(rt, live, zombie):
    m = rt.mutex_ops.lib_mutex_init(None)
    _held_by(m, live)
    m.waiters.add(zombie)


def _queue_on_other_mutex(rt, live, zombie):
    m = rt.mutex_ops.lib_mutex_init(None)
    _held_by(m, rt.main(cond_relay(waiters=1), name="owner", priority=100))
    _block_on(live, "mutex", rt.mutex_ops.lib_mutex_init(None))
    m.waiters.add(live)


def _destroy_held(rt, live, zombie):
    m = rt.mutex_ops.lib_mutex_init(None)
    _held_by(m, live)
    m.destroyed = True


def _cond_queue_unblocked(rt, live, zombie):
    rt.cond_ops.lib_cond_init(None).waiters.add(live)


def _cond_wait_unqueued(rt, live, zombie):
    _block_on(live, "cond", rt.cond_ops.lib_cond_init(None))


def _destroy_waited_cond(rt, live, zombie):
    c = rt.cond_ops.lib_cond_init(None)
    _block_on(live, "cond", c)
    c.waiters.add(live)
    c.destroyed = True


def _writer_beside_reader(rt, live, zombie):
    rw = rt.rwlock_ops.lib_rwlock_init(None, "r")
    rw.active_writer = live
    rw.active_readers = 1


def _unclaimed_writer(rt, live, zombie):
    rw = rt.rwlock_ops.lib_rwlock_init(None, "r")
    _block_on(live, "cond", rw.writers_cond)
    rw.writers_cond.waiters.add(live)


def _negative_sem(rt, live, zombie):
    rt.sem_ops.lib_sem_init(None, 1).count = -1


class _Queue:
    """A work queue as the rules see one (``repro.net.servers``)."""

    def __init__(self, depth, enqueued, dequeued):
        self.items = [None] * depth
        self.enqueued = enqueued
        self.dequeued = dequeued
        self.closed = False


def _overdrawn_queue(rt, live, zombie):
    rt.check.register_workqueue(_Queue(0, 1, 2))


def _queue_losing_an_item(rt, live, zombie):
    rt.check.register_workqueue(_Queue(0, 2, 1))


def _below_base(rt, live, zombie):
    live.effective_priority = live.base_priority - 1


def _boosted_holding_nothing(rt, live, zombie):
    live.effective_priority = live.base_priority + 1


@pytest.mark.parametrize(
    "rule, corrupt",
    [
        ("mutex-owner-queued", _queue_owner),
        ("mutex-free-with-waiters", _queue_on_free),
        ("mutex-waiter-state", _queue_zombie),
        ("mutex-waiter-state", _queue_on_other_mutex),
        ("mutex-destroyed-clean", _destroy_held),
        ("cond-waiter-state", _cond_queue_unblocked),
        ("cond-lost-wakeup", _cond_wait_unqueued),
        ("cond-destroyed-clean", _destroy_waited_cond),
        ("rwlock-exclusion", _writer_beside_reader),
        ("rwlock-writer-claims", _unclaimed_writer),
        ("sem-count", _negative_sem),
        ("workqueue-counts", _overdrawn_queue),
        ("workqueue-depth", _queue_losing_an_item),
        ("priority-boost-bounds", _below_base),
        ("priority-boost-bounds", _boosted_holding_nothing),
    ],
)
def test_each_corrupted_state_fires_its_rule(rule, corrupt):
    """Each rule of docs/CHECKING.md's table that the tests around this
    one leave out fires at a kernel release on a state broken for it
    alone (smp-runq-disjoint fires in tests/check/test_smp_explore.py)."""
    runtime, check = checked_runtime()
    runtime.main(cond_relay(waiters=1), priority=100)
    runtime.run()
    zombie = next(
        t
        for t in runtime.threads.values()
        if t.state is ThreadState.TERMINATED
    )
    live = runtime.main(cond_relay(waiters=1), name="live", priority=100)
    check.on_kernel_release(runtime)  # consistent as built
    corrupt(runtime, live, zombie)
    with pytest.raises(InvariantViolation) as raised:
        check.on_kernel_release(runtime)
    assert raised.value.rule == rule
    assert check.violations_found == 1


def test_quiescent_rules_catch_leaked_writer_claim():
    runtime, check = checked_runtime()
    runtime.main(cond_relay(waiters=1), priority=100)
    runtime.run()
    rw = runtime.rwlock_ops.lib_rwlock_init(None, "r")
    check.on_kernel_release(runtime)  # live rules: a claim may be mid-flight
    rw.waiting_writers = 1  # ...but at quiescence it is a leak
    with pytest.raises(InvariantViolation, match="quiescent-rwlock"):
        check.check_quiescent(runtime)


def _recv_under_close(out):
    """A receiver parks in recv; main closes its descriptor under it."""

    def receiver(pt, fd):
        out["recv"] = yield pt.recv(fd)

    def main(pt):
        lfd = yield pt.socket()
        yield pt.bind(lfd, 80)
        yield pt.listen(lfd, 8)
        cfd = yield pt.socket()
        yield pt.connect(cfd, 80)
        err, sfd = yield pt.accept(lfd)
        tid = yield pt.create(receiver, sfd)
        yield pt.delay_us(100)
        yield pt.close(sfd)
        yield pt.join(tid)
        yield pt.close(cfd)
        yield pt.close(lfd)

    return main


def test_close_completes_the_requests_parked_on_the_socket():
    runtime, check = checked_runtime()
    runtime.add_net_stack()
    out = {}
    runtime.main(_recv_under_close(out), priority=100)
    runtime.run()
    assert out["recv"] == (EBADF, None)
    assert check.checks_run > 0
    assert check.violations_found == 0


def test_thread_parked_on_a_closed_socket_fires(monkeypatch):
    """Without close's completion of parked requests the receiver stays
    parked on a closed socket, and the rule fires at the closer's
    kernel release."""
    monkeypatch.setattr(NetStack, "_fail_all", lambda *args: None)
    runtime, check = checked_runtime()
    runtime.add_net_stack()
    runtime.main(_recv_under_close({}), priority=100)
    with pytest.raises(InvariantViolation, match="net-parked-on-closed"):
        runtime.run()


def _explore(factory, runs):
    return Explorer(factory, priority=100).explore_random(runs=runs, seed=1234)


@pytest.mark.parametrize("factory", [epoll_server, pooled_server])
def test_net_servers_explore_clean(factory):
    """The registration rule holds on every random walk of the epoll
    dispatcher, and costs nothing where no epoll instance exists."""
    report = _explore(factory, runs=50)
    assert report.schedules_explored == 50
    assert report.failures == []
    assert report.checks_run > 0


def _epoll_served():
    runtime, check = checked_runtime()
    runtime.main(epoll_server(), priority=100)
    return runtime, check


def test_epoll_server_keeps_every_registration_consistent():
    runtime, check = _epoll_served()
    runtime.run()
    assert runtime.net.epoll_instances == 1
    assert runtime.net.epoll_edges > 0
    assert check.violations_found == 0


def test_registration_left_on_a_closed_socket_fires(monkeypatch):
    """Without close's registration purge the dispatcher's interest list
    keeps an entry for a closed socket, and the rule fires at the
    closer's kernel release."""
    monkeypatch.setattr(NetStack, "_epoll_purge", lambda self, sock: None)
    runtime, check = _epoll_served()
    with pytest.raises(InvariantViolation, match="net-epoll-registration"):
        runtime.run()
    assert check.violations_found == 1


def _registered_pair():
    """A checked runtime with one socket registered on one instance."""
    runtime, check = checked_runtime()
    stack = runtime.add_net_stack()
    sock = stack.sys_socket()
    fd = runtime.fds.alloc(sock)
    ep = stack.sys_epoll_create()
    runtime.fds.alloc(ep)
    assert stack.sys_epoll_ctl(ep, "add", fd, sock)
    check.on_kernel_release(runtime)  # consistent as built
    return runtime, check, stack, ep, fd, sock


def test_ready_entry_that_is_not_the_interest_entry_fires():
    runtime, check, stack, ep, fd, sock = _registered_pair()
    ep.ready[fd] = EpollItem(ep, fd, sock)  # a second record for fd
    with pytest.raises(InvariantViolation, match="net-epoll-registration"):
        check.on_kernel_release(runtime)


def test_interest_entry_off_its_socket_chain_fires():
    runtime, check, stack, ep, fd, sock = _registered_pair()
    sock.epitems = None  # the instance still holds the item
    with pytest.raises(InvariantViolation, match="net-epoll-registration"):
        check.on_kernel_release(runtime)


def test_chained_item_its_instance_dropped_fires():
    runtime, check, stack, ep, fd, sock = _registered_pair()
    other = stack.sys_epoll_create()
    runtime.fds.alloc(other)
    assert stack.sys_epoll_ctl(other, "add", fd, sock)
    check.on_kernel_release(runtime)
    del ep.interest[fd]  # the socket still chains the item
    with pytest.raises(InvariantViolation, match="net-epoll-registration"):
        check.on_kernel_release(runtime)
