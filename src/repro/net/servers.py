"""Four server architectures over the simulated sockets.

Each architecture is the paper's thread model applied to a classic
server shape:

- **thread-per-connection** -- the acceptor spawns a fresh thread for
  every accepted connection; thread creation cost (TCB + stack, or a
  pool hit) is paid on the accept path.
- **pool** -- a fixed set of worker threads takes connections from a
  condvar-protected work queue; the acceptor only accepts and
  enqueues, so accept latency stays flat while queue wait absorbs the
  load.
- **select** -- a single dispatcher thread multiplexes the listening
  socket and every connected socket through ``select``; no
  per-connection threads at all, the fewest library threads and (with
  the first-class channel) the fewest signal deliveries -- but each
  scan probes every registered fd (O(n) ``SELECT_PER_FD``).
- **epoll** -- the select dispatcher with the kernel keeping the
  registrations (``epoll_create/ctl/wait``): wakeups cost O(ready),
  which is what lets one thread own 10^5 connections.

Every server serves the same protocol: receive a request message, burn
``service_cycles`` of application work, send a ``resp_bytes`` reply (a
byte count: the load generator's clients keep their own send times),
repeat until orderly EOF, then close.

All four mains are generator factories in the ``check.workloads``
style, so the scenario driver and the schedule explorer share them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional


class Collector:
    """Virtual-time measurement sink filled by the server architectures.

    Reads ``world.now_us`` only -- appending to these lists never
    advances the clock, so an attached collector cannot perturb the
    schedule.
    """

    def __init__(self) -> None:
        self.requests_served = 0
        self.connections_served = 0
        self.queue_waits_us: List[float] = []  # pool: enqueue -> pickup


class WorkQueue:
    """A condvar-protected queue of accepted connections (pool arch).

    Plain shared state guarded by ``mutex``/``cond`` exactly as the
    paper's library intends; the checker registers it (see
    :meth:`repro.check.invariants.CheckContext.register_workqueue`) and
    audits the enqueue/dequeue bookkeeping at every kernel release.
    """

    def __init__(self, name: str = "connq") -> None:
        self.name = name
        self.mutex: Any = None
        self.cond: Any = None
        self.items: Deque[Any] = deque()  # (conn_fd, enqueued_at_us)
        self.enqueued = 0
        self.dequeued = 0
        self.closed = False

    def __repr__(self) -> str:
        return "<WorkQueue %s depth=%d in=%d out=%d>" % (
            self.name,
            len(self.items),
            self.enqueued,
            self.dequeued,
        )


def _serve_connection(pt, conn_fd, service_cycles, resp_bytes, collector):
    """Request/reply loop on one connected socket, shared by all archs."""
    served = 0
    while True:
        err, msg = yield pt.recv(conn_fd)
        if err != 0 or msg is None:
            break  # orderly EOF (or the peer vanished)
        yield pt.work(service_cycles)
        err, _sent = yield pt.send(conn_fd, resp_bytes)
        if err != 0:
            break
        served += 1
    yield pt.close(conn_fd)
    collector.requests_served += served
    collector.connections_served += 1


# -- thread-per-connection ---------------------------------------------------


def _conn_handler(pt, conn_fd, service_cycles, resp_bytes, collector):
    yield pt.call(
        _serve_connection, conn_fd, service_cycles, resp_bytes, collector
    )


def thread_per_connection(
    lfd: int,
    expected: int,
    collector: Collector,
    service_cycles: int = 400,
    resp_bytes: int = 1024,
):
    """Acceptor spawning one thread per accepted connection."""

    def server(pt):
        handlers = []
        for i in range(expected):
            err, conn_fd = yield pt.accept(lfd)
            assert err == 0, err
            handlers.append(
                (
                    yield pt.create(
                        _conn_handler,
                        conn_fd,
                        service_cycles,
                        resp_bytes,
                        collector,
                        name="conn-%d" % i,
                    )
                )
            )
        for handler in handlers:
            yield pt.join(handler)

    return server


# -- fixed thread pool over a work queue -------------------------------------


def _pool_worker(pt, wq, service_cycles, resp_bytes, collector):
    world = pt.runtime.world
    while True:
        yield pt.mutex_lock(wq.mutex)
        while not wq.items and not wq.closed:
            yield pt.cond_wait(wq.cond, wq.mutex)
        if not wq.items:  # closed and drained
            yield pt.mutex_unlock(wq.mutex)
            return
        conn_fd, enqueued_at = wq.items.popleft()
        wq.dequeued += 1
        yield pt.mutex_unlock(wq.mutex)
        collector.queue_waits_us.append(world.now_us - enqueued_at)
        yield pt.call(
            _serve_connection, conn_fd, service_cycles, resp_bytes, collector
        )


def pool_server(
    lfd: int,
    expected: int,
    collector: Collector,
    workers: int = 16,
    service_cycles: int = 400,
    resp_bytes: int = 1024,
):
    """Single acceptor feeding a fixed worker pool via a work queue."""

    def server(pt):
        world = pt.runtime.world
        wq = WorkQueue()
        wq.mutex = yield pt.mutex_init()
        wq.cond = yield pt.cond_init()
        check = getattr(pt.runtime, "check", None)
        if check is not None and hasattr(check, "register_workqueue"):
            check.register_workqueue(wq)
        crew = []
        for i in range(workers):
            crew.append(
                (
                    yield pt.create(
                        _pool_worker,
                        wq,
                        service_cycles,
                        resp_bytes,
                        collector,
                        name="worker-%d" % i,
                    )
                )
            )
        for _ in range(expected):
            err, conn_fd = yield pt.accept(lfd)
            assert err == 0, err
            yield pt.mutex_lock(wq.mutex)
            wq.items.append((conn_fd, world.now_us))
            wq.enqueued += 1
            yield pt.cond_signal(wq.cond)
            yield pt.mutex_unlock(wq.mutex)
        yield pt.mutex_lock(wq.mutex)
        wq.closed = True
        yield pt.cond_broadcast(wq.cond)
        yield pt.mutex_unlock(wq.mutex)
        for worker in crew:
            yield pt.join(worker)

    return server


# -- single-threaded select dispatcher ---------------------------------------


def select_server(
    lfd: int,
    expected: int,
    collector: Collector,
    service_cycles: int = 400,
    resp_bytes: int = 1024,
):
    """One dispatcher thread multiplexing every socket through select.

    No per-connection threads: readiness on the listening fd means
    accept, readiness on a connection fd means serve one request
    inline.  This is the fewest-threads, fewest-wakeups architecture;
    run it with the first-class completion channel to also make each
    wakeup cheapest.
    """

    def server(pt):
        conns: Dict[int, bool] = {}
        accepted = 0
        while accepted < expected or conns:
            fds = ([lfd] if accepted < expected else []) + list(conns)
            err, ready = yield pt.select(fds)
            assert err == 0, err
            for fd in ready:
                if fd == lfd:
                    # Drain the accept queue: readiness is
                    # level-triggered, but each accept is a syscall.
                    while accepted < expected:
                        err, conn_fd = yield pt.accept(lfd)
                        assert err == 0, err
                        conns[conn_fd] = True
                        accepted += 1
                        ok, more = yield pt.select([lfd], timeout_us=0)
                        if ok != 0 or not more:
                            break
                    continue
                err, msg = yield pt.recv(fd)
                if err != 0 or msg is None:
                    yield pt.close(fd)
                    del conns[fd]
                    collector.connections_served += 1
                    continue
                yield pt.work(service_cycles)
                err, _sent = yield pt.send(fd, resp_bytes)
                if err == 0:
                    collector.requests_served += 1

    return server


# -- single-threaded epoll dispatcher ----------------------------------------


def epoll_server(
    lfd: int,
    expected: int,
    collector: Collector,
    service_cycles: int = 400,
    resp_bytes: int = 1024,
):
    """One dispatcher thread owning every socket through an interest list.

    The select dispatcher pays ``SELECT_PER_FD`` for every registered
    fd on every scan -- O(n) per wakeup, quadratic across a run.  Here
    the kernel keeps the registrations and pushes readiness edges, so
    each wakeup costs O(ready): the architecture that lets one thread
    own 100k+ descriptors.  Registrations are made once per fd
    (``epoll_ctl add`` after accept); closing a connection drops its
    registration inside the kernel, so recycled fds never inherit
    stale interest.  Readiness is level-triggered, exactly like the
    select dispatcher: one request is served per ready report, and a
    socket with more buffered data simply reports ready again.
    """

    def server(pt):
        conns: Dict[int, bool] = {}
        accepted = 0
        epfd = yield pt.epoll_create()
        err = yield pt.epoll_ctl(epfd, "add", lfd)
        assert err == 0, err
        while accepted < expected or conns:
            err, ready = yield pt.epoll_wait(epfd)
            assert err == 0, err
            if lfd in ready:
                # Accepts first: epoll reports readiness in edge-arrival
                # order, so under an arrival burst the listener would
                # otherwise starve behind connection serving (select
                # gets this for free -- fd order puts the listener
                # first).
                ready = [lfd] + [fd for fd in ready if fd != lfd]
            for fd in ready:
                if fd == lfd:
                    # Drain the accept queue (same policy as the
                    # select dispatcher: readiness is level-triggered,
                    # each accept is a syscall, a one-fd probe checks
                    # for more).  Every accepted fd is registered once;
                    # the kernel keeps the interest from here on.
                    while accepted < expected:
                        err, conn_fd = yield pt.accept(lfd)
                        assert err == 0, err
                        err = yield pt.epoll_ctl(epfd, "add", conn_fd)
                        assert err == 0, err
                        conns[conn_fd] = True
                        accepted += 1
                        ok, more = yield pt.select([lfd], timeout_us=0)
                        if ok != 0 or not more:
                            break
                    if accepted >= expected:
                        yield pt.epoll_ctl(epfd, "del", lfd)
                    continue
                err, msg = yield pt.recv(fd)
                if err != 0 or msg is None:
                    yield pt.close(fd)
                    del conns[fd]
                    collector.connections_served += 1
                    continue
                yield pt.work(service_cycles)
                err, _sent = yield pt.send(fd, resp_bytes)
                if err == 0:
                    collector.requests_served += 1
        yield pt.close(epfd)

    return server


ARCHITECTURES = {
    "perconn": thread_per_connection,
    "pool": pool_server,
    "select": select_server,
    "epoll": epoll_server,
}


def build_server(
    arch: str,
    lfd: int,
    expected: int,
    collector: Collector,
    workers: int = 16,
    service_cycles: int = 400,
    resp_bytes: int = 1024,
):
    """Instantiate one of the architectures by name."""
    if arch not in ARCHITECTURES:
        raise ValueError(
            "unknown architecture %r (have: %s)"
            % (arch, ", ".join(sorted(ARCHITECTURES)))
        )
    kwargs: Dict[str, Any] = {
        "service_cycles": service_cycles,
        "resp_bytes": resp_bytes,
    }
    if arch == "pool":
        kwargs["workers"] = workers
    return ARCHITECTURES[arch](lfd, expected, collector, **kwargs)
