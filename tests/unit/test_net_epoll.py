"""Kernel-side epoll interest lists, exercised without any threads.

Like ``test_net_stack.py``, every test drives the
:class:`repro.unix.net.NetStack` syscalls directly and advances the
world's event queue by hand, pinning the interest-list semantics
independently of the thread library: level-triggered registration,
O(ready) harvests with stale-entry dropping, edges fanning out to every
watching instance, and the close-time purge that keeps recycled fds
from inheriting readiness.
"""

import pytest

from repro.core.errors import EBADF, EINVAL
from repro.unix.net import EpollInstance
from tests.conftest import make_runtime


def _stack(latency_us=80.0, **kwargs):
    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=latency_us, **kwargs)
    return rt, stack


def _drain(world, limit=200):
    for _ in range(limit):
        if world.next_event_time() is None:
            return
        world.advance_to_next_event()
        world.fire_due()
    raise AssertionError("event queue did not drain in %d steps" % limit)


def _connected_pair(stack):
    a = stack.sys_socket()
    b = stack.sys_socket()
    a.peer, b.peer = b, a
    a.port = b.port = 0
    a.state = b.state = "connected"
    return a, b


def _chain(sock):
    """A socket's registrations, in chain order, as (epoll, fd)."""
    out = []
    item = sock.epitems
    while item is not None:
        out.append((item.ep, item.fd))
        item = item.next
    return out


def _interest(ep):
    """An interest list as fd -> socket."""
    return {fd: item.sock for fd, item in ep.interest.items()}


class TestInterestList:
    def test_ctl_add_and_del_bookkeeping(self):
        rt, stack = _stack()
        ep = stack.sys_epoll_create()
        assert isinstance(ep, EpollInstance)
        assert stack.epoll_instances == 1
        a, b = _connected_pair(stack)
        assert stack.sys_epoll_ctl(ep, "add", 7, b)
        assert _interest(ep) == {7: b}
        assert _chain(b) == [(ep, 7)]
        assert not stack.sys_epoll_ctl(ep, "add", 7, b)  # duplicate
        assert not stack.sys_epoll_ctl(ep, "add", 8, None)  # no socket
        assert not stack.sys_epoll_ctl(ep, "mod", 7, b)  # unknown op
        assert stack.sys_epoll_ctl(ep, "del", 7)
        assert ep.interest == {} and _chain(b) == []
        assert not stack.sys_epoll_ctl(ep, "del", 7)  # already gone
        assert stack.epoll_ctl_calls == 6
        assert rt.unix.syscall_counts["epoll_create"] == 1
        assert rt.unix.syscall_counts["epoll_ctl"] == 6

    def test_wait_blocks_with_nothing_ready(self):
        __, stack = _stack()
        ep = stack.sys_epoll_create()
        assert stack.sys_epoll_wait(ep) == "block"
        assert stack.epoll_waits == 1
        assert stack.epoll_ready_returned == 0

    def test_level_triggered_add_surfaces_buffered_data(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 100) == 100
        _drain(rt.world)  # message lands in b's buffer before any registration
        ep = stack.sys_epoll_create()
        assert stack.sys_epoll_ctl(ep, "add", 7, b)
        assert stack.sys_epoll_wait(ep) == [7]

    def test_entries_persist_until_observed_unreadable(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        ep = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep, "add", 7, b)
        stack.sys_send(a, 100)
        _drain(rt.world)
        # Level-triggered: unconsumed data keeps reporting ready.
        assert stack.sys_epoll_wait(ep) == [7]
        assert stack.sys_epoll_wait(ep) == [7]
        assert stack.sys_recv(b) is not None  # drain the buffer
        assert stack.sys_epoll_wait(ep) == "block"
        assert stack.epoll_stale_dropped == 1

    def test_edges_fan_out_to_every_watching_instance(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        ep1 = stack.sys_epoll_create()
        ep2 = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep1, "add", 7, b)
        stack.sys_epoll_ctl(ep2, "add", 9, b)  # same socket, another fd
        stack.sys_send(a, 64)
        _drain(rt.world)
        assert stack.sys_epoll_wait(ep1) == [7]
        assert stack.sys_epoll_wait(ep2) == [9]
        assert stack.epoll_edges == 2

    def test_wait_honors_maxevents(self):
        rt, stack = _stack()
        ep = stack.sys_epoll_create()
        pairs = [_connected_pair(stack) for _ in range(4)]
        for fd, (a, b) in enumerate(pairs, start=10):
            stack.sys_epoll_ctl(ep, "add", fd, b)
            stack.sys_send(a, 32)
        _drain(rt.world)
        first = stack.sys_epoll_wait(ep, maxevents=3)
        assert len(first) == 3
        # The capped-out entry is still registered and still ready.
        assert set(stack.sys_epoll_wait(ep)) == {10, 11, 12, 13}

    def _four_ready(self):
        rt, stack = _stack()
        ep = stack.sys_epoll_create()
        pairs = [_connected_pair(stack) for _ in range(4)]
        for fd, (a, b) in enumerate(pairs, start=10):
            stack.sys_epoll_ctl(ep, "add", fd, b)
            stack.sys_send(a, 32)
        _drain(rt.world)
        return rt, stack, ep

    def test_non_positive_maxevents_is_rejected_before_the_kernel(self):
        """Regression: ``maxevents=-1`` sliced off a ready fd
        (``[:-1]``) and ``maxevents=0`` reported a successful empty
        wait; Linux fails both with EINVAL."""
        rt, stack, ep = self._four_ready()
        waits = rt.unix.syscall_counts["epoll_wait"]
        now = rt.world.now
        for bad in (0, -1):
            with pytest.raises(ValueError):
                stack.sys_epoll_wait(ep, maxevents=bad)
        assert rt.unix.syscall_counts["epoll_wait"] == waits
        assert rt.world.now == now
        assert stack.sys_epoll_wait(ep) == [10, 11, 12, 13]

    def test_library_wait_returns_einval_for_non_positive_maxevents(self):
        rt, stack, ep = self._four_ready()
        epfd = rt.fds.alloc(ep)
        waits = stack.epoll_waits
        now = rt.world.now
        for bad in (0, -1):
            assert rt.net_ops.lib_epoll_wait(None, epfd, bad) == (EINVAL, [])
        assert stack.epoll_waits == waits
        assert rt.world.now == now
        # A bad descriptor still reports EBADF first.
        assert rt.net_ops.lib_epoll_wait(None, 99, 0) == (EBADF, [])
        assert stack.sys_epoll_wait(ep, maxevents=4) == [10, 11, 12, 13]

    def test_eof_is_a_readiness_edge(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        ep = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep, "add", 7, b)
        stack.sys_close(a)
        _drain(rt.world)
        assert b.rx_eof
        assert stack.sys_epoll_wait(ep) == [7]


class TestFdRecycling:
    def test_socket_close_purges_every_registration(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        ep1 = stack.sys_epoll_create()
        ep2 = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep1, "add", 7, b)
        stack.sys_epoll_ctl(ep2, "add", 7, b)
        stack.sys_send(a, 100)
        _drain(rt.world)
        assert 7 in ep1.ready
        stack.sys_close(b)
        assert ep1.interest == {} and ep1.ready == {}
        assert ep2.interest == {} and ep2.ready == {}
        assert _chain(b) == []

    def test_recycled_fd_never_inherits_readiness(self):
        """Close with data still buffered, rebind the fd number to a
        fresh socket: the old socket's state must not leak through."""
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        ep = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep, "add", 7, b)
        stack.sys_send(a, 100)
        _drain(rt.world)
        assert stack.sys_epoll_wait(ep) == [7]  # old socket was ready
        stack.sys_close(b)
        c, d = _connected_pair(stack)
        assert stack.sys_epoll_ctl(ep, "add", 7, d)  # fd 7 recycled
        assert ep.interest[7].sock is d
        assert stack.sys_epoll_wait(ep) == "block"  # d has no data
        stack.sys_send(c, 50)
        _drain(rt.world)
        assert stack.sys_epoll_wait(ep) == [7]

    def test_in_flight_delivery_to_a_closed_socket_marks_nothing(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        ep = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep, "add", 7, b)
        stack.sys_send(a, 100)  # delivery event is now in flight
        stack.sys_close(b)  # purge before it lands
        _drain(rt.world)
        assert ep.ready == {}
        assert stack.sys_epoll_wait(ep) == "block"


class TestInstanceClose:
    def test_close_detaches_from_sockets_and_rejects_ctl(self):
        rt, stack = _stack()
        __, b = _connected_pair(stack)
        ep = stack.sys_epoll_create()
        stack.sys_epoll_ctl(ep, "add", 7, b)
        stack.sys_epoll_close(ep)
        assert ep.closed
        assert _chain(b) == []
        assert ep.interest == {} and ep.ready == {}
        assert not stack.sys_epoll_ctl(ep, "add", 7, b)
