"""Closing a socket completes every request parked on it.

A thread parked on a descriptor that another thread closes wakes
through the one completion path (SIGIO or the first-class channel):
accepts, recvs, a connect in flight, selects whose set holds the
socket and sends issued from it return ``EBADF``; sends parked on the
closed socket's receive buffer return ``EPIPE``.  ``epoll_wait`` keeps
Linux semantics: the closed socket's registration is purged and a
parked waiter is not woken by the close.
"""

import pytest

from repro.core.errors import EBADF, EPIPE, OK
from tests.conftest import make_runtime

BOTH_PATHS = pytest.mark.parametrize("first_class", [False, True])


def _listening(pt, port=80):
    lfd = yield pt.socket()
    assert (yield pt.bind(lfd, port)) == OK
    assert (yield pt.listen(lfd, 8)) == OK
    return lfd


def _connected_pair(pt, port=80):
    """A listener plus both ends of one local connection."""
    lfd = yield from _listening(pt, port)
    cfd = yield pt.socket()
    assert (yield pt.connect(cfd, port)) == (OK, cfd)
    err, sfd = yield pt.accept(lfd)
    assert err == OK
    return lfd, cfd, sfd


def _run(main, first_class, **net):
    rt = make_runtime()
    stack = rt.add_net_stack(first_class=first_class, **net)
    rt.main(main, priority=100)
    rt.run()
    return rt, stack


def _close_under(pt, fd, parked):
    """Let the ``parked`` thread block, close ``fd``, join it."""
    yield pt.delay_us(100)
    assert (yield pt.close(fd)) == OK
    yield pt.join(parked)


@BOTH_PATHS
def test_accept_parked_on_a_closed_listener_wakes_with_ebadf(first_class):
    out = {}

    def acceptor(pt, lfd):
        out["accept"] = yield pt.accept(lfd)

    def main(pt):
        lfd = yield from _listening(pt)
        tid = yield pt.create(acceptor, lfd)
        yield from _close_under(pt, lfd, tid)

    _run(main, first_class)
    assert out == {"accept": (EBADF, -1)}


@BOTH_PATHS
def test_recv_parked_on_a_closed_socket_wakes_with_ebadf(first_class):
    out = {}

    def receiver(pt, fd):
        out["recv"] = yield pt.recv(fd)

    def main(pt):
        lfd, cfd, sfd = yield from _connected_pair(pt)
        tid = yield pt.create(receiver, sfd)
        yield from _close_under(pt, sfd, tid)
        yield pt.close(cfd)
        yield pt.close(lfd)

    _run(main, first_class)
    assert out == {"recv": (EBADF, None)}


@BOTH_PATHS
def test_select_holding_a_closed_socket_wakes_with_ebadf(first_class):
    out = {}

    def selector(pt, fds):
        out["select"] = yield pt.select(fds, timeout_us=50_000.0)
        out["at_us"] = pt.runtime.world.now_us

    def main(pt):
        lfd, cfd, sfd = yield from _connected_pair(pt)
        listener = pt.runtime.fds.entries[lfd]
        tid = yield pt.create(selector, [lfd, sfd])
        yield from _close_under(pt, sfd, tid)
        # The select deregistered from every socket of its set.
        out["listener_selectors"] = list(listener.selectors or ())
        yield pt.close(cfd)
        yield pt.close(lfd)

    _run(main, first_class)
    assert out["select"] == (EBADF, [])
    assert out["at_us"] < 50_000.0  # woken by the close, not the timeout
    assert out["listener_selectors"] == []


@BOTH_PATHS
def test_send_parked_on_a_closed_receive_buffer_wakes_with_epipe(
    first_class,
):
    out = {}

    def sender(pt, fd):
        out["first"] = yield pt.send(fd, 80)
        out["second"] = yield pt.send(fd, 80)  # the window is full

    def main(pt):
        lfd, cfd, sfd = yield from _connected_pair(pt)
        tid = yield pt.create(sender, cfd)
        yield from _close_under(pt, sfd, tid)  # the receiver closes
        yield pt.close(cfd)
        yield pt.close(lfd)

    _run(main, first_class, rx_capacity=100)
    assert out == {"first": (OK, 80), "second": (EPIPE, 0)}


@BOTH_PATHS
def test_send_parked_from_a_closed_socket_wakes_with_ebadf(first_class):
    out = {}

    def sender(pt, fd):
        out["first"] = yield pt.send(fd, 80)
        out["second"] = yield pt.send(fd, 80)  # the window is full

    def main(pt):
        lfd, cfd, sfd = yield from _connected_pair(pt)
        tid = yield pt.create(sender, cfd)
        yield from _close_under(pt, cfd, tid)  # the sender's own fd
        yield pt.close(sfd)
        yield pt.close(lfd)

    _run(main, first_class, rx_capacity=100)
    assert out == {"first": (OK, 80), "second": (EBADF, 0)}


@BOTH_PATHS
def test_connect_in_flight_on_a_closed_fd_wakes_with_ebadf(first_class):
    out = {}

    def connector(pt, fd):
        out["connect"] = yield pt.connect(fd, 80)

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        fd = yield pt.socket()
        sock = rt.fds.entries[fd]
        tid = yield pt.create(connector, fd)
        yield from _close_under(pt, fd, tid)  # the attempt is on the link
        yield pt.delay_us(2_000)  # ... and establishes after the close
        out["state"] = sock.state
        err, sfd = yield pt.accept(lfd)
        out["server_eof"] = (yield pt.recv(sfd))
        yield pt.close(sfd)
        yield pt.close(lfd)

    rt, stack = _run(main, first_class, latency_us=500.0)
    assert out == {
        "connect": (EBADF, -1),
        "state": "closed",  # not revived by the late establishment
        "server_eof": (OK, None),
    }
    assert stack.connections_opened == 1


@BOTH_PATHS
def test_epoll_wait_is_not_woken_by_closing_a_registered_socket(
    first_class,
):
    """Linux semantics: close purges the registration; the parked wait
    runs to its timeout.  (Unchanged behaviour, pinned here.)"""
    out = {}

    def waiter(pt, epfd):
        out["wait"] = yield pt.epoll_wait(epfd, timeout_us=5_000.0)
        out["at_us"] = pt.runtime.world.now_us

    def main(pt):
        lfd, cfd, sfd = yield from _connected_pair(pt)
        epfd = yield pt.epoll_create()
        assert (yield pt.epoll_ctl(epfd, "add", sfd)) == OK
        ep = pt.runtime.fds.entries[epfd]
        tid = yield pt.create(waiter, epfd)
        yield pt.delay_us(100)
        assert (yield pt.close(sfd)) == OK
        out["interest"] = dict(ep.interest)
        yield pt.join(tid)
        yield pt.close(epfd)
        yield pt.close(cfd)
        yield pt.close(lfd)

    _run(main, first_class)
    assert out["wait"] == (OK, [])
    assert out["at_us"] >= 5_000.0
    assert out["interest"] == {}



def _parked(sock):
    """Every request still parked on ``sock``."""
    return [
        *(sock.pending_recvs or ()), *(sock.waiting_senders or ()),
        *([sock.pending_connect] if sock.pending_connect else ()),
    ]


@BOTH_PATHS
def test_a_closed_end_drops_its_peer_and_the_survivor_still_gets_epipe(
    first_class,
):
    """The ends reference each other only while open: closing one
    clears its ``peer``, yet a send on the surviving end -- parked on
    the closed buffer or issued afterwards -- still reads ``EPIPE``."""
    out = {}

    def sender(pt, fd):
        out["first"] = yield pt.send(fd, 80)
        out["parked"] = yield pt.send(fd, 80)  # the window is full

    def main(pt):
        lfd, cfd, sfd = yield from _connected_pair(pt)
        entries = pt.runtime.fds.entries
        client, server = entries[cfd], entries[sfd]
        tid = yield pt.create(sender, cfd)
        yield from _close_under(pt, sfd, tid)  # the receiver closes
        out["after"] = yield pt.send(cfd, 80)
        out["server_peer"] = server.peer
        out["parked_requests"] = _parked(client) + _parked(server)
        yield pt.close(cfd)
        out["client_peer"] = client.peer
        yield pt.close(lfd)

    _run(main, first_class, rx_capacity=100)
    assert out == {
        "first": (OK, 80),
        "parked": (EPIPE, 0),
        "after": (EPIPE, 0),
        "server_peer": None,
        "parked_requests": [],
        "client_peer": None,
    }
