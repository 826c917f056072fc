"""Thread-blocking socket calls: park, complete, wake exactly one.

The library layer (:mod:`repro.core.netlib`) on top of the kernel
sockets: every would-block call suspends only the calling thread, and
the completion -- via SIGIO demultiplexing or the first-class channel
-- wakes exactly the requester.  Cancellation and select timeouts run
the request teardown so the kernel never wakes a thread that stopped
waiting.
"""

import pytest

from repro.core.config import PTHREAD_CANCELED
from repro.core.errors import (
    EBADF,
    ECONNREFUSED,
    ENOTCONN,
    OK,
)
from tests.conftest import RxLog, make_runtime


def _listening(pt, port=80, backlog=8):
    lfd = yield pt.socket()
    assert lfd >= 3
    err = yield pt.bind(lfd, port)
    assert err == OK
    err = yield pt.listen(lfd, backlog)
    assert err == OK
    return lfd


@pytest.mark.parametrize("first_class", [False, True])
def test_echo_round_trip_on_both_completion_paths(first_class):
    out = {}

    def server(pt, lfd):
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        err, msg = yield pt.recv(cfd)
        assert err == OK
        out["request"] = msg.nbytes
        err, sent = yield pt.send(cfd, 2 * msg.nbytes)
        assert (err, sent) == (OK, 2 * msg.nbytes)
        err, eof = yield pt.recv(cfd)
        assert (err, eof) == (OK, None)
        yield pt.close(cfd)

    def client(pt, port):
        fd = yield pt.socket()
        err, got = yield pt.connect(fd, port)
        assert (err, got) == (OK, fd)
        err, sent = yield pt.send(fd, 300)
        assert (err, sent) == (OK, 300)
        err, msg = yield pt.recv(fd)
        assert err == OK
        out["reply"] = msg.nbytes
        yield pt.close(fd)

    def main(pt):
        lfd = yield from _listening(pt)
        srv = yield pt.create(server, lfd)
        cli = yield pt.create(client, 80)
        yield pt.join(srv)
        yield pt.join(cli)
        yield pt.close(lfd)

    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=40.0, first_class=first_class)
    rt.main(main, priority=100)
    rt.run()
    assert out["request"] == 300
    assert out["reply"] == 600  # the server's doubled reply
    if first_class:
        assert stack.fc_completions > 0 and stack.sigio_completions == 0
    else:
        assert stack.sigio_completions > 0 and stack.fc_completions == 0


def test_completion_wakes_exactly_the_requester():
    log = []

    def receiver(pt, fd, tag):
        err, msg = yield pt.recv(fd)
        assert err == OK
        log.append((tag, msg.nbytes))
        yield pt.close(fd)

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        remote_a = rt.net.remote_connect(80)
        err, fd_a = yield pt.accept(lfd)
        remote_b = rt.net.remote_connect(80)
        err, fd_b = yield pt.accept(lfd)
        ra = yield pt.create(receiver, fd_a, "a")
        rb = yield pt.create(receiver, fd_b, "b")
        yield pt.delay_us(200)  # both receivers parked
        rt.net.remote_send(remote_b, 222)
        yield pt.delay_us(300)  # b's message delivered and consumed
        assert log == [("b", 222)]  # a still blocked
        rt.net.remote_send(remote_a, 111)
        yield pt.join(ra)
        yield pt.join(rb)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert log == [("b", 222), ("a", 111)]


@pytest.mark.parametrize("first_class", [False, True])
def test_connect_refused_in_flight_wakes_with_econnrefused(first_class):
    """The listener closes while the connection is on the link: the
    thread parked in connect wakes with ECONNREFUSED."""
    out = {}

    def connector(pt):
        fd = yield pt.socket()
        out["connect"] = yield pt.connect(fd, 80)
        yield pt.close(fd)

    def main(pt):
        lfd = yield from _listening(pt)
        tid = yield pt.create(connector)
        yield pt.delay_us(100)  # connector parks; its attempt is on the link
        out["in_flight"] = pt.runtime.net.listeners[80].claims
        yield pt.close(lfd)
        yield pt.join(tid)

    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=500.0, first_class=first_class)
    rt.main(main, priority=100)
    rt.run()
    assert out == {"in_flight": 1, "connect": (ECONNREFUSED, -1)}
    assert stack.connections_refused == 1
    assert stack.connections_opened == 0


def test_select_times_out_on_an_idle_listener():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        t0 = rt.world.now_us
        err, ready = yield pt.select([lfd], timeout_us=400.0)
        out["dt"] = rt.world.now_us - t0
        out["ready"] = (err, ready)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack()
    rt.main(main, priority=100)
    rt.run()
    assert out["ready"] == (OK, [])
    # At least the timeout; plus SIGALRM delivery and dispatch overhead
    # (~160 us on the IPX), never more than ~1.3 ms.
    assert 400.0 <= out["dt"] < 1300.0


def test_select_wakes_on_arrival_and_cancels_its_timer():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        rt.net.remote_connect(80)  # lands after one 60 us latency
        err, ready = yield pt.select([lfd], timeout_us=5000.0)
        out["ready"] = (err, ready)
        out["at"] = rt.world.now_us
        out["timeouts_queued"] = rt.timer_ops.pending_count
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        yield pt.close(cfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=60.0)
    rt.main(main, priority=100)
    rt.run()
    assert out["ready"][0] == OK and len(out["ready"][1]) == 1
    assert out["at"] < 5000.0  # readiness, not the timeout, woke it
    assert out["timeouts_queued"] == 0  # the wake cancelled the timeout


def test_epoll_wait_wakes_on_arrival_and_cancels_its_timer():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        epfd = yield pt.epoll_create()
        err = yield pt.epoll_ctl(epfd, "add", lfd)
        assert err == OK
        rt.net.remote_connect(80)  # lands after one 60 us latency
        err, ready = yield pt.epoll_wait(epfd, timeout_us=5000.0)
        out["ready"] = (err, ready, lfd)
        out["at"] = rt.world.now_us
        out["timeouts_queued"] = rt.timer_ops.pending_count
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        yield pt.close(cfd)
        yield pt.close(epfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=60.0)
    rt.main(main, priority=100)
    rt.run()
    err, ready, lfd = out["ready"]
    assert (err, ready) == (OK, [lfd])
    assert out["at"] < 5000.0  # readiness, not the timeout, woke it
    assert out["timeouts_queued"] == 0  # the wake cancelled the timeout


def test_cancel_of_blocked_recv_runs_the_teardown():
    out = {}

    def receiver(pt, fd):
        yield pt.recv(fd)
        out["woke"] = True  # must never run

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        remote = rt.net.remote_connect(80)
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        sock = rt.fds.get(cfd)
        victim = yield pt.create(receiver, cfd)
        yield pt.delay_us(100)  # victim parks in recv
        assert len(sock.pending_recvs) == 1
        yield pt.cancel(victim)
        err, value = yield pt.join(victim)
        assert err == OK
        out["cancelled"] = value is PTHREAD_CANCELED
        # Teardown deregistered the request: the kernel has nobody to
        # wake, so a late delivery buffers quietly instead.
        assert not sock.pending_recvs
        rt.net.remote_send(remote, 64)
        yield pt.delay_us(300)
        assert sock.rx_head is not None and sock.rx_head is sock.rx_tail
        yield pt.close(cfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert out == {"cancelled": True}


def test_backpressure_blocks_the_sender_thread_not_the_process():
    out = {}

    def sender(pt, port):
        fd = yield pt.socket()
        err, _ = yield pt.connect(fd, port)
        assert err == OK
        for _ in range(4):
            err, sent = yield pt.send(fd, 60)
            assert (err, sent) == (OK, 60)
        yield pt.close(fd)

    def receiver(pt, cfd):
        got = 0
        while True:
            yield pt.delay_us(500)  # deliberately slow consumer
            err, msg = yield pt.recv(cfd)
            assert err == OK
            if msg is None:
                break
            got += msg.nbytes
        out["got"] = got
        yield pt.close(cfd)

    def main(pt):
        lfd = yield from _listening(pt)
        snd = yield pt.create(sender, 80)
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        rcv = yield pt.create(receiver, cfd)
        yield pt.join(snd)
        yield pt.join(rcv)
        yield pt.close(lfd)

    rt = make_runtime()
    # 100-byte window against 4 x 60-byte sends: the sender must stall
    # on the peer's buffer and resume as the receiver drains it.
    stack = rt.add_net_stack(latency_us=30.0, rx_capacity=100)
    rt.main(main, priority=100)
    rt.run()
    assert out["got"] == 240  # every byte arrived despite the stalls
    assert stack.backpressure_stalls >= 1


def test_read_write_route_to_sockets_through_the_fd_table():
    out = {}

    def main(pt):
        rt = pt.runtime
        lfd = yield from _listening(pt)
        log = RxLog()
        remote = rt.net.remote_connect(80, log)
        err, cfd = yield pt.accept(lfd)
        assert err == OK
        # write on a socket fd is send; read is recv.
        err, sent = yield pt.write(cfd, 80)
        assert (err, sent) == (OK, 80)
        rt.net.remote_send(remote, 55)
        err, msg = yield pt.read(cfd, 0)
        assert err == OK
        out["read"] = msg.nbytes
        yield pt.delay_us(200)
        out["peer_got"] = [m.nbytes for m in log.got]
        yield pt.close(cfd)
        yield pt.close(lfd)

    rt = make_runtime()
    rt.add_net_stack(latency_us=40.0)
    rt.main(main, priority=100)
    rt.run()
    assert out["read"] == 55
    assert out["peer_got"] == [80]


def test_error_returns_follow_posix_shapes():
    out = {}

    def main(pt):
        out["bad_bind"] = yield pt.bind(99, 80)
        fd = yield pt.socket()
        out["refused"] = yield pt.connect(fd, 4242)  # nobody listening
        out["notconn"] = yield pt.send(fd, 10)
        out["close"] = yield pt.close(fd)
        out["double_close"] = yield pt.close(fd)

    rt = make_runtime()
    rt.add_net_stack()
    rt.main(main, priority=100)
    rt.run()
    assert out["bad_bind"] == EBADF
    assert out["refused"] == (ECONNREFUSED, -1)
    assert out["notconn"] == (ENOTCONN, 0)
    assert out["close"] == OK
    assert out["double_close"] == EBADF


def test_socket_without_a_stack_returns_minus_one():
    out = {}

    def main(pt):
        out["fd"] = yield pt.socket()

    rt = make_runtime()  # no add_net_stack
    rt.main(main, priority=100)
    rt.run()
    assert out["fd"] == -1
