"""Kernel-side socket layer, exercised without any threads.

Every test drives :class:`repro.unix.net.NetStack` syscalls directly
and advances the world's event queue by hand
(``advance_to_next_event``/``fire_due``), so the properties checked
here -- admission control, link latency, buffer backpressure, counter
bookkeeping -- are pinned independently of the thread library built on
top (that side lives in ``tests/integration/test_netlib.py``).
"""

from repro.sim.rng import DeterministicRng
from repro.unix.net import EOF, Message, ResidentClient, ResidentClientEngine
from tests.conftest import RxLog, make_runtime


def _stack(latency_us=80.0, **kwargs):
    rt = make_runtime()
    stack = rt.add_net_stack(latency_us=latency_us, **kwargs)
    return rt, stack


def _drain(world, limit=200):
    """Fire every queued link event, advancing virtual time."""
    for _ in range(limit):
        if world.next_event_time() is None:
            return
        world.advance_to_next_event()
        world.fire_due()
    raise AssertionError("event queue did not drain in %d steps" % limit)


def _listener(stack, port=80, backlog=4):
    sock = stack.sys_socket()
    assert stack.sys_bind(sock, port)
    stack.sys_listen(sock, backlog)
    return sock


def _connected_pair(stack):
    """A connected library-side pair, built without the handshake."""
    a = stack.sys_socket()
    b = stack.sys_socket()
    a.peer, b.peer = b, a
    a.port = b.port = 0
    a.state = b.state = "connected"
    return a, b


class TestSyscallSurface:
    def test_socket_bind_listen_lifecycle(self):
        rt, stack = _stack()
        sock = stack.sys_socket()
        assert sock.state == "new"
        assert stack.sys_bind(sock, 80)
        assert sock.state == "bound"
        stack.sys_listen(sock, backlog=3)
        assert sock.state == "listening"
        assert stack.listeners[80] is sock
        assert rt.unix.syscall_counts["socket"] == 1
        assert rt.unix.syscall_counts["bind"] == 1
        assert rt.unix.syscall_counts["listen"] == 1

    def test_bind_rejects_taken_port(self):
        rt, stack = _stack()
        _listener(stack, port=80)
        other = stack.sys_socket()
        assert not stack.sys_bind(other, 80)
        assert other.state == "new"

    def test_syscalls_cost_cycles(self):
        rt, stack = _stack()
        before = rt.world.now
        stack.sys_socket()
        assert rt.world.now > before  # enter/exit + in-kernel work

    def test_close_unregisters_listener(self):
        rt, stack = _stack()
        sock = _listener(stack, port=80)
        stack.sys_close(sock)
        assert sock.state == "closed"
        assert 80 not in stack.listeners


class TestAdmission:
    def test_connect_without_listener_is_refused(self):
        rt, stack = _stack()
        assert stack.remote_connect(9999) is None
        assert stack.connections_refused == 1
        assert stack.connections_opened == 0

    def test_backlog_counts_inflight_claims(self):
        """Admission is decided at issue time: attempts still on the
        link count against the backlog exactly like queued ones."""
        rt, stack = _stack()
        _listener(stack, port=80, backlog=2)
        assert stack.remote_connect(80) is not None
        assert stack.remote_connect(80) is not None
        assert stack.remote_connect(80) is None  # two claims in flight
        assert stack.connections_refused == 1
        _drain(rt.world)
        assert stack.connections_opened == 2

    def test_sys_connect_refusal_returns_false(self):
        rt, stack = _stack()
        sock = stack.sys_socket()
        assert not stack.sys_connect(sock, 80)  # nobody listening
        assert stack.connections_refused == 1


class TestEstablishAndAccept:
    def test_connection_lands_after_one_link_latency(self):
        rt, stack = _stack(latency_us=80.0)
        listener = _listener(stack)
        t0 = rt.world.now_us
        client = stack.remote_connect(80)
        _drain(rt.world)
        assert client.state == "connected"
        assert len(listener.accept_queue) == 1
        elapsed = rt.world.now_us - t0
        assert 80.0 <= elapsed < 90.0  # latency + delivery work, no more

    def test_accept_pops_fifo_and_records_wait(self):
        rt, stack = _stack()
        listener = _listener(stack, backlog=4)
        first = stack.remote_connect(80)
        second = stack.remote_connect(80)
        _drain(rt.world)
        conn_a = stack.sys_accept(listener)
        conn_b = stack.sys_accept(listener)
        assert conn_a.peer is first
        assert conn_b.peer is second
        assert stack.sys_accept(listener) is None  # queue empty
        assert len(stack.accept_waits) == 2
        assert all(w >= 0 for w in stack.accept_waits)
        assert stack.accept_depth_max == 2


class TestDataPath:
    def test_remote_send_delivers_after_latency(self):
        rt, stack = _stack(latency_us=50.0)
        listener = _listener(stack)
        client = stack.remote_connect(80)
        _drain(rt.world)
        server = stack.sys_accept(listener)
        t0 = rt.world.now_us
        stack.remote_send(client, 512)
        assert stack.sys_recv(server) == "block"  # still on the link
        _drain(rt.world)
        msg = stack.sys_recv(server)
        assert isinstance(msg, Message)
        assert msg.nbytes == 512
        assert rt.world.us(msg.delivered_at - msg.sent_at) >= 50.0
        assert rt.world.now_us - t0 >= 50.0
        assert stack.messages_delivered == 1
        assert stack.bytes_delivered == 512

    def test_kernel_owned_endpoint_consumes_via_callback(self):
        rt, stack = _stack()
        _listener(stack)
        log = RxLog()
        client = stack.remote_connect(80, log)
        _drain(rt.world)
        server = client.peer
        stack.sys_send(server, 64)
        _drain(rt.world)
        assert len(log.got) == 1 and log.got[0].nbytes == 64
        assert not hasattr(client, "rx_head")  # no buffer to hold it
        assert client.rx_inflight == 0

    def test_eof_arrives_after_buffered_data(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 100) == 100
        _drain(rt.world)
        stack.sys_close(a)
        _drain(rt.world)
        assert b.rx_eof
        assert stack.eof_delivered == 1
        msg = stack.sys_recv(b)  # data first...
        assert msg.nbytes == 100
        assert stack.sys_recv(b) is EOF  # ...then orderly EOF

    def test_delivery_after_close_is_dropped(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 100) == 100
        b.state = "closed"  # closes while the message is on the link
        _drain(rt.world)
        assert stack.messages_delivered == 0
        assert b.rx_head is None


class TestBackpressure:
    def test_send_would_block_when_rx_budget_spent(self):
        """Admission counts buffered plus in-flight bytes against the
        receive window, so the link can never overcommit the buffer."""
        rt, stack = _stack(rx_capacity=100)
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, 60) == 60
        assert stack.sys_send(a, 60) is None  # 60 in flight
        _drain(rt.world)
        assert stack.sys_send(a, 60) is None  # 60 buffered
        assert stack.sys_recv(b).nbytes == 60
        assert stack.sys_send(a, 60) == 60  # space freed

    def test_remote_sender_overcommit_counts_a_stall(self):
        rt, stack = _stack(rx_capacity=100)
        _listener(stack)
        client = stack.remote_connect(80)
        _drain(rt.world)
        stack.remote_send(client, 80)
        stack.remote_send(client, 80)  # over budget: queued anyway
        assert stack.backpressure_stalls == 1


class TestSelect:
    def test_select_reports_ready_descriptors(self):
        rt, stack = _stack()
        listener = _listener(stack)
        a, b = _connected_pair(stack)
        entries = [(3, listener), (4, b)]
        assert stack.sys_select(entries) == []
        stack.remote_connect(80)
        stack.sys_send(a, 10)
        _drain(rt.world)
        assert stack.sys_select(entries) == [3, 4]
        assert stack.select_calls == 2

    def test_eof_makes_a_socket_readable(self):
        rt, stack = _stack()
        a, b = _connected_pair(stack)
        stack.sys_close(a)
        _drain(rt.world)
        assert b.readable()
        assert stack.sys_select([(5, b)]) == [5]

    def test_per_descriptor_probe_is_charged(self):
        rt, stack = _stack()
        pairs = [_connected_pair(stack) for _ in range(4)]
        one = [(3, pairs[0][1])]
        many = [(3 + i, b) for i, (a, b) in enumerate(pairs)]
        t0 = rt.world.now
        stack.sys_select(one)
        cost_one = rt.world.now - t0
        t1 = rt.world.now
        stack.sys_select(many)
        cost_many = rt.world.now - t1
        assert cost_many > cost_one  # scan scales with the fd set


class TestLinkPath:
    @staticmethod
    def _send_delay(rt, stack, nbytes=100):
        """Cycles between a send and the delivery event it schedules."""
        a, b = _connected_pair(stack)
        assert stack.sys_send(a, nbytes) == nbytes
        return rt.world.next_event_time() - rt.world.now

    def test_fixed_delay_is_the_latency_in_cycles(self):
        for latency_us in (80.0, 0.0001):
            rt, stack = _stack(latency_us=latency_us)
            expected = max(rt.world.cycles_for_us(latency_us), 1)
            assert stack._fixed_delay == expected
            assert self._send_delay(rt, stack) == expected

    def test_exponential_link_draws_one_sample_per_message(self):
        rt, stack = _stack(latency_us=50.0, deterministic=False)
        assert stack._fixed_delay is None
        reference = DeterministicRng()
        reference.setstate(rt.world.rng.getstate())
        a, b = _connected_pair(stack)
        sends = 7
        for _ in range(sends):
            assert stack.sys_send(a, 10) == 10
        for _ in range(sends):
            reference.expovariate(50.0)
        assert rt.world.rng.getstate() == reference.getstate()

    def test_bandwidth_adds_transfer_time(self):
        rt, stack = _stack(latency_us=50.0, bandwidth_bytes_per_us=2.0)
        assert stack._fixed_delay is None
        expected = rt.world.cycles_for_us(50.0 + 1000 / 2.0)
        assert self._send_delay(rt, stack, nbytes=1000) == expected


class TestResidentClient:
    def test_server_closing_first_releases_the_client(self):
        """The client's socket closes and it leaves the active set,
        without counting as a client that completed its requests."""
        rt, stack = _stack()
        listener = _listener(stack)
        engine = ResidentClientEngine(
            stack, 80, requests_per_client=4, req_bytes=64, think_us=100.0
        )
        client = engine.client()
        client.arrive()
        _drain(rt.world)  # connects and sends its first request
        server = stack.sys_accept(listener)
        assert engine.active == 1
        stack.sys_close(server)
        _drain(rt.world)
        assert stack.eof_delivered == 1
        assert client.state == "closed"
        assert engine.active == 0
        assert engine.completed == 0

    def test_no_request_counted_after_the_server_closed_first(self):
        """A reply arms the think timer; the server then closes.  When
        the timer fires the client is closed, so it sends nothing and
        counts nothing."""
        rt, stack = _stack()
        listener = _listener(stack)
        engine = ResidentClientEngine(
            stack, 80, requests_per_client=4, req_bytes=64, think_us=100.0
        )
        client = engine.client()
        client.arrive()
        _drain(rt.world)  # connects and sends its first request
        server = stack.sys_accept(listener)
        stack.sys_send(server, 128)
        stack.sys_close(server)
        _drain(rt.world)
        assert engine.replies == 1
        assert client.state == "closed"
        assert engine.requests_sent == client.sent == 1

    def test_latency_is_reply_arrival_minus_the_clients_own_send(
        self, monkeypatch
    ):
        """The reply is a bare byte count: the client closes its latency
        sample against the send time it kept, not a stamp on the wire."""
        rt, stack = _stack()
        listener = _listener(stack)
        engine = ResidentClientEngine(
            stack, 80, requests_per_client=1, req_bytes=64, think_us=100.0
        )
        replies = []
        rx = ResidentClient.rx

        def spy(client, msg):
            replies.append(msg)
            rx(client, msg)

        monkeypatch.setattr(ResidentClient, "rx", spy)
        client = engine.client()
        client.arrive()
        _drain(rt.world)  # connects and sends its request
        server = stack.sys_accept(listener)
        request = stack.sys_recv(server)
        assert isinstance(request, Message)
        stack.sys_send(server, 128)
        _drain(rt.world)
        assert [m.nbytes for m in replies] == [128]
        mhz = rt.world.model.mhz
        assert engine.latencies_us == [
            replies[0].delivered_at / mhz - request.sent_at / mhz
        ]
        assert engine.replies == engine.completed == 1

    def test_refused_in_flight_leaves_the_active_set(self):
        """The listener closes while the connection is on the link: the
        client is told it was refused instead of waiting forever."""
        rt, stack = _stack()
        listener = _listener(stack)
        engine = ResidentClientEngine(
            stack, 80, requests_per_client=4, req_bytes=64, think_us=100.0
        )
        client = engine.client()
        client.arrive()
        assert engine.active == 1
        stack.sys_close(listener)  # before the connection lands
        _drain(rt.world)
        assert stack.connections_refused == 1
        assert client.state == "closed"
        assert engine.active == 0
        assert engine.refused == 1
        assert engine.completed == 0
        assert engine.requests_sent == 0

    def test_closing_the_listener_resets_unaccepted_connections(self):
        """Connections established but never accepted close with the
        listener, so each client gets EOF and leaves the active set."""
        rt, stack = _stack()
        listener = _listener(stack)
        engine = ResidentClientEngine(
            stack, 80, requests_per_client=4, req_bytes=64, think_us=100.0
        )
        clients = [engine.client() for __ in range(2)]
        for client in clients:
            client.arrive()
        _drain(rt.world)  # both connect and send; nobody accepts
        servers = [client.peer for client in clients]
        assert len(listener.accept_queue) == 2
        stack.sys_close(listener)
        _drain(rt.world)
        assert not listener.accept_queue
        assert [s.state for s in servers] == ["closed", "closed"]
        assert stack.eof_delivered == 2
        assert [c.state for c in clients] == ["closed", "closed"]
        assert engine.active == 0
        assert engine.completed == 0
