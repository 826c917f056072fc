"""Simulated sockets: the kernel side of the networking subsystem.

The paper's asynchronous I/O layer wraps every potentially blocking
UNIX call in a non-blocking issue plus a ``SIGIO`` completion directed
at the requesting thread (delivery-model rule 4).  Disks exercise that
machinery one request at a time; serving network traffic is the
workload class the ROADMAP aims at, and it needs the full UNIX socket
surface: listening sockets with accept queues, connected sockets with
bounded receive buffers (backpressure), link latency/bandwidth, and a
``select`` service for single-threaded dispatchers.

This module is the *kernel* half.  Every service a thread invokes is a
syscall charged through :meth:`UnixKernel._enter` (enter/exit overhead
plus in-kernel work), exactly like the services in
:mod:`repro.unix.kernel`.  All services are non-blocking, as the
paper's library requires: a call that cannot complete returns "would
block" and the *library* (:mod:`repro.core.netlib`) parks the calling
thread on an :class:`~repro.unix.io.IoRequest`, the same record a disk
read parks on.  When the kernel-side event arrives (a connection
established, a message delivered, buffer space freed) the request
completes through :func:`repro.unix.io.complete`, the one completion
routine disks use too: ``SIGIO`` demultiplexed to the requester by
delivery rule 4 (the paper's shipping design), or the first-class
Marsh & Scott channel (its Open Problems proposal).

Closing a socket completes every request parked on it through the
same routine -- accepts, recvs, a connect in flight, selects whose set
holds it and sends issued from it with ``EBADF``, sends parked on its
receive buffer with ``EPIPE`` -- so no thread stays parked on a closed
descriptor.  An ``epoll_wait`` keeps Linux semantics: the closed
socket's registrations are purged and a parked waiter is not woken.

Every connection end is an *endpoint*: a :class:`Socket` of this
machine or a :class:`RemoteEndpoint` record of another.  Link events
tell either kind the same four things through the same upcalls --
``connected()``, ``refused()``, ``rx(msg)`` and ``eof()`` -- so the
stack never asks which kind of end an event reaches.  The two ends of a
connection reference each other (``peer``) only while open: an end
drops its ``peer`` as the last step of closing, so no cycle outlives
the connection and reference counting frees each end once its last
holder lets go.

A message is bookkeeping only -- a byte count and its link stamps, no
payload -- like every other transfer in the simulation.  Construction
of the stack spends no cycles, so a runtime with networking present but
idle is bit-identical to one without it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import EBADF, ECONNREFUSED, EPIPE
from repro.hw import costs
from repro.sim.world import World
from repro.unix.io import IoRequest, complete
from repro.unix.kernel import UnixKernel


class Message:
    """One application message: a byte count and its link stamps.

    There is no payload: ``sent_at`` and ``delivered_at`` are the
    cycles the message left its sender and landed.  A message in flight
    carries its destination endpoint ``dst``, so the link event that
    lands it is the callout ``NetStack._deliver(msg)``: the stack's
    cached bound ``_deliver`` plus the message itself -- no handle,
    closure or bound method per message.  A buffered message is
    also a link of its socket's receive queue: ``next`` is the message
    behind it (see :class:`Socket`).
    """

    __slots__ = ("nbytes", "sent_at", "delivered_at", "dst", "next")

    def __init__(self, nbytes: int, sent_at: int, dst: Any) -> None:
        self.nbytes = nbytes
        self.sent_at = sent_at
        self.delivered_at = 0
        self.dst = dst
        self.next: Optional[Message] = None

    def __repr__(self) -> str:
        return "Message(%d bytes, sent_at=%d, delivered_at=%d)" % (
            self.nbytes, self.sent_at, self.delivered_at,
        )


class Socket:
    """One simulated socket of this machine (listening or connected).

    A remote host's end of a connection is not a socket of this kernel:
    it is a :class:`RemoteEndpoint` record.  Both are endpoints: the
    link events call a socket's ``connected``/``refused``/``rx``/``eof``
    upcalls exactly as they call a remote record's, and the socket's
    upcalls complete the requests its threads parked on it.

    Memory discipline: at the sf100 scale fixture one run holds about a
    hundred thousand live sockets, so the class is ``__slots__``-based
    and allocates no container it does not need.  The receive buffer is
    an intrusive queue: ``rx_head`` and ``rx_tail`` are its first and
    last :class:`Message`, linked through ``Message.next``, and
    ``rx_head is None`` is the empty buffer.  The epoll registrations
    are an intrusive chain too: ``epitems`` is the first
    :class:`EpollItem`, in registration order.  The other queues are
    lazy: ``pending_recvs``/``waiting_senders`` appear on first use and
    the listening-side queues when ``listen()`` is called.  Every
    reader treats ``None`` as the empty queue.
    """

    __slots__ = (
        "stack", "state", "port",
        "backlog", "claims", "accept_queue", "pending_accepts",
        "peer", "rx_head", "rx_tail", "rx_bytes", "rx_inflight",
        "rx_capacity", "rx_eof",
        "pending_recvs", "waiting_senders", "pending_connect",
        "selectors", "epitems",
    )

    def __init__(self, stack: "NetStack", rx_capacity: int) -> None:
        self.stack = stack
        self.state = "new"  # new | bound | listening | connecting | connected | closed
        self.port: Optional[int] = None
        # Listening side (queues allocated by sys_listen).
        self.backlog = 0
        self.claims = 0  # connections admitted but still in flight
        self.accept_queue: Optional[deque] = None  # (Socket, enqueued_at)
        self.pending_accepts: Optional[deque] = None  # IoRequests
        # Connected side (queues allocated on first use).
        self.peer: Any = None  # a Socket or a RemoteEndpoint, while open
        self.rx_head: Optional[Message] = None
        self.rx_tail: Optional[Message] = None
        self.rx_bytes = 0
        self.rx_inflight = 0  # bytes transmitted but not yet delivered
        self.rx_capacity = rx_capacity
        self.rx_eof = False
        self.pending_recvs: Optional[deque] = None  # IoRequests
        self.waiting_senders: Optional[deque] = None  # IoRequests
        self.pending_connect: Optional[IoRequest] = None
        # Parked selects, and the head of the epoll registration chain.
        self.selectors: Optional[List[IoRequest]] = None
        self.epitems: Optional[EpollItem] = None

    def readable(self) -> bool:
        """select()'s readiness rule for this socket."""
        if self.state == "listening":
            return bool(self.accept_queue)
        return self.rx_head is not None or self.rx_eof

    # -- link upcalls (the endpoint protocol) ----------------------------

    def connected(self) -> None:
        """The connection this socket started is established."""
        request = self.pending_connect
        if request is not None:
            self.pending_connect = None
            self.stack._complete(request, self)

    def refused(self) -> None:
        """The listener closed while the connection was on the link."""
        request = self.pending_connect
        if request is not None:
            self.pending_connect = None
            self.stack._fail(request, ECONNREFUSED, -1)

    def rx(self, msg: Message) -> None:
        """``msg`` arrives: hand it to a parked recv, or buffer it."""
        stack = self.stack
        if self.pending_recvs:
            # Direct handoff to the parked receiver: the bytes never
            # occupy the buffer, so that space stays free -- re-admit
            # any sender parked on it before the handoff.
            request = self.pending_recvs.popleft()
            stack._world.spend(costs.RECV_WORK)
            stack._complete(request, msg)
            if self.waiting_senders:
                stack._drain_senders(self)
            return
        if self.rx_head is None:
            self.rx_head = msg
        else:
            self.rx_tail.next = msg
        self.rx_tail = msg
        self.rx_bytes += msg.nbytes
        stack._readable(self)

    def eof(self) -> None:
        """The peer closed.  Buffered data drains first; EOF only wakes
        the receivers of an *empty* socket."""
        stack = self.stack
        if self.rx_head is None:
            while self.pending_recvs:
                stack._complete(self.pending_recvs.popleft(), EOF)
        stack._readable(self)

    def __repr__(self) -> str:
        return "Socket(%s, port=%s, rx=%d)" % (
            self.state, self.port, self.rx_bytes,
        )


class RemoteEndpoint:
    """A remote host's end of one connection: a kernel-resident record.

    The load generator's clients live on other machines, so their ends
    of a connection are not sockets of this kernel -- no buffer, no
    queues, no descriptor.  The record holds only what the stack reads
    (``peer``, ``state``, ``rx_eof`` and the bytes on the link toward
    it), and the stack tells it of its connection's events through the
    four upcalls a :class:`Socket` takes too: ``connected()``,
    ``refused()`` (the listener closed while the connection was on the
    link), ``rx(msg)`` and ``eof()``.  A remote host consumes each
    message on arrival, so its receive window never fills: ``rx_bytes``
    is always 0, ``rx_capacity`` unbounded and no local send ever parks
    on it (``waiting_senders`` is always None).

    This base record ignores every event; :class:`ResidentClient` is the
    record the load generator runs.
    """

    __slots__ = ("peer", "state", "rx_eof", "rx_inflight")

    rx_bytes = 0
    rx_capacity = float("inf")
    waiting_senders = None

    def __init__(self) -> None:
        self.peer: Optional[Socket] = None  # while open
        self.state = "new"  # new | connecting | connected | closed
        self.rx_eof = False
        self.rx_inflight = 0

    def connected(self) -> None:
        pass

    def refused(self) -> None:
        pass

    def rx(self, msg: Message) -> None:
        pass

    def eof(self) -> None:
        pass


class EpollItem:
    """One epoll registration: descriptor ``fd`` of ``sock`` on ``ep``.

    The analogue of Linux's ``epitem``, and the registration's only
    record: it is ``ep.interest[fd]`` (and ``ep.ready[fd]`` while an
    edge is pending) and a link of the socket's ``epitems`` chain
    (``next`` is the registration behind it).  It is unlinked from both
    exactly once -- by ``epoll_ctl del``, by closing the socket or by
    closing the instance.
    """

    __slots__ = ("ep", "fd", "sock", "next")

    def __init__(self, ep: "EpollInstance", fd: int, sock: Socket) -> None:
        self.ep = ep
        self.fd = fd
        self.sock = sock
        self.next: Optional[EpollItem] = None


class EpollInstance:
    """A kernel-resident interest list: select() without the O(n) scan.

    ``interest`` maps fd -> :class:`EpollItem` for every registration;
    ``ready`` is an insertion-ordered set (a dict) of the items that
    pushed a readiness *edge* since the owner last consumed them.  A
    socket chains its own items, so a state change notifies only the
    epolls actually watching -- O(registrations of that socket) per
    edge, never O(interest).  Semantics are level-triggered: a
    descriptor stays in ``ready`` until a wait observes it unreadable
    (stale entries are dropped at wait time, never probed in between).
    """

    __slots__ = ("interest", "ready", "waiter", "closed")

    def __init__(self) -> None:
        self.interest: Dict[int, EpollItem] = {}
        self.ready: Dict[int, EpollItem] = {}
        self.waiter: Optional[IoRequest] = None
        self.closed = False

    def __repr__(self) -> str:
        return "EpollInstance(interest=%d, ready=%d)" % (
            len(self.interest), len(self.ready),
        )


#: EOF sentinel returned by ``sys_recv`` on a half-closed socket.
EOF = None


class NetStack:
    """One machine's socket layer.

    Parameters
    ----------
    latency_us:
        One-way link latency (mean when ``deterministic=False``).
    bandwidth_bytes_per_us:
        Link bandwidth; 0 means infinite (latency only).
    deterministic:
        Fixed latency vs. exponential with that mean (drawn from the
        world RNG, so runs stay reproducible).
    channel:
        Optional :class:`~repro.unix.firstclass.FirstClassInterface`;
        when set, completions bypass SIGIO entirely.
    """

    def __init__(
        self,
        world: World,
        kernel: UnixKernel,
        proc: Any,
        latency_us: float = 150.0,
        bandwidth_bytes_per_us: float = 0.0,
        deterministic: bool = True,
        rx_capacity: int = 65536,
        channel: Any = None,
    ) -> None:
        if latency_us <= 0:
            raise ValueError("latency must be positive: %r" % latency_us)
        self._world = world
        self._kernel = kernel
        self._proc = proc
        self.latency_us = latency_us
        self.bandwidth_bytes_per_us = bandwidth_bytes_per_us
        self.deterministic = deterministic
        self.rx_capacity = rx_capacity
        self.channel = channel
        #: Link delay in cycles when every message gets the same one (a
        #: deterministic, zero-bandwidth link); None when each message
        #: draws its own latency or adds its transfer time.
        self._fixed_delay: Optional[int] = None
        if deterministic and bandwidth_bytes_per_us <= 0:
            self._fixed_delay = max(world.cycles_for_us(latency_us), 1)
        #: ``self._deliver``, bound once: the callout of every message.
        self._deliver_msg = self._deliver
        self.listeners: Dict[int, Socket] = {}
        #: Kernel-resident client engine, when a load generator attached
        #: one (see :class:`ResidentClientEngine`; harvested by obs).
        self.resident: Optional["ResidentClientEngine"] = None
        # Counters (harvested by the observability layer).
        self.connections_opened = 0
        self.connections_refused = 0
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.sigio_completions = 0
        self.fc_completions = 0
        self.backpressure_stalls = 0
        self.select_calls = 0
        self.eof_delivered = 0
        # Epoll counters (net.epoll.* in the obs report).
        self.epoll_instances = 0
        self.epoll_ctl_calls = 0
        self.epoll_waits = 0
        self.epoll_wakeups = 0  # parked waiters completed by an edge
        self.epoll_edges = 0  # readiness edges pushed to interest lists
        self.epoll_ready_returned = 0  # descriptors reported by waits
        self.epoll_stale_dropped = 0  # ready entries found unreadable
        # Accept-path measurements (cycles; the scenario layer converts).
        self.accept_waits: List[int] = []
        self.accept_depth_max = 0

    # -- syscall surface (each charged like a unix/kernel.py service) --------

    def sys_socket(self) -> Socket:
        self._kernel._enter("socket", costs.SYS_SOCKET)
        return Socket(self, self.rx_capacity)

    def sys_bind(self, sock: Socket, port: int) -> bool:
        """Bind to a port; False when the port is taken."""
        self._kernel._enter("bind", costs.SYS_BIND)
        if port in self.listeners:
            return False
        sock.port = port
        sock.state = "bound"
        return True

    def sys_listen(self, sock: Socket, backlog: int) -> None:
        self._kernel._enter("listen", costs.SYS_BIND)
        sock.backlog = max(1, backlog)
        sock.state = "listening"
        if sock.accept_queue is None:
            sock.accept_queue = deque()
            sock.pending_accepts = deque()
        self.listeners[sock.port] = sock

    def sys_accept(self, sock: Socket) -> Optional[Socket]:
        """Non-blocking accept: a connected socket, or None (would block)."""
        self._kernel._enter("accept", costs.SYS_ACCEPT)
        return self._accept_pop(sock)

    def sys_connect(self, sock: Socket, port: int) -> bool:
        """Issue a connection attempt: the syscall charge, then the one
        connection path, :meth:`remote_connect`, with ``sock`` as the
        connecting endpoint.

        Returns False when refused at issue.  On True the connection
        establishes after one link latency; the caller parks a
        ``"connect"`` request, which the socket's ``connected()`` or
        ``refused()`` upcall completes.
        """
        self._kernel._enter("connect", costs.SYS_CONNECT)
        return self.remote_connect(port, sock) is not None

    def sys_send(self, sock: Socket, nbytes: int) -> Optional[int]:
        """Non-blocking send: bytes queued on the link, or None (would
        block -- the peer's receive buffer is full)."""
        self._kernel._enter("send", costs.SYS_SEND)
        peer = sock.peer
        assert peer is not None
        if not self._rx_admit(peer, nbytes):
            return None
        self._transmit(peer, nbytes)
        return nbytes

    def sys_recv(self, sock: Socket) -> Any:
        """Non-blocking recv: a :class:`Message`, :data:`EOF`, or the
        string ``"block"`` when nothing is available yet."""
        self._kernel._enter("recv", costs.SYS_RECV)
        if sock.rx_head is not None:
            msg = self._rx_pop(sock)
            if sock.waiting_senders:
                self._drain_senders(sock)
            return msg
        if sock.rx_eof:
            return EOF
        return "block"

    def sys_select(self, entries: List[Tuple[int, Socket]]) -> List[int]:
        """One readiness scan over ``entries`` ((fd, socket) pairs).

        Charged as one syscall plus a per-descriptor probe, like the
        real thing; returns the ready fds (possibly empty).
        """
        self._kernel._enter("select", costs.SYS_SELECT)
        if entries:
            self._world.spend(costs.SELECT_PER_FD, times=len(entries))
        self.select_calls += 1
        return [fd for fd, sock in entries if sock.readable()]

    def sys_close(self, sock: Socket) -> None:
        self._kernel._enter("net_close", costs.SYS_SOCKET)
        self._close(sock)

    # -- epoll-style interest lists (O(ready) readiness) ---------------------

    def sys_epoll_create(self) -> EpollInstance:
        self._kernel._enter("epoll_create", costs.SYS_EPOLL_CREATE)
        self.epoll_instances += 1
        return EpollInstance()

    def sys_epoll_ctl(
        self, ep: EpollInstance, op: str, fd: int,
        sock: Optional[Socket] = None,
    ) -> bool:
        """Add or remove one registration; False on a bad op/fd."""
        self._kernel._enter("epoll_ctl", costs.SYS_EPOLL_CTL)
        self.epoll_ctl_calls += 1
        if ep.closed:
            return False
        if op == "add":
            if sock is None or fd in ep.interest:
                return False
            item = ep.interest[fd] = EpollItem(ep, fd, sock)
            tail = sock.epitems
            if tail is None:
                sock.epitems = item
            else:
                while tail.next is not None:
                    tail = tail.next
                tail.next = item
            if sock.readable():
                # Level-triggered add: already-buffered data must not
                # need a fresh edge to surface.
                self._epoll_mark(item)
            return True
        if op == "del":
            item = ep.interest.pop(fd, None)
            if item is None:
                return False
            ep.ready.pop(fd, None)
            self._epoll_unchain(item)
            return True
        return False

    def sys_epoll_wait(
        self, ep: EpollInstance, maxevents: Optional[int] = None
    ) -> Any:
        """One O(ready) readiness harvest.

        Returns the ready fds, or the string ``"block"`` when nothing
        is ready (the library then parks via :meth:`wait_epoll`).
        Entries whose socket went unreadable since their edge (consumed
        by an earlier wait, or closed) are dropped as stale here --
        cost is charged only per descriptor actually *reported*, which
        is the whole point versus select's per-registration probe.
        ``maxevents`` caps the report and must be positive (Linux fails
        the call with ``EINVAL`` otherwise; the library checks first).
        """
        if maxevents is not None and maxevents <= 0:
            raise ValueError("maxevents must be positive: %r" % (maxevents,))
        self._kernel._enter("epoll_wait", costs.SYS_EPOLL_WAIT)
        self.epoll_waits += 1
        ready_fds: List[int] = []
        if ep.ready:
            stale: List[int] = []
            for fd, item in ep.ready.items():
                if item.sock.readable():
                    ready_fds.append(fd)
                else:
                    stale.append(fd)
            if stale:
                self.epoll_stale_dropped += len(stale)
                for fd in stale:
                    del ep.ready[fd]
        if not ready_fds:
            return "block"
        if maxevents is not None and len(ready_fds) > maxevents:
            ready_fds = ready_fds[:maxevents]
        self._world.spend(costs.EPOLL_PER_READY, times=len(ready_fds))
        self.epoll_ready_returned += len(ready_fds)
        return ready_fds

    def sys_epoll_close(self, ep: EpollInstance) -> None:
        """Close the interest list: every registration is dropped."""
        self._kernel._enter("net_close", costs.SYS_SOCKET)
        ep.closed = True
        for item in ep.interest.values():
            self._epoll_unchain(item)
        ep.interest.clear()
        ep.ready.clear()
        if ep.waiter is not None:
            # Defensive: a waiter parked by another thread wakes empty.
            waiter, ep.waiter = ep.waiter, None
            self._complete(waiter, [])

    def _epoll_mark(self, item: EpollItem) -> None:
        """One readiness edge reaches ``item``'s instance: wake its
        parked waiter (O(1) -- the edge carries the one newly ready fd)
        or record the item in the ready set for the next wait."""
        ep = item.ep
        waiter = ep.waiter
        if waiter is not None:
            ep.waiter = None
            self.epoll_wakeups += 1
            self._complete(waiter, [item.fd])
            return
        ep.ready.setdefault(item.fd, item)

    def _epoll_unchain(self, item: EpollItem) -> None:
        """Take ``item`` off its socket's registration chain."""
        sock = item.sock
        if sock.epitems is item:
            sock.epitems = item.next
            return
        prev = sock.epitems
        while prev.next is not item:
            prev = prev.next
        prev.next = item.next

    def _epoll_purge(self, sock: Socket) -> None:
        """``sock`` closes: drop each of its registrations from its
        instance (the chain goes with the socket)."""
        item = sock.epitems
        sock.epitems = None
        while item is not None:
            ep = item.ep
            del ep.interest[item.fd]
            ep.ready.pop(item.fd, None)
            item = item.next

    # -- would-block registration (no extra syscall; the issue above
    #    already expressed interest, as with FASYNC on a real kernel) ------

    def wait_accept(self, sock: Socket, requester: Any,
                    finisher: Optional[Callable] = None) -> IoRequest:
        request = IoRequest("accept", requester, sock=sock, finisher=finisher)
        sock.pending_accepts.append(request)
        return request

    def wait_connect(self, sock: Socket, requester: Any,
                     finisher: Optional[Callable] = None) -> IoRequest:
        request = IoRequest("connect", requester, sock=sock, finisher=finisher)
        sock.pending_connect = request
        return request

    def wait_recv(self, sock: Socket, requester: Any,
                  finisher: Optional[Callable] = None) -> IoRequest:
        request = IoRequest("recv", requester, sock=sock, finisher=finisher)
        if sock.pending_recvs is None:
            sock.pending_recvs = deque()
        sock.pending_recvs.append(request)
        return request

    def wait_send(self, sock: Socket, requester: Any, nbytes: int,
                  finisher: Optional[Callable] = None) -> IoRequest:
        """Park a backpressured send on the *peer's* receive buffer."""
        request = IoRequest(
            "send", requester, nbytes=nbytes, sock=sock, finisher=finisher
        )
        peer = sock.peer
        if peer.waiting_senders is None:
            peer.waiting_senders = deque()
        peer.waiting_senders.append(request)
        self.backpressure_stalls += 1
        return request

    def wait_select(self, entries: List[Tuple[int, Socket]],
                    requester: Any) -> IoRequest:
        request = IoRequest("select", requester, entries=list(entries))
        for __, sock in entries:
            if sock.selectors is None:
                sock.selectors = []
            sock.selectors.append(request)
        return request

    def wait_epoll(self, ep: EpollInstance, requester: Any) -> IoRequest:
        """Park an epoll_wait caller on its interest list; the next
        readiness edge completes it with the one ready fd (O(1))."""
        request = IoRequest("epoll", requester, epoll=ep)
        ep.waiter = request
        return request

    def cancel_request(self, request: IoRequest) -> None:
        """Teardown for a cancelled/timed-out waiter: deregister it so
        the kernel never wakes a thread that stopped waiting."""
        if request.done or request.cancelled:
            return
        request.cancelled = True
        sock = request.sock
        if request.op == "accept":
            _discard(sock.pending_accepts, request)
        elif request.op == "recv":
            _discard(sock.pending_recvs, request)
        elif request.op == "send":
            # Not done, so both ends are open: closing either end fails
            # every send parked between them.
            _discard(sock.peer.waiting_senders, request)
        elif request.op == "connect":
            if sock.pending_connect is request:
                sock.pending_connect = None
        elif request.op == "select":
            self._deregister_select(request)
        elif request.op == "epoll" and request.epoll.waiter is request:
            request.epoll.waiter = None

    # -- load-generator surface (kernel-resident remote hosts) ---------------

    def remote_connect(self, port: int, endpoint: Any = None) -> Any:
        """``endpoint`` connects to ``port``: the one connection path.

        Admission is decided at issue: refused when there is no
        listener, or its accept queue -- counting attempts already in
        flight (``claims``) -- is full.  An admitted connection gets its
        server-side socket now and establishes after one link latency
        (``_establish``), which tells the endpoint through its
        ``connected()`` or ``refused()`` upcall.  No syscall charge: a
        remote host is not this machine's kernel entering, and
        :meth:`sys_connect` charges its own before calling here.

        ``endpoint`` is a library :class:`Socket` or a remote end's
        record (a :class:`ResidentClient` for the load generator);
        without one a bare :class:`RemoteEndpoint` is made.  Returns the
        endpoint, or None when refused at issue.
        """
        listener = self.listeners.get(port)
        if (
            listener is None
            or listener.state != "listening"
            or len(listener.accept_queue) + listener.claims >= listener.backlog
        ):
            self.connections_refused += 1
            return None
        listener.claims += 1
        if endpoint is None:
            endpoint = RemoteEndpoint()
        server_side = Socket(self, self.rx_capacity)
        server_side.port = port
        server_side.peer = endpoint
        endpoint.peer = server_side
        endpoint.state = "connecting"
        self._world.post_in(
            self._fixed_delay or self._link_delay(0),
            self._establish, (listener, server_side, endpoint),
            "net-establish",
        )
        return endpoint

    def remote_send(self, endpoint: RemoteEndpoint, nbytes: int) -> None:
        """A remote host sends (no syscall charge).  Remote senders are
        never backpressured mid-simulation: over-admission queues on
        the link and counts as a stall."""
        peer = endpoint.peer
        if peer is None or peer.state == "closed":
            return
        if not self._rx_admit(peer, nbytes):
            self.backpressure_stalls += 1
        self._transmit(peer, nbytes)

    def remote_close(self, endpoint: RemoteEndpoint) -> None:
        """A remote host closes its end: EOF travels to this machine."""
        if endpoint.state == "closed":
            return
        endpoint.state = "closed"
        self._post_eof(endpoint.peer)
        endpoint.peer = None

    # -- kernel-internal machinery -------------------------------------------

    def _link_delay(self, nbytes: int) -> int:
        """Per-message delay of a link without a fixed one (callers
        take ``self._fixed_delay or self._link_delay(n)``)."""
        delay_us = self.latency_us
        if not self.deterministic:
            delay_us = self._world.rng.expovariate(self.latency_us)
        if self.bandwidth_bytes_per_us > 0 and nbytes:
            delay_us += nbytes / self.bandwidth_bytes_per_us
        return max(self._world.cycles_for_us(delay_us), 1)

    def _establish(self, conn: Tuple[Socket, Socket, Any]) -> None:
        """Link event: the connection ``(listener, server_side,
        client)`` reaches the listener; ``client`` is any endpoint."""
        listener, server_side, client = conn
        self._world.spend(costs.NET_DELIVER)
        listener.claims -= 1
        if listener.state != "listening":
            # The listener closed while the connection was on the link.
            self.connections_refused += 1
            client.state = "closed"
            server_side.state = "closed"
            client.peer = server_side.peer = None
            client.refused()
            return
        server_side.state = "connected"
        if client.state != "closed":  # closed in flight: stays closed
            client.state = "connected"
        self.connections_opened += 1
        queue = listener.accept_queue
        queue.append((server_side, self._world.now))
        if len(queue) > self.accept_depth_max:
            self.accept_depth_max = len(queue)
        if listener.pending_accepts:
            request = listener.pending_accepts.popleft()
            self._complete(request, self._accept_pop(listener))
        else:
            self._readable(listener)
        client.connected()

    def _accept_pop(self, sock: Socket) -> Optional[Socket]:
        if not sock.accept_queue:
            return None
        conn, enqueued_at = sock.accept_queue.popleft()
        self.accept_waits.append(self._world.now - enqueued_at)
        return conn

    def _rx_admit(self, sock: Any, nbytes: int) -> bool:
        return sock.rx_bytes + sock.rx_inflight + nbytes <= sock.rx_capacity

    def _rx_pop(self, sock: Socket) -> Message:
        msg = sock.rx_head
        behind = msg.next
        if behind is None:
            sock.rx_tail = None
        else:
            msg.next = None
        sock.rx_head = behind
        sock.rx_bytes -= msg.nbytes
        return msg

    def _transmit(self, dst: Any, nbytes: int) -> None:
        """Put one message on the link."""
        dst.rx_inflight += nbytes
        now = self._world.clock.cycles
        self._world.events.post(
            now + (self._fixed_delay or self._link_delay(nbytes)),
            self._deliver_msg,
            Message(nbytes, now, dst),
            "net-deliver",
        )

    def _deliver(self, msg: Message) -> None:
        """Link event: ``msg`` arrives at its ``dst``."""
        dst = msg.dst
        world = self._world
        world.spend(costs.NET_DELIVER)
        dst.rx_inflight -= msg.nbytes
        if dst.state == "closed":
            return  # arrived after close: dropped on the floor
        msg.delivered_at = world.clock.cycles
        self.messages_delivered += 1
        self.bytes_delivered += msg.nbytes
        dst.rx(msg)

    def _drain_senders(self, sock: Socket) -> None:
        """Receive-buffer space freed: resume backpressured senders."""
        while sock.waiting_senders:
            request = sock.waiting_senders[0]
            if not self._rx_admit(sock, request.nbytes):
                return
            sock.waiting_senders.popleft()
            self._transmit(sock, request.nbytes)
            self._complete(request, request.nbytes)

    def _close(self, sock: Socket) -> None:
        if sock.state == "closed":
            return
        was_listening = sock.state == "listening"
        sock.state = "closed"
        if was_listening:
            if self.listeners.get(sock.port) is sock:
                del self.listeners[sock.port]
            # Connections established but never accepted are reset:
            # each queued socket closes, so its peer gets EOF.
            queue = sock.accept_queue
            while queue:
                self._close(queue.popleft()[0])
            self._fail_all(sock.pending_accepts, EBADF, -1)
        # Every request parked on the socket completes now: none may
        # strand its thread on a descriptor that no longer exists.
        if sock.pending_connect is not None:
            request, sock.pending_connect = sock.pending_connect, None
            self._fail(request, EBADF, -1)
        self._fail_all(sock.pending_recvs, EBADF, None)
        self._fail_all(sock.waiting_senders, EPIPE, 0)
        peer = sock.peer
        if peer is not None:
            # Sends issued from this socket, parked on the peer's buffer.
            self._fail_all(peer.waiting_senders, EBADF, 0)
        # Purge readiness state *now*, before the fd is recycled: a
        # stale interest-list or selector entry matching a reused fd
        # would wake a dispatcher for the wrong socket.  A parked
        # epoll_wait is not woken (Linux semantics); a select is.
        self._epoll_purge(sock)
        if sock.selectors:
            for request in list(sock.selectors):
                self._deregister_select(request)
                self._fail(request, EBADF, [])
        self._post_eof(peer)
        sock.peer = None

    def _post_eof(self, peer: Any) -> None:
        """Put an EOF on the link toward ``peer`` unless it closed."""
        if peer is not None and peer.state != "closed":
            self._world.post_in(
                self._fixed_delay or self._link_delay(0),
                self._deliver_eof, peer, "net-eof",
            )

    def _deliver_eof(self, endpoint: Any) -> None:
        self._world.spend(costs.NET_DELIVER)
        if endpoint.state == "closed" or endpoint.rx_eof:
            return
        endpoint.rx_eof = True
        self.eof_delivered += 1
        endpoint.eof()

    # -- completion (repro.unix.io.complete: SIGIO or first-class) ----------

    def _complete(self, request: IoRequest, raw: Any) -> None:
        if request.cancelled:
            return
        if self.channel is None:
            self.sigio_completions += 1
        else:
            self.fc_completions += 1
        complete(request, raw, self.channel, self._kernel, self._proc)

    def _fail(self, request: IoRequest, err: int, result: Any) -> None:
        """Complete ``request`` with error ``err`` and the call's
        failure ``result`` (the finisher is bypassed)."""
        request.err = err
        request.finisher = None
        self._complete(request, result)

    def _fail_all(self, queue: Optional[deque], err: int, result: Any) -> None:
        while queue:
            self._fail(queue.popleft(), err, result)

    def _readable(self, sock: Socket) -> None:
        """``sock`` just became readable: complete the selects it makes
        ready, then push an edge to each of its epoll registrations."""
        if sock.selectors:
            for request in list(sock.selectors):
                if request.done or request.cancelled:
                    continue
                ready = [fd for fd, s in request.entries if s.readable()]
                if ready:
                    self._deregister_select(request)
                    self._complete(request, ready)
        item = sock.epitems
        while item is not None:
            self.epoll_edges += 1
            self._epoll_mark(item)
            item = item.next

    def _deregister_select(self, request: IoRequest) -> None:
        for __, sock in request.entries:
            _discard(sock.selectors, request)

    def __repr__(self) -> str:
        return "NetStack(conns=%d, msgs=%d, stalls=%d)" % (
            self.connections_opened,
            self.messages_delivered,
            self.backpressure_stalls,
        )


class ResidentClient(RemoteEndpoint):
    """One kernel-resident simulated client: an O(1) state record.

    The paper's thesis applied to the load generator: a client needs
    no thread, no generator, no stack -- just kernel state advanced by
    event-horizon entries.  The record *is* the client's end of its
    connection (a :class:`RemoteEndpoint`): the kernel calls its
    ``connected``/``refused``/``rx``/``eof`` upcalls directly from link
    events, and the only other entries it touches are its pre-scheduled
    arrival and its think-time wakeups.

    Lifecycle (the states are implicit in ``state``/``sent``):

    ``CONNECT``(arrive) -> ``SEND`` -> ``AWAIT_REPLY``(rx) ->
    ``THINK``(timer) -> ``SEND`` ... -> ``CLOSE`` after
    ``requests_per_client`` replies.

    The client keeps its own request clock: ``send`` stamps ``t0`` (in
    microseconds) and ``rx`` closes the latency sample against it.  A
    client has exactly one request outstanding, so any reply answers
    the request stamped in ``t0`` -- the messages themselves carry only
    a byte count.
    """

    __slots__ = ("engine", "t0", "sent")

    def __init__(self, engine: "ResidentClientEngine") -> None:
        RemoteEndpoint.__init__(self)
        self.engine = engine
        self.t0 = 0.0
        self.sent = 0

    # -- CONNECT: the pre-scheduled arrival event ------------------------

    def arrive(self) -> None:
        eng = self.engine
        if eng.stack.remote_connect(eng.port, self) is None:
            eng.refused += 1
            return
        eng.active += 1
        if eng.active > eng.peak_active:
            eng.peak_active = eng.active

    # -- SEND ------------------------------------------------------------

    def send(self) -> None:
        if self.state == "closed":
            return  # the server closed first while this client thought
        eng = self.engine
        world = eng.world
        self.t0 = world.clock.cycles / world.model.mhz  # world.now_us
        self.sent += 1
        eng.requests_sent += 1
        eng.stack.remote_send(self, eng.req_bytes)

    # -- kernel upcalls (the RemoteEndpoint protocol) --------------------

    def connected(self) -> None:
        self.send()

    def refused(self) -> None:
        """The listener closed while this connection was on the link:
        leave the active set as a refused client."""
        eng = self.engine
        eng.refused += 1
        eng.active -= 1

    def rx(self, msg: Message) -> None:
        """AWAIT_REPLY satisfied: sample latency, then THINK or CLOSE."""
        eng = self.engine
        world = eng.world
        eng.replies += 1
        eng.latencies_us.append(world.clock.cycles / world.model.mhz - self.t0)
        if self.sent >= eng.requests_per_client:
            eng.stack.remote_close(self)
            eng.completed += 1
            eng.active -= 1
            return
        world.events.post(
            world.clock.cycles + eng.think_cycles,
            ResidentClient.send, self, "client-think",
        )

    def eof(self) -> None:
        """Server closed first: close this end and leave the active set.

        The client did not finish its requests, so it is not counted
        as ``completed``.
        """
        eng = self.engine
        eng.stack.remote_close(self)
        eng.active -= 1


class ResidentClientEngine:
    """The shared half of a kernel-resident client fleet.

    Holds everything common to the records (stack, protocol parameters,
    result counters) so each :class:`ResidentClient` is its connection's
    endpoint plus three slots.
    The front-end (:class:`repro.net.loadgen.LoadGenerator`) compiles
    the arrival process into pre-posted ``ResidentClient.arrive(record)``
    callouts.  Registers itself on ``stack.resident``, where the
    scenario layer reads the results and the observability layer
    harvests the ``loadgen.resident.*`` counters.
    """

    __slots__ = (
        "stack", "world", "port", "requests_per_client", "req_bytes",
        "think_cycles", "latencies_us", "requests_sent",
        "replies", "refused", "completed", "spawned", "active",
        "peak_active",
    )

    def __init__(
        self,
        stack: NetStack,
        port: int,
        requests_per_client: int,
        req_bytes: int,
        think_us: float,
    ) -> None:
        self.stack = stack
        self.world = stack._world
        self.port = port
        self.requests_per_client = requests_per_client
        self.req_bytes = req_bytes
        self.think_cycles = max(1, self.world.cycles_for_us(think_us))
        self.latencies_us: List[float] = []
        self.requests_sent = 0
        self.replies = 0
        self.refused = 0
        self.completed = 0  # clients that finished all requests + closed
        self.spawned = 0
        self.active = 0  # arrived (admitted) and not yet closed
        self.peak_active = 0
        stack.resident = self

    def client(self) -> ResidentClient:
        self.spawned += 1
        return ResidentClient(self)

    def counters(self) -> Dict[str, int]:
        """Harvested as ``loadgen.resident.*`` by the obs layer."""
        return {
            "loadgen.resident.spawned": self.spawned,
            "loadgen.resident.active": self.active,
            "loadgen.resident.peak_active": self.peak_active,
            "loadgen.resident.completed": self.completed,
            "loadgen.resident.refused": self.refused,
            "loadgen.resident.requests_sent": self.requests_sent,
            "loadgen.resident.replies": self.replies,
        }


def _discard(queue: Any, request: IoRequest) -> None:
    if queue and request in queue:
        queue.remove(request)
