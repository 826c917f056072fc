"""Thread-blocking socket calls over the simulated network stack.

The same shape as :mod:`repro.core.iolib`: UNIX ``accept``/``recv``/
``send``/``connect``/``select`` would block the whole process, so each
entry point issues the *non-blocking* kernel service
(:mod:`repro.unix.net`) and, when it would block, suspends only the
calling thread on an :class:`~repro.unix.io.IoRequest`, the record disk
reads park on.  The completion arrives either as ``SIGIO`` with a
cause naming the requester (delivery-model rule 4) or through the
first-class channel, and wakes exactly that thread through the one
library wake, :meth:`~repro.core.iolib.IoOps.wake`; a select or
epoll_wait timeout wakes through it too.  A thread parked on a socket
that another thread closes wakes with ``EBADF`` (``EPIPE`` for a send
parked on the closed socket's buffer), except in ``epoll_wait``.

Every blocking call is an interruption point: a pending cancellation
acts before the request is issued, and a cancellation landing while
the thread waits runs the request's teardown
(:meth:`~repro.unix.net.NetStack.cancel_request`), deregistering it so
the kernel never wakes a thread that stopped waiting.

Descriptors come from the runtime's :class:`~repro.core.fdtable.FdTable`;
sockets and disk devices share one descriptor space, so ``pt.read`` /
``pt.write`` on a socket fd route here (see ``IoOps._io``).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.errors import (
    EBADF,
    ECONNREFUSED,
    EINVAL,
    EISCONN,
    EADDRINUSE,
    ENOTCONN,
    EPIPE,
    OK,
)
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb
from repro.unix.io import IoRequest
from repro.unix.net import EpollInstance, Socket


class NetOps(LibraryOps):
    """Entry points for thread-level socket operations.

    Return conventions (POSIX-flavoured, tuple-valued like ``read``):

    - ``socket()`` -> fd (or -1 when no network stack is attached)
    - ``bind/listen/net_close`` -> err
    - ``connect`` -> ``(err, fd)``
    - ``accept`` -> ``(err, conn_fd)``
    - ``send`` -> ``(err, nbytes)``
    - ``recv`` -> ``(err, message_or_None)`` (None = orderly EOF)
    - ``select`` -> ``(err, ready_fds)`` (empty list = timeout)
    """

    ENTRIES = {
        "socket": "lib_socket",
        "bind": "lib_bind",
        "listen": "lib_listen",
        "accept": "lib_accept",
        "connect": "lib_connect",
        "send": "lib_send",
        "recv": "lib_recv",
        "select": "lib_select",
        "net_close": "lib_close",
        "epoll_create": "lib_epoll_create",
        "epoll_ctl": "lib_epoll_ctl",
        "epoll_wait": "lib_epoll_wait",
    }

    # -- non-blocking setup calls -------------------------------------------

    def lib_socket(self, tcb: Tcb) -> int:
        del tcb
        rt = self.rt
        if rt.net is None:
            return -1
        rt.kern.enter()
        sock = rt.net.sys_socket()
        fd = rt.fds.alloc(sock)
        rt.kern.leave()
        return fd

    def lib_bind(self, tcb: Tcb, fd: int, port: int) -> int:
        del tcb
        rt = self.rt
        sock = self._sock(fd)
        if sock is None:
            return EBADF
        if sock.state != "new":
            return EINVAL
        rt.kern.enter()
        ok = rt.net.sys_bind(sock, port)
        rt.kern.leave()
        return OK if ok else EADDRINUSE

    def lib_listen(self, tcb: Tcb, fd: int, backlog: int = 8) -> int:
        del tcb
        rt = self.rt
        sock = self._sock(fd)
        if sock is None:
            return EBADF
        if sock.state != "bound":
            return EINVAL
        rt.kern.enter()
        rt.net.sys_listen(sock, backlog)
        rt.kern.leave()
        return OK

    def lib_close(self, tcb: Tcb, fd: int) -> int:
        del tcb
        rt = self.rt
        obj = rt.fds.close(fd)
        if obj is None:
            return EBADF
        if isinstance(obj, Socket):
            rt.kern.enter()
            rt.net.sys_close(obj)
            rt.kern.leave()
        elif isinstance(obj, EpollInstance):
            rt.kern.enter()
            rt.net.sys_epoll_close(obj)
            rt.kern.leave()
        return OK

    # -- epoll (interest lists; see repro.unix.net.EpollInstance) -----------

    def lib_epoll_create(self, tcb: Tcb) -> int:
        del tcb
        rt = self.rt
        if rt.net is None:
            return -1
        rt.kern.enter()
        ep = rt.net.sys_epoll_create()
        fd = rt.fds.alloc(ep)
        rt.kern.leave()
        return fd

    def lib_epoll_ctl(self, tcb: Tcb, epfd: int, op: str, fd: int) -> int:
        del tcb
        rt = self.rt
        ep = self._epoll(epfd)
        if ep is None:
            return EBADF
        sock = self._sock(fd)
        if op == "add" and sock is None:
            return EBADF
        rt.kern.enter()
        ok = rt.net.sys_epoll_ctl(ep, op, fd, sock)
        rt.kern.leave()
        return OK if ok else EINVAL

    def lib_epoll_wait(
        self,
        tcb: Tcb,
        epfd: int,
        maxevents: Optional[int] = None,
        timeout_us: Optional[float] = None,
    ) -> Any:
        rt = self.rt
        ep = self._epoll(epfd)
        if ep is None:
            return (EBADF, [])
        if maxevents is not None and maxevents <= 0:
            return (EINVAL, [])
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        ready = rt.net.sys_epoll_wait(ep, maxevents)
        if ready != "block":
            rt.kern.leave()
            return (OK, ready)
        if timeout_us is not None and timeout_us <= 0:
            rt.kern.leave()
            return (OK, [])
        request = rt.net.wait_epoll(ep, tcb)
        self._park(tcb, rt.net, request, "epoll_wait", epfd, timeout_us)
        rt.kern.leave()
        return BLOCKED

    # -- blocking calls ------------------------------------------------------

    def lib_accept(self, tcb: Tcb, fd: int) -> Any:
        rt = self.rt
        sock = self._sock(fd)
        if sock is None:
            return (EBADF, -1)
        if sock.state != "listening":
            return (EINVAL, -1)
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        conn = rt.net.sys_accept(sock)
        if conn is not None:
            conn_fd = rt.fds.alloc(conn)
            rt.kern.leave()
            return (OK, conn_fd)
        request = rt.net.wait_accept(
            sock, tcb, finisher=lambda c: rt.fds.alloc(c)
        )
        self._park(tcb, sock, request, "accept", fd)
        rt.kern.leave()
        return BLOCKED

    def lib_connect(self, tcb: Tcb, fd: int, port: int) -> Any:
        rt = self.rt
        sock = self._sock(fd)
        if sock is None:
            return (EBADF, -1)
        if sock.state == "connected":
            return (EISCONN, fd)
        if sock.state != "new":
            return (EINVAL, -1)
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        issued = rt.net.sys_connect(sock, port)
        if not issued:
            rt.kern.leave()
            return (ECONNREFUSED, -1)
        request = rt.net.wait_connect(sock, tcb, finisher=lambda c: fd)
        self._park(tcb, sock, request, "connect", fd)
        rt.kern.leave()
        return BLOCKED

    def lib_send(self, tcb: Tcb, fd: int, nbytes: int) -> Any:
        rt = self.rt
        sock = self._sock(fd)
        if sock is None:
            return (EBADF, 0)
        if nbytes <= 0:
            return (EINVAL, 0)
        if sock.state != "connected":
            return (ENOTCONN, 0)
        if sock.peer.state == "closed":
            return (EPIPE, 0)
        if tcb.cancel_pending and rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        sent = rt.net.sys_send(sock, nbytes)
        if sent is not None:
            rt.kern.leave()
            return (OK, sent)
        # The peer's receive buffer is full: backpressure blocks the
        # *thread* (never the process) until space frees.
        request = rt.net.wait_send(sock, tcb, nbytes, finisher=lambda n: n)
        self._park(tcb, sock, request, "send", fd)
        rt.kern.leave()
        return BLOCKED

    def lib_recv(self, tcb: Tcb, fd: int) -> Any:
        rt = self.rt
        sock = self._sock(fd)
        if sock is None:
            return (EBADF, None)
        if sock.state != "connected":
            return (ENOTCONN, None)
        if tcb.cancel_pending and rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        got = rt.net.sys_recv(sock)
        if got != "block":
            rt.kern.leave()
            return (OK, got)  # a Message, or None for orderly EOF
        request = rt.net.wait_recv(sock, tcb)
        self._park(tcb, sock, request, "recv", fd)
        rt.kern.leave()
        return BLOCKED

    def lib_select(
        self, tcb: Tcb, fds: List[int], timeout_us: Optional[float] = None
    ) -> Any:
        rt = self.rt
        entries = []
        for fd in fds:
            sock = self._sock(fd)
            if sock is None:
                return (EBADF, [])
            entries.append((fd, sock))
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        ready = rt.net.sys_select(entries)
        if ready:
            rt.kern.leave()
            return (OK, ready)
        if timeout_us is not None and timeout_us <= 0:
            rt.kern.leave()
            return (OK, [])
        request = rt.net.wait_select(entries, tcb)
        self._park(tcb, rt.net, request, "select", -1, timeout_us)
        rt.kern.leave()
        return BLOCKED

    # -- plumbing ------------------------------------------------------------

    def _sock(self, fd: int) -> Optional[Socket]:
        obj = self.rt.fds.entries.get(fd)
        return obj if isinstance(obj, Socket) else None

    def _epoll(self, fd: int) -> Optional[EpollInstance]:
        obj = self.rt.fds.entries.get(fd)
        return obj if isinstance(obj, EpollInstance) else None

    def _park(
        self,
        tcb: Tcb,
        obj: Any,
        request: IoRequest,
        op: str,
        fd: int,
        timeout_us: Optional[float] = None,
    ) -> None:
        """Park the caller on its request (kernel flag held) through
        :meth:`~repro.core.iolib.IoOps.park`, with the teardown that
        deregisters the request if cancellation ends the wait.  A
        select or epoll_wait ``timeout_us`` arms a timer that wakes the
        caller with no fds unless the request completed first."""
        rt = self.rt
        record = rt.io_ops.park(
            obj, request, lambda: rt.net.cancel_request(request)
        )
        if rt.world.trace is not None:
            rt.world.emit("net-issue", thread=tcb.name, op=op, fd=fd)
        if timeout_us is not None:
            record.timeout = rt.timer_ops.add_timeout(
                timeout_us, lambda: self._timed_out(request)
            )

    def _timed_out(self, request: IoRequest) -> None:
        """Timer-queue callback (kernel flag held)."""
        rt = self.rt
        if rt.io_ops.wake(request, (OK, [])):
            rt.net.cancel_request(request)
