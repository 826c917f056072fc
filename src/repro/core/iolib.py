"""Thread-blocking I/O over asynchronous UNIX requests.

UNIX read/write would block the whole process; the library instead
issues a non-blocking request and suspends only the calling *thread*.
The completion arrives as SIGIO with a cause naming the requester
(delivery-model rule 4), and only that thread wakes.  The paper credits
this layer to Viresh Rustagi and discusses its limits under "Open
Problems" (UNIX lacks non-blocking equivalents for some calls).

Disk and socket calls (:mod:`repro.core.netlib`) park through one
helper, :meth:`IoOps.park`, and wake through one, :meth:`IoOps.wake`,
whichever way the completion arrives.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.errors import EINVAL
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb, WaitRecord
from repro.hw import costs
from repro.unix import net as _net


class IoOps(LibraryOps):
    """Entry points for thread-level read/write.

    Two completion paths exist, and both end in :meth:`wake`:

    - the paper's shipping design: SIGIO through the universal handler,
      demultiplexed by delivery-model rule 4;
    - the paper's *proposed* design (Open Problems / Marsh & Scott):
      a first-class kernel/user channel that hands the completed
      request straight to the library scheduler (:meth:`fc_upcall`),
      skipping signal delivery entirely.
    """

    ENTRIES = {
        "read": "lib_read",
        "write": "lib_write",
    }

    def lib_read(
        self, tcb: Tcb, fd: int, nbytes: int, device: str = "disk0"
    ) -> Any:
        """Blocking-at-thread-level read; returns ``(err, nbytes)``."""
        return self._io(tcb, "read", fd, nbytes, device)

    def lib_write(
        self, tcb: Tcb, fd: int, nbytes: int, device: str = "disk0"
    ) -> Any:
        """Blocking-at-thread-level write; returns ``(err, nbytes)``."""
        return self._io(tcb, "write", fd, nbytes, device)

    def _io(self, tcb: Tcb, op: str, fd: int, nbytes: int, device: str) -> Any:
        rt = self.rt
        # Descriptor-first routing: an fd installed in the runtime's
        # fd table names its device (or socket) directly, as on UNIX.
        # Unmapped fds fall back to the legacy ``device=`` keyword --
        # the fallback charges nothing, so pre-fd-table programs run
        # bit-identically (pinned by test_fdtable_regression).
        dev = rt.fds.get(fd)
        if dev is None:
            dev = rt.io_devices.get(device)
        elif isinstance(dev, _net.Socket):
            # Sockets share the descriptor space: read/recv and
            # write/send are the same call on a socket fd.
            if op == "read":
                return rt.net_ops.lib_recv(tcb, fd)
            return rt.net_ops.lib_send(tcb, fd, nbytes)
        if dev is None:
            return (EINVAL, 0)
        if nbytes < 0:
            return (EINVAL, 0)
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        rt.world.spend(costs.INSN, times=8)
        request = dev.submit(fd, op, nbytes, requester=tcb)
        self.park(dev, request)
        rt.world.emit(
            "io-issue", thread=tcb.name, op=op, fd=fd, nbytes=nbytes
        )
        rt.kern.leave()
        return BLOCKED

    # -- parking and waking (disk and socket requests alike) ----------------

    def park(
        self,
        obj: Any,
        request: Any,
        teardown: Optional[Callable[[], None]] = None,
    ) -> WaitRecord:
        """Park the current thread on ``request`` (kernel flag held).

        ``"io"`` is an interruption wait: a handler or cancellation that
        ends it early runs ``teardown`` (socket requests deregister
        themselves; a disk request has none and completes unheard).
        """
        return self.rt.block_current("io", obj, teardown, request=request)

    def wake(self, request: Any, value: Any) -> bool:
        """Return ``value`` from the requester's call and ready it
        (kernel flag held).

        False, with nothing done, when the requester no longer waits on
        this request (a handler or cancellation ended the wait, or a
        select timeout and a completion raced): the stale wake is
        dropped.  Only an ``"io"`` wait holds a request.  A select or
        epoll_wait timeout still queued is cancelled, so a wait that
        completes first leaves no deadline behind.
        """
        tcb = request.requester
        wait = tcb.wait
        if wait is None or wait.data.get("request") is not request:
            return False
        handle = wait.data.get("timeout_handle")
        if handle is not None:
            self.rt.timer_ops.cancel_timeout(handle)
        wait.deliver(value)
        self.rt.sched.make_ready(tcb)
        return True

    # -- the first-class channel (upcall side) -----------------------------------

    def fc_upcall(self, request: Any) -> None:
        """The user-scheduler upcall the channel invokes on completion.

        Respects the monolithic monitor: inside the kernel the upcall
        is logged for the dispatcher (like a deferred signal);
        otherwise it wakes the thread immediately -- no recipient
        search, no sigsetmask pair, no universal handler.
        """
        kern = self.rt.kern
        if kern.kernel_flag:
            kern.deferred_upcalls.append(request)
            kern.request_dispatch()
            return
        kern.enter()
        self.fc_wake(request)
        kern.request_dispatch()
        kern.leave()

    def fc_wake(self, request: Any) -> None:
        """Wake a first-class completion's requester (kernel flag held)."""
        if self.wake(request, (request.err, request.result)):
            tcb = request.requester
            self.rt.world.emit("io-fc-wake", thread=tcb.name)
