"""Asynchronous I/O requests and their one completion path.

The paper's library wraps blocking UNIX I/O in non-blocking requests so
that only the *thread*, never the process, blocks; the completion
arrives as a signal whose cause names the requesting thread (delivery
rule 4: "if the signal was caused by an I/O completion, direct it at
the thread which requested I/O").  The acknowledgements credit Viresh
Rustagi with this asynchronous I/O layer.

:class:`IoRequest` is the record of every such request, disk or socket
(:mod:`repro.unix.net` issues the socket kinds), and :func:`complete` is
the one kernel routine that finishes one: it stamps the result and
either posts ``SIGIO`` (the shipping design) or notifies the
first-class channel (:mod:`repro.unix.firstclass`, the paper's Open
Problems proposal).  :class:`IoDevice` models one device with a
configurable service-time distribution; its requests complete as
world events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hw import costs
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.sigset import SIGIO
from repro.unix.signals import SigCause


@dataclass
class IoRequest:
    """One parked asynchronous request, disk or socket.

    ``requester`` names the thread to wake (rule 4) and ``result`` is
    the value its library call returns with the error number ``err``.
    ``finisher`` lets the library map the raw kernel object to the
    caller-visible value (e.g. allocate an fd for an accepted socket)
    at completion time, under the kernel flag the waker already holds.
    Disk requests carry the device's ``reqid`` and name their
    descriptor in ``fd``; socket requests name their
    :class:`~repro.unix.net.Socket` in ``sock`` (none for select and
    epoll waits, which hold ``entries`` or ``epoll`` instead) and a
    backpressured send keeps its byte count in ``nbytes``.
    """

    op: str  # read | write | accept | connect | recv | send | select | epoll
    requester: Any
    reqid: int = 0  # disk only: the device's inflight key
    fd: int = -1
    nbytes: int = 0
    sock: Any = None
    entries: Optional[List[Tuple[int, Any]]] = None  # select only
    epoll: Any = None  # epoll_wait only
    finisher: Optional[Callable[[Any], Any]] = None
    done: bool = False
    cancelled: bool = False
    result: Any = None
    err: int = 0


def complete(
    request: IoRequest, raw: Any, channel: Any, kernel: UnixKernel, proc: Any
) -> None:
    """Kernel side: finish ``request`` with ``raw`` and tell its requester.

    With a first-class ``channel`` the request goes straight to the user
    scheduler; otherwise ``SIGIO`` is posted to ``proc`` with a cause
    naming the requester, for delivery rule 4 to demultiplex.
    """
    request.done = True
    finisher = request.finisher
    request.result = raw if finisher is None else finisher(raw)
    if channel is not None:
        channel.notify(request)
        return
    cause = SigCause(kind="io", thread=request.requester, data=request)
    kernel.world.spend(costs.INSN)
    kernel.post_signal(proc, SIGIO, cause)


class IoDevice:
    """A device completing requests after a simulated service time.

    Parameters
    ----------
    latency_us:
        Mean service time in microseconds.
    deterministic:
        If True every request takes exactly ``latency_us``; otherwise
        service times are exponential with that mean (drawn from the
        world RNG, so runs stay reproducible).
    """

    def __init__(
        self,
        world: World,
        kernel: UnixKernel,
        proc: Any,
        latency_us: float = 500.0,
        deterministic: bool = True,
        name: str = "disk0",
        channel: Any = None,
    ) -> None:
        if latency_us <= 0:
            raise ValueError("latency must be positive: %r" % latency_us)
        self._world = world
        self._kernel = kernel
        self._proc = proc
        self._latency_us = latency_us
        self._deterministic = deterministic
        self.name = name
        #: Optional first-class kernel/user channel (Marsh & Scott):
        #: completions bypass SIGIO and notify the user scheduler
        #: directly with the request.
        self.channel = channel
        self._ids = itertools.count(1)
        self.inflight: Dict[int, IoRequest] = {}
        self.completed = 0

    def submit(
        self, fd: int, op: str, nbytes: int, requester: Any
    ) -> IoRequest:
        """Issue a non-blocking request; completion posts ``SIGIO``.

        Charged as one syscall (the non-blocking ``read``/``write``
        issue).  Returns the request handle the caller can sleep on.
        """
        if op not in ("read", "write"):
            raise ValueError("bad I/O op: %r" % (op,))
        if nbytes < 0:
            raise ValueError("negative I/O size: %r" % (nbytes,))
        self._kernel._enter("aio_%s" % op)
        request = IoRequest(
            reqid=next(self._ids),
            fd=fd,
            op=op,
            nbytes=nbytes,
            requester=requester,
        )
        self.inflight[request.reqid] = request
        delay_us = self._latency_us
        if not self._deterministic:
            delay_us = self._world.rng.expovariate(self._latency_us)
        delay = max(self._world.cycles_for_us(delay_us), 1)
        self._world.post_in(delay, self._complete, request, "io-complete")
        return request

    def _complete(self, request: IoRequest) -> None:
        del self.inflight[request.reqid]
        self.completed += 1
        complete(
            request, request.nbytes, self.channel, self._kernel, self._proc
        )

    def __repr__(self) -> str:
        return "IoDevice(%s, inflight=%d, completed=%d)" % (
            self.name,
            len(self.inflight),
            self.completed,
        )
