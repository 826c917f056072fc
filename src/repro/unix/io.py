"""Asynchronous I/O with ``SIGIO`` completion.

The paper's library wraps blocking UNIX I/O in non-blocking requests so
that only the *thread*, never the process, blocks; the completion
arrives as a signal whose cause names the requesting thread (delivery
rule 4: "if the signal was caused by an I/O completion, direct it at
the thread which requested I/O").  The acknowledgements credit Viresh
Rustagi with this asynchronous I/O layer.

:class:`IoDevice` models one device with a configurable service-time
distribution.  Requests complete as world events posting ``SIGIO``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.hw import costs
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.sigset import SIGIO
from repro.unix.signals import SigCause


@dataclass
class IoRequest:
    """One in-flight asynchronous I/O request."""

    reqid: int
    fd: int
    op: str  # "read" or "write"
    nbytes: int
    requester: Any  # the thread token (delivery rule 4)
    issue_time: int
    done: bool = False
    result: int = 0
    err: int = 0  # the error number returned with ``result``
    complete_time: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)


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
        #: directly with the request's datum.
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
            issue_time=self._world.now,
        )
        self.inflight[request.reqid] = request
        delay_us = self._latency_us
        if not self._deterministic:
            delay_us = self._world.rng.expovariate(self._latency_us)
        delay = max(self._world.cycles_for_us(delay_us), 1)
        self._world.post_in(delay, self._complete, request, "io-complete")
        return request

    def _complete(self, request: IoRequest) -> None:
        request.done = True
        request.result = request.nbytes
        request.complete_time = self._world.now
        del self.inflight[request.reqid]
        self.completed += 1
        if self.channel is not None:
            # First-class path: straight to the user scheduler.
            self.channel.complete(request)
            return
        cause = SigCause(kind="io", thread=request.requester, data=request)
        self._world.spend(costs.INSN)
        self._kernel.post_signal(self._proc, SIGIO, cause)

    def __repr__(self) -> str:
        return "IoDevice(%s, inflight=%d, completed=%d)" % (
            self.name,
            len(self.inflight),
            self.completed,
        )
