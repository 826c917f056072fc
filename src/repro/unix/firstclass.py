"""A Marsh & Scott style kernel/user interface (the paper's proposal).

Under "Non-Blocking Kernel Calls" the paper endorses Psyche's
first-class user-level threads [16]: "when issuing non-blocking I/O
requests the kernel associates the request with a user-provided datum
(the calling thread) such that the user-level thread scheduler can be
notified of the I/O completion in conjunction with this datum.  This
obviates signal demultiplexing at the user level which should increase
the response to asynchronous events considerably."

:class:`FirstClassInterface` is that interface: a software-interrupt
channel through shared memory.  Completions carry the datum straight
to a registered user-scheduler callback at a cost comparable to a trap
(no UNIX signal delivery, no universal handler, no sigsetmask pair).
``benchmarks/test_ablation_first_class.py`` measures the difference
against the SIGIO path, reproducing the paper's argument.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.hw import costs
from repro.sim.world import World
from repro.unix.io import IoRequest
from repro.unix.kernel import UnixKernel

#: Cost of the kernel posting a completion into the shared-memory
#: channel and resuming user code -- the "without unduly complicating
#: the operating system kernel" price: far below full signal delivery.
SOFT_INTERRUPT_CYCLES = 240


class FirstClassInterface:
    """The shared-memory kernel/user notification channel."""

    def __init__(self, world: World, kernel: UnixKernel) -> None:
        self.world = world
        self.kernel = kernel
        #: The user-level scheduler's upcall: ``fn(datum, request)``.
        self._upcall: Optional[Callable[[Any, IoRequest], None]] = None
        #: Completions that arrived before an upcall was registered.
        self.backlog: List[Tuple[Any, IoRequest]] = []
        self.notifications = 0

    def register_scheduler(
        self, upcall: Callable[[Any, IoRequest], None]
    ) -> None:
        """One syscall at initialisation registers the channel."""
        self.kernel._enter("fc_register")
        self._upcall = upcall
        backlog, self.backlog = self.backlog, []
        for datum, request in backlog:
            self._notify(datum, request)

    def complete(self, request: IoRequest) -> None:
        """Kernel side: the device finished; notify the user scheduler
        through the channel (cheap), never through a signal."""
        request.done = True
        request.result = request.nbytes
        request.complete_time = self.world.now
        self._notify(request.requester, request)

    def notify(self, datum: Any, request: Any) -> None:
        """Kernel side: generic completion with the result already set.

        Disk completions go through :meth:`complete` (which stamps the
        byte count); network completions (:mod:`repro.unix.net`) carry
        richer results and arrive here with ``request.result`` filled
        in.  Same channel, same soft-interrupt cost, same upcall.
        """
        self._notify(datum, request)

    def _notify(self, datum: Any, request: IoRequest) -> None:
        self.world.spend_cycles(SOFT_INTERRUPT_CYCLES, fire=False)
        self.notifications += 1
        if self._upcall is None:
            self.backlog.append((datum, request))
            return
        self._upcall(datum, request)
