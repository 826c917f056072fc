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
The kernel reaches the channel only through :meth:`notify`, called by
:func:`repro.unix.io.complete` for disk and socket requests alike; the
runtime registers the upcall in the call that builds the channel, so
no completion ever arrives unregistered.
``benchmarks/test_ablation_first_class.py`` measures the difference
against the SIGIO path, reproducing the paper's argument.
"""

from __future__ import annotations

from typing import Callable, Optional

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
        #: The user-level scheduler's upcall: ``fn(request)``; the
        #: request's ``requester`` is the datum.
        self._upcall: Optional[Callable[[IoRequest], None]] = None
        self.notifications = 0

    def register_scheduler(self, upcall: Callable[[IoRequest], None]) -> None:
        """One syscall at initialisation registers the channel."""
        self.kernel._enter("fc_register")
        self._upcall = upcall

    def notify(self, request: IoRequest) -> None:
        """Kernel side: ``request`` completed (its result already set);
        hand it to the user scheduler through the channel (cheap), never
        through a signal."""
        self.world.spend_cycles(SOFT_INTERRUPT_CYCLES, fire=False)
        self.notifications += 1
        self._upcall(request)
