"""Per-process UNIX signal state and delivery.

This models 4.3 BSD semantics, including the detail the paper's design
fights against: the kernel keeps *one* pending slot per signal number,
so a signal that arrives while the same signal is both pending and
masked is **lost**.  That is why the library "blocks signals for the
shortest interval possible" and uses exactly two ``sigsetmask`` calls
per received signal; the ``lost`` counter of :class:`PendingSignals`
makes the hazard observable.

Handlers come in two flavours:

- ordinary handlers (``manual_return=False``): the kernel charges the
  full deliver + sigreturn path around the callback, as for any C
  handler;
- the Pthreads *universal handler* (``manual_return=True``): the
  kernel pushes an :class:`InterruptFrame`, hands it to the handler as
  ``handler(sig, cause, frame)`` and leaves the return path to the
  library, because the library may dispatch a different thread and
  only execute the ``sigreturn`` when the interrupted thread is
  resumed (paper, "The Dispatcher").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.unix.sigset import (
    SIG_DFL,
    SIG_IGN,
    SigSet,
    check_signal,
    signal_name,
)

#: A disposition marker, ``fn(sig, cause)``, or -- for a manual-return
#: action -- ``fn(sig, cause, frame)``.
Handler = Union[str, Callable[..., None]]


@dataclass(frozen=True)
class SigCause:
    """Why a signal was generated -- drives the paper's delivery model.

    ``kind`` is one of:

    - ``"directed"``: aimed at a specific thread (``pthread_kill``);
    - ``"synchronous"``: a fault caused by the running thread;
    - ``"timer"``: an interval-timer expiration (``thread`` = armer);
    - ``"io"``: an I/O completion (``thread`` = requester);
    - ``"external"``: sent from outside the process (``kill``);
    - ``"cancel"``: the library-internal cancellation request.
    """

    kind: str = "external"
    thread: Optional[Any] = None
    code: int = 0
    data: Optional[Any] = None
    #: True when the signal crossed CPUs via an interprocessor
    #: interrupt (SMP worlds only; see repro.sim.smp).  Stamped by the
    #: routing layer -- senders never set it themselves.
    via_ipi: bool = False

    VALID_KINDS = frozenset(
        {"directed", "synchronous", "timer", "io", "external", "cancel"}
    )

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError("invalid signal cause kind: %r" % (self.kind,))


@dataclass(frozen=True)
class SigAction:
    """Disposition installed by ``sigaction``."""

    handler: Handler = SIG_DFL
    mask: SigSet = field(default_factory=SigSet)
    manual_return: bool = False

    def is_default(self) -> bool:
        return self.handler == SIG_DFL

    def is_ignore(self) -> bool:
        return self.handler == SIG_IGN


@dataclass
class InterruptFrame:
    """The frame UNIX pushes on the user stack to run a handler.

    A ``manual_return`` handler receives it as its third argument; the
    library holds on to it and performs the ``sigreturn`` (restoring
    ``saved_mask`` and the global register state) only when the
    interrupted thread resumes.
    """

    sig: int
    cause: SigCause
    saved_mask: SigSet


class DefaultActionTerminate(Exception):
    """A signal's default action terminated the (simulated) process."""

    def __init__(self, sig: int) -> None:
        super().__init__(
            "process terminated by default action of %s" % signal_name(sig)
        )
        self.sig = sig


class PendingSignals:
    """Pending signals: one slot per signal number, in arrival order.

    The BSD rule, kept by the process (``ProcessSignals.pending``) and
    by every thread (``Tcb.pending``, delivery action rule 1) alike: a
    signal that arrives while the same signal is still pending is
    lost, and counted in ``lost``.  ``order`` lists the pending signal
    numbers oldest first; it is empty exactly when nothing is pending.
    """

    __slots__ = ("_causes", "order", "lost")

    def __init__(self) -> None:
        self._causes: Dict[int, SigCause] = {}
        self.order: List[int] = []
        self.lost = 0

    def post(self, sig: int, cause: SigCause) -> bool:
        """Mark ``sig`` pending.  Returns False if it was lost."""
        if sig in self._causes:
            self.lost += 1
            return False
        self._causes[sig] = cause
        self.order.append(sig)
        return True

    def take_unmasked(self, mask: SigSet) -> Optional[Tuple[int, SigCause]]:
        """Pop the oldest pending signal not in ``mask`` as (sig, cause)."""
        for index, sig in enumerate(self.order):
            if sig not in mask:
                del self.order[index]
                return sig, self._causes.pop(sig)
        return None

    def take_in(self, wanted: SigSet) -> Optional[Tuple[int, SigCause]]:
        """Pop the oldest pending signal contained in ``wanted``."""
        for index, sig in enumerate(self.order):
            if sig in wanted:
                del self.order[index]
                return sig, self._causes.pop(sig)
        return None

    def discard(self, sig: int) -> None:
        if sig in self._causes:
            del self._causes[sig]
            self.order.remove(sig)

    def signals(self) -> SigSet:
        """The pending set (``sigpending``)."""
        return SigSet(self.order)


#: The disposition of a signal no ``sigaction`` has set.  One shared
#: instance: an action is never changed in place, and a fresh runtime
#: would otherwise build and drop one per signal it installs.
_DEFAULT_ACTION = SigAction()


class ProcessSignals:
    """Signal state of one UNIX process."""

    def __init__(self) -> None:
        self.mask = SigSet()
        self.actions: Dict[int, SigAction] = {}
        self.pending = PendingSignals()
        self.delivered = 0
        self.ipi_posts = 0  # posts that arrived via cross-CPU interrupt

    # -- installation -------------------------------------------------------

    def set_action(self, sig: int, action: SigAction) -> SigAction:
        """Install a disposition; returns the previous one."""
        check_signal(sig)
        previous = self.actions.get(sig, _DEFAULT_ACTION)
        self.actions[sig] = action
        return previous

    def get_action(self, sig: int) -> SigAction:
        check_signal(sig)
        return self.actions.get(sig, _DEFAULT_ACTION)

    # -- masking ------------------------------------------------------------

    def set_mask(self, mask: SigSet) -> SigSet:
        """Replace the process mask (``sigsetmask``); returns the old."""
        old = self.mask
        self.mask = mask.copy()
        return old

    def block(self, signals: SigSet) -> SigSet:
        """Add signals to the mask (``sigblock``); returns the old mask."""
        old = self.mask
        self.mask = self.mask | signals
        return old

    # -- generation -----------------------------------------------------------

    def post(self, sig: int, cause: SigCause) -> bool:
        """Mark a signal pending.  Returns False if it was lost
        (already pending -- the BSD single-slot rule)."""
        check_signal(sig)
        if cause.via_ipi:
            self.ipi_posts += 1
        return self.pending.post(sig, cause)

    def has_deliverable(self) -> bool:
        return any(sig not in self.mask for sig in self.pending.order)

    def take_deliverable(self) -> Optional[Tuple[int, SigCause]]:
        """Pop the oldest pending, unmasked signal as ``(sig, cause)``."""
        item = self.pending.take_unmasked(self.mask)
        if item is not None:
            self.delivered += 1
        return item

    def __repr__(self) -> str:
        return "ProcessSignals(mask=%r, pending=%r)" % (
            self.mask,
            sorted(self.pending.order),
        )
