"""Thread control blocks and thread states.

The paper's state model: a thread is *blocked* (waiting for an event),
*ready* (runnable, not chosen), *running* (dispatched), or *terminated*
(unschedulable); *detached* combines with any of these.  Once a
detached thread terminates (or a terminated thread is detached) its
memory is reclaimed and it may not be referenced again -- the runtime
enforces that by invalidating the TCB and dropping it from its thread
table, so the library keeps no reference to a reclaimed thread.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from repro.core import config
from repro.core.errors import OK
from repro.hw.memory import Stack
from repro.sim.frames import Frame, FrameStack
from repro.unix.signals import InterruptFrame, PendingSignals, SigCause
from repro.unix.sigset import SigSet


class ThreadState(enum.Enum):
    EMBRYO = "embryo"  # lazily created, not yet activated
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    TERMINATED = "terminated"


class WaitRecord:
    """Why a blocked thread is blocked, and how to tear the wait down.

    ``kind`` is one of ``mutex``, ``cond``, ``join``, ``sigwait``,
    ``delay``, ``io``, ``once``.  ``frame`` is the frame whose pending
    library call blocked; its ``pending_value`` receives the call's
    result at wake-up.  ``teardown`` removes the thread from whatever
    queue it sits on (used when a handler or cancellation interrupts
    the wait); ``interruptible`` says whether a user signal handler may
    interrupt this wait (mutex waits are not interruptible, per the
    paper's deterministic-mutex-state rule).

    The typed slots carry what one kind of wait needs: ``mutex`` is
    what a conditional wait reacquires, ``request`` what an ``io`` wait
    parks on, ``sigset`` what a ``sigwait`` waits for, ``result`` what
    a handed-over mutex returns, and ``timeout`` the wait's entry in
    the library timer queue.  A wait ends through
    :meth:`~repro.core.runtime.PthreadsRuntime.end_wait` or
    :meth:`~repro.core.runtime.PthreadsRuntime.abandon_wait`, which
    both drop ``timeout``.
    """

    __slots__ = (
        "kind", "obj", "frame", "since", "interruptible", "teardown",
        "mutex", "request", "sigset", "result", "timeout",
    )

    def __init__(
        self,
        kind: str,
        obj: Any,
        frame: Frame,
        since: int = 0,
        interruptible: bool = True,
        teardown: Optional[Callable[[], None]] = None,
        mutex: Any = None,
        request: Any = None,
        sigset: Optional[SigSet] = None,
        result: Any = OK,
    ) -> None:
        self.kind = kind
        self.obj = obj
        self.frame = frame
        self.since = since
        self.interruptible = interruptible
        self.teardown = teardown
        self.mutex = mutex
        self.request = request
        self.sigset = sigset
        self.result = result
        self.timeout: Optional[tuple] = None

    def deliver(self, value: Any) -> None:
        """Set the blocked call's return value for when the thread runs."""
        self.frame.pending_value = value

    def __repr__(self) -> str:
        return "WaitRecord(%s, obj=%r)" % (self.kind, self.obj)


class Tcb:
    """A thread control block.

    Everything the library knows about one thread lives here; the
    paper's debugger sketch ("information could be extracted from the
    thread control block") is served by :class:`repro.debug.Inspector`
    reading these fields.

    ``__slots__`` keeps the (potentially many thousands of) TCBs a
    churny workload allocates compact and attribute access branch-free;
    new fields must be added to the tuple below.
    """

    __slots__ = (
        "tid",
        "name",
        "state",
        "detached",
        "base_priority",
        "effective_priority",
        "policy",
        "frames",
        "stack",
        "errno",
        "start_fn",
        "start_args",
        "sigmask",
        "pending",
        "pending_interrupt_frames",
        "wait",
        "exit_value",
        "joiner",
        "reclaimed",
        "exiting",
        "intr_enabled",
        "intr_type",
        "cancel_pending",
        "cleanup_stack",
        "tsd",
        "held_mutexes",
        "srp_stack",
        "lazy",
        "meta_stack_size",
        "tcb_addr",
        "redirect_request",
        "crashed_with",
        "cpu_cycles",
        "context_switches_in",
        "_kill_cause",
        "_wrap_pop_cb",
        "__weakref__",  # so a reclaimed TCB's release can be observed
    )

    def __init__(self, tid: int, name: str) -> None:
        self.tid = tid
        self.name = name
        self.state = ThreadState.EMBRYO
        self.detached = False

        # Scheduling.
        self.base_priority = config.PTHREAD_DEFAULT_PRIORITY
        self.effective_priority = config.PTHREAD_DEFAULT_PRIORITY
        self.policy = config.SCHED_FIFO

        # Execution.
        self.frames = FrameStack()
        self.stack: Optional[Stack] = None
        self.errno = 0
        self.start_fn: Optional[Callable] = None
        self.start_args: tuple = ()

        # Signals.
        self.sigmask = SigSet()
        self.pending = PendingSignals()
        self.pending_interrupt_frames: List[InterruptFrame] = []

        # Blocking.
        self.wait: Optional[WaitRecord] = None

        # Join/exit protocol.
        self.exit_value: Any = None
        self.joiner: Optional["Tcb"] = None
        self.reclaimed = False
        self.exiting = False

        # Cancellation ("interruptibility", draft-6 vocabulary).
        self.intr_enabled = True
        self.intr_type = config.PTHREAD_INTR_CONTROLLED
        self.cancel_pending = False

        # Cleanup handlers and thread-specific data.
        self.cleanup_stack: List[Any] = []
        self.tsd: Dict[int, Any] = {}

        # Synchronization protocol state.
        self.held_mutexes: List[Any] = []
        self.srp_stack: List[int] = []  # saved priorities (ceiling protocol)

        # Lazy creation (paper's future-work extension).
        self.lazy = False
        self.meta_stack_size: Optional[int] = None

        # Pool bookkeeping and handler redirect.
        self.tcb_addr = 0
        self.redirect_request: Optional[Any] = None
        #: Set when the thread died of an unhandled simulated exception.
        self.crashed_with: Optional[BaseException] = None

        # Statistics.
        self.cpu_cycles = 0
        self.context_switches_in = 0

        # Hot-path caches: the (frozen) directed-at-me SigCause reused
        # by pthread_kill and the fake-call wrapper's on_pop callback.
        self._kill_cause: Optional[SigCause] = None
        self._wrap_pop_cb: Optional[Callable[[Any], Any]] = None

    # -- predicates --------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.TERMINATED and not self.reclaimed

    @property
    def runnable(self) -> bool:
        return self.state in (ThreadState.READY, ThreadState.RUNNING)

    def __repr__(self) -> str:
        return "Tcb(%s, %s, prio=%d/%d)" % (
            self.name,
            self.state.value,
            self.effective_priority,
            self.base_priority,
        )
