"""The UNIX kernel object: syscall dispatch, processes, signal delivery.

Every service charges the (expensive) kernel enter/exit overhead plus
its in-kernel work, and is counted in :attr:`UnixKernel.syscall_counts`
-- the paper's "few operating system calls" objective is verified
against these counters (see ``tests/integration/test_syscall_budget``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional

from repro.hw import costs
from repro.hw.memory import Heap
from repro.sim.world import World
from repro.unix.sigset import (
    SIGCHLD,
    SIGCONT,
    SIGIO,
    SIGURG,
    SIGWINCH,
    SigSet,
    check_signal,
)
from repro.unix.signals import (
    DefaultActionTerminate,
    InterruptFrame,
    ProcessSignals,
    SigAction,
    SigCause,
)

#: Signals whose default action is to be discarded (BSD).
_DEFAULT_IGNORED = frozenset(
    {SIGCHLD, SIGURG, SIGWINCH, SIGIO, SIGCONT}
)


class UnixKernel:
    """One machine's UNIX kernel.

    Owns the process table and implements the syscall surface the
    Pthreads library needs (the paper's "about 20 UNIX services").
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self.processes: Dict[int, "UnixProcessLike"] = {}
        self._next_pid = 100
        self.syscall_counts: Counter = Counter()
        #: Set by the mini process scheduler; a process receives posted
        #: signals immediately only while it is current (or marked
        #: ``auto_deliver``, as the single Pthreads process is).
        self.current_proc: Optional["UnixProcessLike"] = None

    # -- process table -------------------------------------------------------

    def register(self, proc: "UnixProcessLike") -> int:
        pid = self._next_pid
        self._next_pid += 1
        self.processes[pid] = proc
        proc.pid = pid
        return pid

    def find(self, pid: int) -> "UnixProcessLike":
        try:
            return self.processes[pid]
        except KeyError:
            raise ProcessLookupError("no such process: %d" % pid) from None

    # -- syscall plumbing ------------------------------------------------------

    def _enter(self, name: str, path: str = costs.SYSCALL) -> None:
        """Charge one kernel crossing: enter/exit overhead plus the
        service's in-kernel work, as the single cost ``path``
        (``costs.SYS_*``; bare ``SYSCALL`` for a service with no work
        of its own).  Due events fire after the charge."""
        self.syscall_counts[name] += 1
        world = self.world
        world.spend(path)
        # fire_due's horizon gate, checked inline.
        horizon = world.events._horizon
        if horizon is not None and horizon <= world.clock.cycles:
            world.fire_due()

    @property
    def total_syscalls(self) -> int:
        return sum(self.syscall_counts.values())

    # -- the services ------------------------------------------------------------

    def getpid(self, proc: "UnixProcessLike") -> int:
        """The paper's "enter and exit UNIX kernel" yardstick."""
        self._enter("getpid", costs.SYS_GETPID)
        return proc.pid

    def sigaction(
        self, proc: "UnixProcessLike", sig: int, action: SigAction
    ) -> SigAction:
        check_signal(sig)
        self._enter("sigaction", costs.SYS_SIGACTION)
        return proc.signals.set_action(sig, action)

    def sigsetmask(self, proc: "UnixProcessLike", mask: SigSet) -> SigSet:
        """Replace the process signal mask; may release pending signals."""
        self._enter("sigsetmask", costs.SYS_SIGSETMASK)
        old = proc.signals.set_mask(mask)
        self._deliver_if_current(proc)
        return old

    def sigblock(self, proc: "UnixProcessLike", signals: SigSet) -> SigSet:
        self._enter("sigblock", costs.SYS_SIGSETMASK)
        return proc.signals.block(signals)

    def sigpending(self, proc: "UnixProcessLike") -> SigSet:
        self._enter("sigpending", costs.SYS_SIGSETMASK)
        return proc.signals.pending.signals()

    def kill(
        self,
        target: "UnixProcessLike",
        sig: int,
        cause: Optional[SigCause] = None,
    ) -> None:
        """Generate ``sig`` for ``target`` (also models external senders)."""
        check_signal(sig)
        self._enter("kill", costs.SYS_KILL)
        self.post_signal(target, sig, cause or SigCause(kind="external"))

    def sbrk(self, proc: "UnixProcessLike", amount: int) -> None:
        self._enter("sbrk", costs.SYS_SBRK)
        del proc, amount  # accounting only; the Heap tracks sizes

    def make_heap(self, proc: "UnixProcessLike", **kwargs: Any) -> Heap:
        """A heap whose growth goes through this kernel's ``sbrk``."""
        return Heap(
            self.world.clock,
            self.world.model,
            sbrk=lambda amount: self.sbrk(proc, amount),
            **kwargs,
        )

    # -- signal generation & delivery ----------------------------------------------

    def post_signal(
        self, proc: "UnixProcessLike", sig: int, cause: SigCause
    ) -> None:
        """Mark a signal pending and deliver it if the process is current.

        This is the non-syscall entry used by timers, devices, and other
        in-kernel sources.  On an SMP world, an asynchronous signal
        whose interrupt is taken on a different CPU than the target's
        crosses via an interprocessor interrupt: the pending bit is set
        only when the IPI lands (``IPI_LATENCY`` later), not by a
        direct poke at the target's queues.
        """
        smp = self.world.smp
        if smp is not None and smp.route_signal(self, proc, sig, cause):
            return
        self.post_signal_local(proc, sig, cause)

    def post_signal_local(
        self, proc: "UnixProcessLike", sig: int, cause: SigCause
    ) -> None:
        """Same-CPU signal generation (also the IPI landing action)."""
        proc.signals.post(sig, cause)
        self._deliver_if_current(proc)

    def _deliver_if_current(self, proc: "UnixProcessLike") -> None:
        if getattr(proc, "auto_deliver", False) or proc is self.current_proc:
            self.deliver_signals(proc)

    def deliver_signals(self, proc: "UnixProcessLike") -> int:
        """Deliver every deliverable pending signal to ``proc``.

        Returns the number delivered.  Raises
        :class:`DefaultActionTerminate` when a default-action signal
        kills the process.
        """
        delivered = 0
        while True:
            item = proc.signals.take_deliverable()
            if item is None:
                return delivered
            sig, cause = item
            action = proc.signals.get_action(sig)
            if action.is_ignore():
                continue
            if action.is_default():
                if sig in _DEFAULT_IGNORED:
                    continue
                raise DefaultActionTerminate(sig)
            # Push the interrupt frame: the kernel blocks the signal
            # itself plus the action's mask for the handler's duration.
            self.world.spend(costs.UNIX_SIGNAL_DELIVER)
            saved = proc.signals.mask.copy()
            extra = SigSet([sig]) | action.mask
            proc.signals.mask = saved | extra
            frame = InterruptFrame(sig=sig, cause=cause, saved_mask=saved)
            delivered += 1
            if action.manual_return:
                # Pthreads universal handler: it takes the frame and
                # performs the sigreturn when the interrupted thread
                # resumes.
                action.handler(sig, cause, frame)
            else:
                action.handler(sig, cause)
                self.sigreturn(proc, frame)

    def sigreturn(
        self, proc: "UnixProcessLike", frame: InterruptFrame
    ) -> None:
        """Return from the interrupt frame ``frame``: restore the mask
        saved at delivery and the global state.

        An ordinary handler returns through here at once; the Pthreads
        dispatcher parks a universal-handler frame on the interrupted
        thread's TCB and returns through it only when that thread is
        redispatched.
        """
        self.world.spend(costs.UNIX_SIGRETURN)
        proc.signals.mask = frame.saved_mask
        self.world.fire_due()


class UnixProcessLike:
    """Structural interface of things the kernel treats as processes.

    Concrete implementations: :class:`repro.unix.process.UnixProcess`
    (the mini multi-process world) and the Pthreads library's host
    process (:class:`repro.core.runtime.HostProcess`).
    """

    pid: int = -1
    signals: ProcessSignals
    auto_deliver: bool = False
    #: Which simulated CPU the process runs on (SMP signal routing).
    cpu: int = 0
