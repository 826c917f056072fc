"""The signal delivery model.

Implements the paper's two rule lists verbatim:

Recipient resolution (highest precedence first):

1. directed at a thread -> that thread;
2. synchronous -> the thread which caused it;
3. timer expiration -> the thread which armed the timer (the library
   timer queue and the time-slicer are special armers);
4. I/O completion -> the thread which requested the I/O;
5. any thread with the signal unmasked (linear search, sigwait counts
   as unmasked);
6. otherwise pend on the process until a thread becomes eligible.

Action selection for the chosen thread (highest precedence first):

1. thread masked the signal -> pend on the thread;
2. alarm from a timer -> ready the suspended armer, or requeue the
   running thread if the expiry was a time slice;
3. thread suspended in sigwait -> ready it, re-mask the waited set;
4. a handler is registered -> install a fake call, apply the
   sigaction mask, ready the thread;
5. the cancellation signal -> cancellation processing (Table 1);
6. action is ignore -> discard;
7. default action -> performed on the *process*.

All entry points here run with the kernel flag held.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.errors import EINTR, OK
from repro.core.tcb import Tcb
from repro.hw import costs
from repro.unix.sigset import SIG_DFL, SIG_IGN, SIGALRM, SIGCANCEL, SIGIO
from repro.unix.signals import SigCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime


class SignalDelivery:
    """Recipient resolution and action selection."""

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self.rt = runtime
        self.delivered_to_threads = 0
        self.pended_on_process = 0
        self._rechecking = False

    # -- recipient resolution -------------------------------------------------------

    def direct_signal(self, sig: int, cause: SigCause) -> None:
        """Entry from the universal handler / deferred-signal drain."""
        rt = self.rt
        world = rt.world
        world.spend(costs.SIG_RECIPIENT_RULES)

        # Timer expirations have library-internal armers to unpack
        # before the generic rules.
        if cause.kind == "timer":
            if cause.data == "timeslice":
                self._handle_timeslice()
                return
            if cause.data == "libtimer":
                rt.timer_ops.on_alarm()
                return

        recipient = self._find_recipient(sig, cause)
        if recipient is None:
            # Rule 6: no eligible thread; pend on the process.
            self.pended_on_process += 1
            rt.process_pending.append((sig, cause))
            if world.trace is not None:
                world.emit("signal-process-pend", sig=sig)
            return
        self.deliver_to_thread(recipient, sig, cause)

    def _find_recipient(self, sig: int, cause: SigCause) -> Optional[Tcb]:
        rt = self.rt
        # Rules 1-4: the cause names the thread.
        if cause.kind in ("directed", "cancel", "synchronous", "timer", "io"):
            target = cause.thread
            if isinstance(target, Tcb) and target.alive:
                return target
            if cause.kind == "synchronous" and rt.current is not None:
                return rt.current
            return None
        # Rule 5: linear search for a thread with the signal unmasked.
        # (sigwait is "just another case where the signal is unmasked".)
        for tcb in rt.threads.values():
            rt.world.spend(costs.INSN)
            if not tcb.alive:
                continue
            if self._eligible(tcb, sig):
                return tcb
        return None

    def _eligible(self, tcb: Tcb, sig: int) -> bool:
        from repro.core.tcb import ThreadState

        if tcb.state is ThreadState.EMBRYO:
            return False  # lazy threads receive signals only once active
        if tcb.wait is not None and tcb.wait.kind == "sigwait":
            if sig in tcb.wait.sigset:
                return True
        return sig not in tcb.sigmask

    def _handle_timeslice(self) -> None:
        """Action rule 2, second half: requeue the running thread."""
        rt = self.rt
        current = rt.current
        if current is None:
            return
        from repro.core import config as cfg

        if current.policy != cfg.SCHED_RR:
            return
        rt.world.spend(costs.TIMER_TICK)
        rt.world.emit("timeslice", thread=current.name)
        rt.sched.slice_current()

    # -- action selection ----------------------------------------------------------------

    def deliver_to_thread(self, tcb: Tcb, sig: int, cause: SigCause) -> None:
        rt = self.rt
        world = rt.world
        world.spend(costs.SIG_ACTION_RULES)
        self.delivered_to_threads += 1
        if world.trace is not None:
            world.emit("signal-thread", thread=tcb.name, sig=sig)

        # I/O completion wake (delivery-model rule 4's action); the
        # cause names ``tcb`` as the requester.
        if cause.kind == "io":
            request = cause.data
            if rt.io_ops.wake(request, (request.err, request.result)):
                return

        # Rule 3 (checked before the mask: the sigwait set is
        # effectively unmasked while the thread waits in sigwait).
        if (
            tcb.wait is not None
            and tcb.wait.kind == "sigwait"
            and sig in tcb.wait.sigset
        ):
            self._wake_sigwait(tcb, sig)
            return

        # Rule 1: masked -> pend on the thread.
        if sig in tcb.sigmask:
            tcb.pending.post(sig, cause)
            if rt.world.trace is not None:
                rt.world.emit("signal-thread-pend", thread=tcb.name, sig=sig)
            return

        # Rule 2: a plain alarm readies its suspended armer.
        if sig == SIGALRM and cause.kind == "timer":
            self._wake_armer(tcb)
            return

        # Rule 4: a registered user handler -> fake call.
        action = rt.user_actions.get(sig)
        if action is not None and action.handler not in (SIG_DFL, SIG_IGN):
            rt.fakecalls.install(tcb, sig, cause, action)
            return
        if action is not None and action.handler == SIG_IGN:
            return  # rule 6

        # Rule 5: cancellation.
        if sig == SIGCANCEL:
            rt.cancel_ops.on_cancel_signal(tcb)
            return

        # Rule 6/7: no user action installed.
        if sig == SIGIO or sig == SIGALRM:
            return  # completions/expirations with no sleeper: discard
        rt.process_default_action(sig)

    def _wake_armer(self, tcb: Tcb) -> None:
        """Action rule 2: ready the armer if it sleeps; the sleep's own
        timer-queue deadline ends with the wait."""
        if tcb.wait is not None and tcb.wait.kind == "delay":
            self.rt.end_wait(tcb, OK)

    def _wake_sigwait(self, tcb: Tcb, sig: int) -> None:
        """Action rule 3: ready the sigwait-er, re-mask the set."""
        tcb.sigmask = tcb.sigmask | tcb.wait.sigset  # re-masked on return
        self.rt.end_wait(tcb, (OK, sig))

    # -- rechecks ------------------------------------------------------------------------

    def _drain_thread(self, tcb: Tcb) -> None:
        """Deliver the thread's pending signals it no longer masks,
        oldest first (a handler's sigaction mask may stop the drain)."""
        pending = tcb.pending
        while True:
            item = pending.take_unmasked(tcb.sigmask)
            if item is None:
                return
            self.deliver_to_thread(tcb, *item)

    def recheck_thread(self, tcb: Tcb) -> None:
        """A thread's mask dropped: deliver newly eligible pendings."""
        if self._rechecking:
            return
        self._rechecking = True
        try:
            self._drain_thread(tcb)
            self.recheck_process_pending()
        finally:
            self._rechecking = False

    def recheck_process_pending(self) -> None:
        """Rule 6 drain: some thread may now take a process-pended
        signal (mask change, new sigwait, thread creation)."""
        rt = self.rt
        if not rt.process_pending:
            return
        remaining = []
        for sig, cause in rt.process_pending:
            recipient = self._find_recipient(sig, cause)
            if recipient is None:
                remaining.append((sig, cause))
            else:
                self.deliver_to_thread(recipient, sig, cause)
        rt.process_pending = remaining

    def on_thread_runnable(self, tcb: Tcb) -> None:
        """A thread left an uninterruptible wait: pendings that were
        parked during the wait get their fake calls installed now,
        before the thread resumes user code."""
        if tcb.exiting or not tcb.pending.order or self._rechecking:
            return
        self._rechecking = True
        try:
            self._drain_thread(tcb)
        finally:
            self._rechecking = False


# Re-export for the wrapper's convenience.
__all__ = ["SignalDelivery", "EINTR"]
