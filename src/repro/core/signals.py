"""Thread-level signal operations.

``pthread_kill`` (internal signals) never touches the UNIX kernel --
the whole point of Table 2's "thread signal handler (internal)" row
being five times cheaper than the external one: the signal is directed
inside the library, straight through the delivery model.

Per-thread masks are pure library state.  Signal *actions* are
process-wide (POSIX semantics): one table shared by all threads,
installed with :meth:`SignalOps.lib_sigaction`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.errors import EINVAL, ESRCH, OK
from repro.core.fakecall import UserAction
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs
from repro.unix.signals import SigCause
from repro.unix.sigset import SIG_DFL, SIGCANCEL, SigSet, check_signal

SIG_BLOCK = "block"
SIG_UNBLOCK = "unblock"
SIG_SETMASK = "setmask"


class SignalOps(LibraryOps):
    """Entry points for thread-level signalling."""

    ENTRIES = {
        "sigaction": "lib_sigaction",
        "sigmask": "lib_sigmask",
        "kill": "lib_kill",
        "sigwait": "lib_sigwait",
        "thread_sigpending": "lib_thread_sigpending",
        "sig_redirect": "lib_sig_redirect",
        "_recheck_signals": "lib_recheck_signals",
    }

    # -- actions ------------------------------------------------------------------

    def lib_sigaction(
        self,
        tcb: Tcb,
        sig: int,
        handler: Any,
        mask: Optional[SigSet] = None,
    ) -> Any:
        """Install a process-wide user action for ``sig``.

        ``handler`` is a generator function ``handler(pt, sig)``, or
        ``SIG_IGN`` / ``SIG_DFL``.  Returns ``(err, old_handler)``.
        """
        del tcb
        rt = self.rt
        try:
            check_signal(sig)
        except ValueError:
            return (EINVAL, None)
        if sig == SIGCANCEL:
            return (EINVAL, None)  # the cancellation signal is reserved
        rt.kern.enter()
        rt.world.spend(costs.SIG_MASK_OP)
        old = rt.user_actions.get(sig)
        rt.user_actions[sig] = UserAction(handler, mask)
        rt.kern.leave()
        return (OK, old.handler if old else SIG_DFL)

    # -- masks --------------------------------------------------------------------

    def lib_sigmask(
        self, tcb: Tcb, how: str, signals: Optional[SigSet] = None
    ) -> Any:
        """Per-thread mask manipulation; returns ``(err, old_mask)``."""
        rt = self.rt
        if how not in (SIG_BLOCK, SIG_UNBLOCK, SIG_SETMASK):
            return (EINVAL, tcb.sigmask.copy())
        signals = signals if signals is not None else SigSet()
        rt.kern.enter()
        rt.world.spend(costs.SIG_MASK_OP)
        old = tcb.sigmask.copy()
        if how == SIG_BLOCK:
            tcb.sigmask = tcb.sigmask | signals
        elif how == SIG_UNBLOCK:
            tcb.sigmask = tcb.sigmask - signals
        else:
            tcb.sigmask = signals.copy()
        # Unmasking may release thread- or process-pended signals.
        rt.sigdeliver.recheck_thread(tcb)
        rt.kern.leave()
        return (OK, old)

    def lib_thread_sigpending(self, tcb: Tcb) -> SigSet:
        self.rt.world.spend(costs.SIG_MASK_OP)
        return tcb.pending.signals()

    def lib_recheck_signals(self, tcb: Tcb) -> int:
        """Internal: wrapper epilogue mask-restore recheck."""
        rt = self.rt
        rt.kern.enter()
        rt.sigdeliver.recheck_thread(tcb)
        rt.kern.leave()
        return OK

    # -- sending -------------------------------------------------------------------

    def lib_kill(self, tcb: Tcb, target: Tcb, sig: int) -> int:
        """``pthread_kill``: direct a signal at a thread -- entirely
        inside the library (no UNIX kernel involvement)."""
        del tcb
        rt = self.rt
        try:
            check_signal(sig)
        except ValueError:
            return EINVAL
        if not isinstance(target, Tcb) or target.reclaimed:
            return ESRCH
        rt.kern.enter()
        # Sending a signal to a lazy thread is synchronisation.
        if target.state is ThreadState.EMBRYO:
            rt.thread_ops._ensure_active(target)
        # SigCause is frozen, so one directed-at-target instance serves
        # every pthread_kill aimed at the same thread.
        cause = target._kill_cause
        if cause is None:
            cause = SigCause(kind="directed", thread=target)
            target._kill_cause = cause
        rt.sigdeliver.direct_signal(sig, cause)
        rt.kern.leave()
        return OK

    # -- synchronous waiting ------------------------------------------------------------

    def lib_sigwait(self, tcb: Tcb, signals: SigSet) -> Any:
        """Wait for one of ``signals``; returns ``(err, sig)``.

        The waited set behaves as unmasked for the duration (recipient
        rule 5's parenthetical) and is re-masked on return (action
        rule 3).
        """
        rt = self.rt
        if not signals:
            return (EINVAL, 0)
        if rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        rt.world.spend(costs.SIG_MASK_OP)
        # Already pending on the thread?  Consume without blocking.
        item = tcb.pending.take_in(signals)
        if item is not None:
            rt.kern.leave()
            return (OK, item[0])
        # A process-pended signal in the set?
        for index, (sig, cause) in enumerate(rt.process_pending):
            if sig in signals:
                del rt.process_pending[index]
                rt.kern.leave()
                return (OK, sig)
        rt.block_current(
            kind="sigwait",
            obj=None,
            interruptible=True,
            sigset=signals.copy(),
        )
        rt.kern.leave()
        return BLOCKED

    # -- redirect (implementation-defined, used by the Ada runtime) ----------------------------

    def lib_sig_redirect(self, tcb: Tcb, fn: Any, *args: Any) -> int:
        """From inside a user handler: after the handler returns,
        transfer control to ``fn(pt, *args)`` instead of the
        interruption point."""
        self.rt.world.spend(costs.INSN, times=4)
        in_wrapper = any(f.kind == "wrapper" for f in tcb.frames)
        if not in_wrapper:
            return EINVAL
        tcb.redirect_request = (fn, args)
        return OK
