"""Thread cancellation (draft-6 "interruptibility").

``pthread_cancel`` sends the internal ``SIGCANCEL``; what happens next
is the paper's Table 1:

==========  =============  ==================================================
State       Type           Action
==========  =============  ==================================================
disabled    any            pends on the thread until cancellation is enabled
enabled     controlled     pends until an interruption point is reached
enabled     asynchronous   acted upon immediately
==========  =============  ==================================================

Interruption points are the calls that may suspend indefinitely
(conditional waits, join, sigwait, delay, I/O) -- *except* locking a
mutex, excluded so cleanup handlers always see a deterministic mutex
state -- plus the explicit ``pthread_testintr``.

Acting on a cancellation: interruptibility is disabled, all other
signals are masked, and a fake call to ``pthread_exit`` is pushed onto
the thread's stack (so cleanup handlers and TSD destructors run on the
dying thread at its own priority).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import config as cfg
from repro.core.errors import EINVAL, ESRCH, OK
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs
from repro.unix.sigset import SIGCANCEL, SigSet
from repro.unix.signals import SigCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime

#: Wait kinds that are interruption points (note: no "mutex").
INTERRUPTION_WAITS = frozenset({"cond", "join", "sigwait", "delay", "io"})


class CancelOps(LibraryOps):
    """Entry points for cancellation."""

    ENTRIES = {
        "cancel": "lib_cancel",
        "setintr": "lib_setintr",
        "setintrtype": "lib_setintrtype",
        "testintr": "lib_testintr",
    }

    def lib_cancel(self, tcb: Tcb, target: Tcb) -> int:
        """``pthread_cancel``: request cancellation of ``target``."""
        del tcb
        rt = self.rt
        if not isinstance(target, Tcb) or target.reclaimed:
            return ESRCH
        rt.kern.enter()
        rt.world.spend(costs.CANCEL_WORK)
        rt.thread_ops._ensure_active(target)
        cause = SigCause(kind="cancel", thread=target)
        rt.sigdeliver.direct_signal(SIGCANCEL, cause)
        rt.kern.leave()
        return OK

    def lib_setintr(self, tcb: Tcb, state: str) -> object:
        """Enable/disable cancellation; returns ``(err, old_state)``."""
        rt = self.rt
        old = (
            cfg.PTHREAD_INTR_ENABLE
            if tcb.intr_enabled
            else cfg.PTHREAD_INTR_DISABLE
        )
        if state not in (cfg.PTHREAD_INTR_ENABLE, cfg.PTHREAD_INTR_DISABLE):
            return (EINVAL, old)
        rt.world.spend(costs.ATTR_OP)
        tcb.intr_enabled = state == cfg.PTHREAD_INTR_ENABLE
        if (
            tcb.intr_enabled
            and tcb.cancel_pending
            and tcb.intr_type == cfg.PTHREAD_INTR_ASYNCHRONOUS
        ):
            # Re-enabled with asynchronous type: act immediately.
            rt.kern.enter()
            self.act_on_cancel(tcb)
            rt.kern.leave()
            return BLOCKED
        return (OK, old)

    def lib_setintrtype(self, tcb: Tcb, intr_type: str) -> object:
        """Set controlled/asynchronous; returns ``(err, old_type)``."""
        rt = self.rt
        old = tcb.intr_type
        if intr_type not in (
            cfg.PTHREAD_INTR_CONTROLLED,
            cfg.PTHREAD_INTR_ASYNCHRONOUS,
        ):
            return (EINVAL, old)
        rt.world.spend(costs.ATTR_OP)
        tcb.intr_type = intr_type
        if (
            tcb.intr_enabled
            and tcb.cancel_pending
            and intr_type == cfg.PTHREAD_INTR_ASYNCHRONOUS
        ):
            rt.kern.enter()
            self.act_on_cancel(tcb)
            rt.kern.leave()
            return BLOCKED
        return (OK, old)

    def lib_testintr(self, tcb: Tcb) -> object:
        """``pthread_testintr``: an explicit interruption point."""
        self.rt.world.spend(costs.CANCEL_WORK)
        if self.act_if_pending(tcb):
            return BLOCKED
        return OK

    # -- the delivery-side logic (Table 1) --------------------------------------------

    def on_cancel_signal(self, tcb: Tcb) -> None:
        """SIGCANCEL reached ``tcb`` (kernel flag held): apply Table 1."""
        rt = self.rt
        if not tcb.intr_enabled:
            tcb.cancel_pending = True
            rt.world.emit("cancel-pend", thread=tcb.name, why="disabled")
            return
        if tcb.intr_type == cfg.PTHREAD_INTR_ASYNCHRONOUS:
            self.act_on_cancel(tcb)
            return
        # Enabled + controlled: act only at an interruption point.
        wait = tcb.wait
        if (
            tcb.state is ThreadState.BLOCKED
            and wait is not None
            and wait.kind in INTERRUPTION_WAITS
        ):
            self.act_on_cancel(tcb)
            return
        tcb.cancel_pending = True
        rt.world.emit("cancel-pend", thread=tcb.name, why="controlled")

    def act_if_pending(self, tcb: Tcb) -> bool:
        """Called at interruption points: act on a pending cancel.

        Returns True when the thread is now exiting (the caller must
        abandon its call and return BLOCKED).
        """
        if not (
            tcb.cancel_pending
            and tcb.intr_enabled
            and not tcb.exiting
        ):
            return False
        rt = self.rt
        rt.kern.enter()
        self.act_on_cancel(tcb)
        rt.kern.leave()
        return True

    def act_on_cancel(self, tcb: Tcb) -> None:
        """Act on a cancellation request (kernel flag held)."""
        rt = self.rt
        rt.world.spend(costs.CANCEL_WORK)
        tcb.cancel_pending = False
        tcb.intr_enabled = False  # per the paper
        tcb.sigmask = SigSet.full()  # all other signals disabled
        rt.world.emit("cancelled", thread=tcb.name)

        reacquire = None
        if tcb.state is ThreadState.BLOCKED and tcb.wait is not None:
            wait = tcb.wait
            if wait.teardown is not None:
                wait.teardown()
            handle = wait.data.get("timeout_handle")
            if handle is not None:
                rt.timer_ops.cancel_timeout(handle)
            # POSIX: cancellation inside a conditional wait reacquires
            # the mutex before the cleanup handlers run.
            reacquire = wait.data.get("mutex")
            tcb.wait = None
            tcb.state = ThreadState.READY  # transitional; ready below
            rt.push_frame(
                tcb,
                _cancel_body,
                (reacquire,),
                kind="wrapper",
                deliver_to_caller=False,
            )
            rt.sched.ready.enqueue(tcb)
            rt.kern.request_dispatch()
            return
        # Running (asynchronous self-cancel) or ready: the fake call to
        # pthread_exit lands on top of whatever the thread was doing.
        rt.push_frame(
            tcb,
            _cancel_body,
            (None,),
            kind="wrapper",
            deliver_to_caller=False,
        )


def _cancel_body(pt, reacquire):
    """The fake call to ``pthread_exit`` (plus condvar mutex rescue)."""
    if reacquire is not None:
        yield pt.mutex_lock(reacquire)
    yield pt.exit(cfg.PTHREAD_CANCELED)
