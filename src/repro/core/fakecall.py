"""Fake calls: running user signal handlers on a thread's own stack.

A fake call (paper, Figure 3) pushes a *wrapper* frame onto the target
thread's stack so the user handler executes at the thread's priority
when the thread is next dispatched -- never in the context of whoever
happened to be running when the signal arrived.

The wrapper:

1. reacquires the mutex if the handler interrupted a conditional wait
   (the interrupted wait terminates with ``EINTR``);
2. saves the thread's errno;
3. applies the sigaction mask (plus the signal itself);
4. calls the user handler;
5. restores errno and the mask, and delivers any signals the restore
   unmasked;
6. returns to the interruption point -- or to a routine the handler
   designated via ``pt.sig_redirect`` (the implementation-defined
   redirect feature the paper's Ada runtime depends on).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.errors import EINTR
from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs
from repro.unix.signals import SigCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime


class UserAction:
    """A user sigaction: handler generator + mask to apply while it runs."""

    def __init__(self, handler: Any, mask=None) -> None:
        from repro.unix.sigset import SigSet

        self.handler = handler
        self.mask = mask if mask is not None else SigSet()
        # (sig, saved_bits, action_bits) -> merged wrapper mask.  SigSet
        # instances on live masks are never mutated in place (they are
        # always replaced), so the merged sets can be shared across
        # wrapper invocations.
        self._merge_cache: dict = {}


class FakeCalls:
    """Installs wrapper frames (kernel flag held)."""

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self.rt = runtime
        self.installed = 0

    def install(
        self, tcb: Tcb, sig: int, cause: SigCause, action: UserAction
    ) -> None:
        rt = self.rt
        rt.world.spend(costs.FAKE_CALL_SETUP)
        self.installed += 1

        reacquire = None
        was_blocked = tcb.state is ThreadState.BLOCKED
        if was_blocked:
            wait = tcb.wait
            if wait is None:
                was_blocked = False
            elif not wait.interruptible:
                # Mutex waits stay deterministic: park the signal on
                # the thread; it is re-examined when the wait ends.
                tcb.pending.post(sig, cause)
                return
            else:
                # Terminate the interrupted wait with EINTR; a
                # conditional wait additionally reacquires its mutex
                # before the handler runs.
                reacquire = rt.abandon_wait(tcb)
                wait.deliver(EINTR)

        if rt.world.trace is not None:
            rt.world.emit(
                "fake-call", thread=tcb.name, sig=sig,
                interrupted_wait=was_blocked,
            )
        on_pop = tcb._wrap_pop_cb
        if on_pop is None:
            on_pop = tcb._wrap_pop_cb = (
                lambda value, _tcb=tcb: self._wrapper_popped(_tcb)
            )
        rt.push_frame(
            tcb,
            _wrapper_body,
            (tcb, sig, action, reacquire),
            kind="wrapper",
            frame_bytes=160,
            deliver_to_caller=False,
            on_pop=on_pop,
        )
        if was_blocked:
            rt.sched.make_ready(tcb)

    def _wrapper_popped(self, tcb: Tcb) -> Optional[Any]:
        """Wrapper returned: honour a redirect request, if any."""
        rt = self.rt
        redirect = getattr(tcb, "redirect_request", None)
        if redirect is None:
            return None
        tcb.redirect_request = None
        fn, args = redirect
        # The redirect routine runs on top of the interruption point.
        # If it raises a SimException, the exception propagates into
        # the interrupted frame at its suspended yield -- exactly what
        # the Ada runtime needs to turn a synchronous signal into an
        # exception at the faulting statement.
        rt.push_frame(
            tcb, fn, args, kind="redirect", deliver_to_caller=False
        )
        return None


def _wrapper_body(pt, tcb: Tcb, sig: int, action: UserAction, reacquire):
    """The wrapper frame's code (paper, "Fake Calls")."""
    if reacquire is not None:
        # The handler interrupted a conditional wait: reacquire the
        # mutex first, so user code always sees it held.
        yield pt.mutex_lock(reacquire)
    yield pt.charge(costs.WRAPPER_OVERHEAD)
    # The wrapper runs as the (current) thread: the live errno is the
    # UNIX global; save and restore it around the user handler.
    saved_errno = pt.runtime.unix_errno
    # Masks are immutable in practice (always replaced, never mutated),
    # so the saved mask is the object itself and the merged mask comes
    # from the action's cache.
    saved_mask = tcb.sigmask
    key = (sig, saved_mask._bits, action.mask._bits)
    merged = action._merge_cache.get(key)
    if merged is None:
        from repro.unix.sigset import SigSet

        merged = saved_mask | action.mask | SigSet([sig])
        action._merge_cache[key] = merged
    tcb.sigmask = merged
    try:
        yield pt.call(action.handler, sig)
    except GeneratorExit:
        # The thread is being torn down (cancellation/exit) while the
        # handler runs: restore state synchronously -- no yields are
        # allowed while the generator is closing.
        pt.runtime.unix_errno = saved_errno
        tcb.errno = saved_errno
        tcb.sigmask = saved_mask
        raise
    except BaseException:
        # A SimException escaping the handler: restore, recheck, and
        # let it propagate to the interrupted frame.
        pt.runtime.unix_errno = saved_errno
        tcb.errno = saved_errno
        tcb.sigmask = saved_mask
        yield pt.lib_raw("_recheck_signals")
        raise
    pt.runtime.unix_errno = saved_errno
    tcb.errno = saved_errno
    tcb.sigmask = saved_mask
    # Deliver anything the mask restore just unmasked.
    yield pt.lib_raw("_recheck_signals")
