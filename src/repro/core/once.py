"""``pthread_once``: dynamic package initialisation, exactly once.

If the init routine dies (a simulated exception, or cancellation of
the initiating thread), the control block resets so a later call may
retry -- POSIX's rule for a cancelled init -- and threads already
blocked on the call return ``EAGAIN`` rather than deadlocking.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from repro.core.errors import EAGAIN, OK
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs
from repro.sim.frames import SimException

_once_ids = itertools.count(1)


class Once:
    """A once-control block."""

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or "once-%d" % next(_once_ids)
        self.done = False
        self.running = False
        self.waiters: List[Tcb] = []

    def __repr__(self) -> str:
        state = "done" if self.done else ("running" if self.running else "new")
        return "Once(%s, %s)" % (self.name, state)


class OnceOps(LibraryOps):
    """Entry point for ``pthread_once``."""

    ENTRIES = {"once": "lib_once", "_once_failed": "lib_once_failed"}

    def lib_once(self, tcb: Tcb, once: Once, init_routine: Any) -> object:
        """Run ``init_routine(pt)`` exactly once across all callers.

        Callers arriving while the routine runs block until it
        completes; every call returns 0.
        """
        rt = self.rt
        rt.world.spend(costs.ONCE_OP)
        if once.done:
            return OK
        rt.kern.enter()
        if once.done:  # re-test under the monitor
            rt.kern.leave()
            return OK
        if once.running:
            once.waiters.append(tcb)
            rt.block_current(
                kind="once",
                obj=once,
                interruptible=False,
                teardown=lambda: once.waiters.remove(tcb),
            )
            rt.kern.leave()
            return BLOCKED
        once.running = True
        rt.push_frame(
            tcb,
            _once_shell,
            (once, init_routine),
            kind="user",
            deliver_to_caller=False,
            on_pop=lambda value: self._settle(once, succeeded=True),
        )
        rt.kern.leave()
        return OK

    def lib_once_failed(self, tcb: Tcb, once: Once) -> int:
        """Internal: the init routine died; reset and release."""
        del tcb
        self._settle(once, succeeded=False)
        return OK

    def _settle(self, once: Once, succeeded: bool) -> None:
        """Init finished (or failed): release the waiters.

        On failure the block resets so a later ``pthread_once`` may
        retry, and current waiters get EAGAIN.
        """
        if once.done or not once.running:
            return  # already settled (failure path ran before on_pop)
        rt = self.rt
        rt.kern.enter()
        once.done = succeeded
        once.running = False
        result = OK if succeeded else EAGAIN
        for waiter in once.waiters:
            if waiter.wait is not None and waiter.wait.kind == "once":
                waiter.wait.deliver(result)
            rt.sched.make_ready(waiter)
        once.waiters = []
        rt.kern.leave()


def _once_shell(pt, once: Once, init_routine):
    """Runs the init routine; reports failure before re-raising."""
    try:
        result = yield pt.call(init_routine)
    except SimException:
        yield pt.lib_raw("_once_failed", once)
        raise
    except GeneratorExit:
        # The initiating thread was cancelled mid-init: reset the
        # block and release waiters synchronously (no yields are
        # allowed while a generator is being closed).
        rt = pt.runtime
        once.running = False
        for blocked in once.waiters:
            if blocked.wait is not None and blocked.wait.kind == "once":
                blocked.wait.deliver(EAGAIN)
            rt.sched.make_ready(blocked)
        once.waiters = []
        raise
    return result
