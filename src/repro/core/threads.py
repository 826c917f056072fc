"""Thread management: create, join, detach, exit, priorities.

Creation uses the TCB/stack pool (Table 2's "thread create, no context
switch" row assumes a pool hit).  Exit runs cleanup handlers and
thread-specific-data destructors on the dying thread's own stack, then
finalises: joiners are woken with the exit value, and a detached (or
joined) thread's memory returns to the pool and may never be referenced
again.

Lazy creation -- the paper's future-work extension -- is included: a
thread created with ``ThreadAttr(lazy=True)`` allocates nothing until
another thread synchronises with it (joins it, signals it, or
explicitly activates it).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core import config as cfg
from repro.core.attr import ThreadAttr
from repro.core.errors import (
    EDEADLK,
    EINVAL,
    ESRCH,
    OK,
    PthreadsInternalError,
)
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs


class ThreadOps(LibraryOps):
    """Entry points for thread management."""

    ENTRIES = {
        "create": "lib_create",
        "join": "lib_join",
        "detach": "lib_detach",
        "exit": "lib_exit",
        "self": "lib_self",
        "yield": "lib_yield",
        "setprio": "lib_setprio",
        "getprio": "lib_getprio",
        "setschedparam": "lib_setschedparam",
        "getschedparam": "lib_getschedparam",
        "equal": "lib_equal",
        "activate": "lib_activate",
        "set_errno": "lib_set_errno",
        "get_errno": "lib_get_errno",
        "_finalize_exit": "lib_finalize_exit",
    }

    # -- errno ---------------------------------------------------------------
    #
    # A running thread reads and writes the (simulated) UNIX global
    # errno; the dispatcher saves it into the TCB at context switch and
    # loads the incoming thread's copy -- the paper's "loading UNIX'
    # global error number with the thread's error number".

    def lib_set_errno(self, tcb: Tcb, value: int) -> int:
        self.rt.world.spend(costs.INSN)
        self.rt.unix_errno = value
        tcb.errno = value
        return OK

    def lib_get_errno(self, tcb: Tcb) -> int:
        del tcb
        self.rt.world.spend(costs.INSN)
        return self.rt.unix_errno

    # -- creation ------------------------------------------------------------

    def lib_create(
        self,
        tcb: Tcb,
        fn: Callable,
        *args: Any,
        attr: Optional[ThreadAttr] = None,
        name: Optional[str] = None,
    ) -> Tcb:
        """``pthread_create``: returns the new thread's handle."""
        if attr is None:
            attr = ThreadAttr()
        if name is not None:
            attr = attr.copy()
            attr.name = name
        return self.create_thread(fn, args, attr, creator=tcb)

    def create_thread(
        self,
        fn: Callable,
        args: tuple,
        attr: Optional[ThreadAttr],
        creator: Optional[Tcb],
    ) -> Tcb:
        rt = self.rt
        attr = (attr or ThreadAttr()).validated()
        rt.kern.enter()
        world = rt.world
        world.spend(costs.CREATE_MISC)
        tid = rt.new_tid()
        name = attr.name or "thread-%d" % tid
        new = Tcb(tid, name)
        rt.register_thread(new)
        if attr.inherit_sched and creator is not None:
            new.base_priority = creator.base_priority
            new.policy = creator.policy
        else:
            new.base_priority = attr.priority
            new.policy = attr.policy
        new.effective_priority = new.base_priority
        new.detached = attr.detach_state == cfg.PTHREAD_CREATE_DETACHED
        new.start_fn = fn
        new.start_args = args
        new.lazy = attr.lazy
        if attr.lazy:
            # Deferred activation: no stack, no queue position, until
            # some thread synchronises with this one.
            new.state = ThreadState.EMBRYO
            new.meta_stack_size = attr.stack_size
        else:
            self._activate_locked(new, attr.stack_size)
        if world.trace is not None:
            world.emit("create", thread=name, lazy=attr.lazy)
        rt.kern.leave()
        return new

    def _activate_locked(self, new: Tcb, stack_size: Optional[int]) -> None:
        """Allocate resources and make the thread ready (kernel held)."""
        rt = self.rt
        tcb_addr, stack = rt.pool.acquire(stack_size)
        world = rt.world
        world.spend(costs.TCB_INIT)
        world.spend(costs.STACK_SETUP)
        new.stack = stack
        new.tcb_addr = tcb_addr
        new.lazy = False
        if new.start_fn is None:
            raise PthreadsInternalError("activating a thread with no body")
        rt.push_frame(new, new.start_fn, new.start_args)
        rt.sched.make_ready(new)
        # A new thread may be eligible for signals pended on the
        # process (delivery-model rule 6: "until a thread becomes
        # eligible to receive it").
        rt.sigdeliver.recheck_process_pending()

    def lib_activate(self, tcb: Tcb, target: Tcb) -> int:
        """Activate a lazily created thread (extension API)."""
        del tcb
        rt = self.rt
        if not isinstance(target, Tcb) or target.reclaimed:
            return ESRCH
        rt.kern.enter()
        err = self._ensure_active(target)
        rt.kern.leave()
        return err

    def _ensure_active(self, target: Tcb) -> int:
        """Activate ``target`` if it is still embryonic (kernel held)."""
        if target.state is ThreadState.EMBRYO:
            self._activate_locked(
                target, getattr(target, "meta_stack_size", None)
            )
        return OK

    # -- join / detach ----------------------------------------------------------

    def lib_join(self, tcb: Tcb, target: Tcb) -> Any:
        """``pthread_join``: returns ``(err, value)``."""
        rt = self.rt
        if not isinstance(target, Tcb) or target.reclaimed:
            return (ESRCH, None)
        if target is tcb:
            return (EDEADLK, None)
        # join is an interruption point: honour a pending cancellation.
        # (cancel_pending gates the call -- act_if_pending is a no-op
        # without it.)
        if tcb.cancel_pending and rt.cancel_ops.act_if_pending(tcb):
            return BLOCKED
        rt.kern.enter()
        rt.world.spend(costs.JOIN_WORK)
        if target.detached:
            rt.kern.leave()
            return (EINVAL, None)
        # Joining a lazy thread is synchronisation: activate it.
        self._ensure_active(target)
        if target.state is ThreadState.TERMINATED:
            value = target.exit_value
            self._reclaim(target)
            rt.kern.leave()
            return (OK, value)
        if target.joiner is not None:
            rt.kern.leave()
            return (EINVAL, None)
        target.joiner = tcb
        record = rt.block_current(
            kind="join",
            obj=target,
            teardown=lambda: setattr(target, "joiner", None),
        )
        del record
        rt.kern.leave()
        return BLOCKED

    def lib_detach(self, tcb: Tcb, target: Tcb) -> int:
        """``pthread_detach``."""
        del tcb
        rt = self.rt
        if not isinstance(target, Tcb) or target.reclaimed:
            return ESRCH
        rt.kern.enter()
        rt.world.spend(costs.DETACH_WORK)
        if target.detached:
            rt.kern.leave()
            return EINVAL
        target.detached = True
        if target.state is ThreadState.TERMINATED:
            self._reclaim(target)
        rt.kern.leave()
        return OK

    # -- exit -----------------------------------------------------------------------

    def lib_exit(self, tcb: Tcb, value: Any = None) -> Any:
        """``pthread_exit``: unwind, run cleanup + destructors, die."""
        rt = self.rt
        rt.kern.enter()
        rt.world.spend(costs.EXIT_WORK)
        tcb.exiting = True
        # Tear down the user frames; cleanup handlers run next, on a
        # fresh frame, in the dying thread's own context and priority.
        tcb.frames.unwind_all()
        if tcb.stack is not None:
            tcb.stack.reset()
        rt.push_frame(
            tcb, _exit_body, (tcb, value), deliver_to_caller=False
        )
        rt.kern.leave()
        return BLOCKED

    def finish_thread(self, tcb: Tcb, value: Any) -> None:
        """The start routine returned: implicit ``pthread_exit(value)``.

        Called by the executor when the last frame pops.
        """
        rt = self.rt
        if self._needs_exit_body(tcb):
            rt.push_frame(
                tcb, _exit_body, (tcb, value), deliver_to_caller=False
            )
            return
        self.lib_finalize_exit(tcb, value)

    def _needs_exit_body(self, tcb: Tcb) -> bool:
        if tcb.cleanup_stack:
            return True
        # No TSD values at all -> no live destructors, skip the scan.
        return bool(tcb.tsd) and self.rt.tsd_ops.has_live_destructors(tcb)

    def lib_finalize_exit(self, tcb: Tcb, value: Any) -> Any:
        """Terminal step of thread exit (internal entry point)."""
        rt = self.rt
        rt.kern.enter()
        world = rt.world
        world.spend(costs.EXIT_WORK)
        tcb.frames.unwind_all()
        tcb.exit_value = value
        tcb.state = ThreadState.TERMINATED
        tcb.exiting = False
        tcb.wait = None
        if world.trace is not None:
            world.emit("exit", thread=tcb.name)
        if tcb.joiner is not None:
            joiner = tcb.joiner
            tcb.joiner = None
            if joiner.wait is not None and joiner.wait.kind == "join":
                rt.end_wait(joiner, (OK, value))
            else:
                rt.sched.make_ready(joiner)
            self._reclaim(tcb)
        elif tcb.detached:
            self._reclaim(tcb)
        if rt.current is tcb:
            rt.current = None
            rt.kern.request_dispatch()
        rt.kern.leave()
        return BLOCKED

    def _reclaim(self, tcb: Tcb) -> None:
        """Return the TCB and stack to the pool; the thread leaves the
        table and its handle goes stale."""
        if tcb.reclaimed:
            return
        rt = self.rt
        if tcb.stack is not None:
            rt.pool.release(getattr(tcb, "tcb_addr", 0), tcb.stack)
            tcb.stack = None
        tcb.reclaimed = True
        del rt.threads[tcb.tid]
        if rt.world.trace is not None:
            rt.world.emit("reclaim", thread=tcb.name)
        if rt.obs is not None:
            rt.obs.thread_left(tcb)
        if rt.check is not None:
            rt.check.check_cleanup_balance(tcb)

    # -- identity and scheduling parameters -----------------------------------------------

    def lib_self(self, tcb: Tcb) -> Tcb:
        """``pthread_self``."""
        self.rt.world.spend(costs.INSN, times=2)
        return tcb

    def lib_equal(self, tcb: Tcb, a: Tcb, b: Tcb) -> bool:
        del tcb
        self.rt.world.spend(costs.INSN, times=2)
        return a is b

    def lib_yield(self, tcb: Tcb) -> int:
        """``pthread_yield``: tail of own priority level, then dispatch."""
        del tcb
        rt = self.rt
        rt.kern.enter()
        rt.sched.yield_current()
        rt.kern.leave()
        return OK

    def lib_setprio(self, tcb: Tcb, target: Tcb, priority: int) -> int:
        return self.lib_setschedparam(tcb, target, None, priority)

    def lib_getprio(self, tcb: Tcb, target: Tcb) -> int:
        del tcb
        if not isinstance(target, Tcb) or target.reclaimed:
            return -ESRCH
        self.rt.world.spend(costs.ATTR_OP)
        return target.base_priority

    def lib_setschedparam(
        self,
        tcb: Tcb,
        target: Tcb,
        policy: Optional[str],
        priority: int,
    ) -> int:
        del tcb
        rt = self.rt
        if not isinstance(target, Tcb) or target.reclaimed:
            return ESRCH
        try:
            cfg.check_priority(priority)
        except ValueError:
            return EINVAL
        if policy is not None and policy not in cfg.ALL_POLICIES:
            return EINVAL
        rt.kern.enter()
        rt.world.spend(costs.ATTR_OP)
        target.base_priority = priority
        if policy is not None:
            target.policy = policy
        rt.protocols.recompute_effective(target)
        rt.kern.leave()
        return OK

    def lib_getschedparam(self, tcb: Tcb, target: Tcb) -> Tuple[int, str, int]:
        del tcb
        if not isinstance(target, Tcb) or target.reclaimed:
            return (ESRCH, "", -1)
        self.rt.world.spend(costs.ATTR_OP)
        return (OK, target.policy, target.base_priority)


def _exit_body(pt, tcb: Tcb, value: Any):
    """Runs on the dying thread: cleanup handlers, then destructors.

    This is the body of the paper's "fake call to pthread_exit": it
    executes at the thread's priority on the thread's own stack.
    """
    while tcb.cleanup_stack:
        handler, arg = tcb.cleanup_stack.pop()
        yield pt.call(handler, arg)
    for _ in range(cfg.PTHREAD_DESTRUCTOR_ITERATIONS):
        pairs = pt.runtime.tsd_ops.take_destructor_pass(tcb)
        if not pairs:
            break
        for destructor, item in pairs:
            yield pt.call(destructor, item)
    yield pt.lib_raw("_finalize_exit", value)
