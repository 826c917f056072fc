"""The dispatcher (Figure 2 of the paper).

Called on kernel exit when the dispatcher flag is set.  Selects the
next thread per the scheduling policy; if it differs from the running
thread, performs a context switch:

- flush the outgoing thread's register windows (``ST_FLUSH_WINDOWS``);
- save/load the UNIX global error number;
- load the incoming frame (``restore`` -> window underflow trap).

Before transferring control the kernel and dispatcher flags are
cleared and the deferred-signal log is checked: if signals were caught
while inside the kernel they are handled now and the dispatch restarts,
because handling them may change which thread should run (the paper's
restart arrow in Figure 2).

When the incoming thread was interrupted by a UNIX signal, the
universal handler's frame is still pending on its stack: the dispatcher
disables all signals (the second ``sigsetmask`` of the paper's
two-per-signal budget), switches, and the thread "returns from the
universal signal handler", re-enabling signals via ``sigreturn``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs
from repro.unix.sigset import SigSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime

#: Shared "all signals blocked" mask for the pre-switch sigsetmask
#: (set_mask copies its argument, so sharing one instance is safe;
#: building it walks every signal number).
_FULL_MASK = SigSet.full()


class Dispatcher:
    """Implements the Figure 2 flowchart."""

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self._runtime = runtime
        self.context_switches = 0
        self.dispatch_calls = 0
        self.signal_restarts = 0  # Figure 2's "signals caught?" loop

    def run(self) -> None:
        """One dispatcher invocation.  Requires the kernel flag set."""
        runtime = self._runtime
        kern = runtime.kern
        world = runtime.world
        self.dispatch_calls += 1
        obs = runtime.obs
        if obs is not None:
            # Live sample: ready-queue depth has no persistent counter
            # to harvest later, so it is observed here (one attribute
            # load and an is-check on the disabled path).
            obs.on_dispatch(runtime)
        while True:
            world.spend(costs.DISPATCH_SELECT)
            chosen = self._select()
            # Clear the flags before transferring control (Figure 2).
            world.spend(costs.DISPATCH_OVERHEAD)
            kern.dispatcher_flag = False
            kern.kernel_flag = False
            if kern.deferred_signals or kern.deferred_upcalls:
                # Signals were caught while in the kernel: handle them
                # and restart the dispatch -- handling may ready a
                # higher-priority thread.
                self.signal_restarts += 1
                kern.kernel_flag = True
                if chosen is not None and chosen is not runtime.current:
                    # Put the tentative choice back where it came from.
                    runtime.sched.ready.enqueue(chosen, front=True)
                self._drain_deferred_signals()
                continue
            # Equivalent of ``with world.atomic():`` without the
            # contextmanager machinery (one transfer per dispatch).
            world._defer_depth += 1
            try:
                self._transfer_atomic(chosen)
            finally:
                world._defer_depth -= 1
            return

    # -- selection --------------------------------------------------------------

    def _select(self) -> Optional[Tcb]:
        """Pick who should run next; removes the pick from the ready
        queue.  Returns the current thread to mean "keep running"."""
        runtime = self._runtime
        policy = runtime.policy
        current = runtime.current

        if policy is None and (
            current is None or current.state is not ThreadState.RUNNING
        ):
            # No runner to compete with: the head of the ready queue
            # wins outright, so dequeue it directly (identical to the
            # peek-then-remove below -- remove of the head IS dequeue).
            ready = runtime.sched.ready
            if not ready._count:
                return None
            world = runtime.world
            world.spend(costs.READY_DEQUEUE)
            return ready.dequeue()

        candidate: Optional[Tcb] = None
        if policy is not None:
            candidate = policy.select(runtime)
        if candidate is None:
            candidate = runtime.sched.ready.peek()
        if current is not None and current.state is ThreadState.RUNNING:
            # The runner competes with the best ready thread; ties go
            # to the runner (no switch on equal priority).
            if candidate is None or (
                candidate.effective_priority <= current.effective_priority
            ):
                return current
            # Preempted: head of its own level (it did not yield).
            runtime.sched.preempt_current_for_dispatch()
        if candidate is not None:
            world = runtime.world
            world.spend(costs.READY_DEQUEUE)
            runtime.sched.ready.remove(candidate)
        return candidate

    def _drain_deferred_signals(self) -> None:
        """Direct every signal (and first-class upcall) logged while
        the kernel flag was set."""
        runtime = self._runtime
        deferred = runtime.kern.deferred_signals
        runtime.kern.deferred_signals = []
        for sig, cause in deferred:
            runtime.sigdeliver.direct_signal(sig, cause)
        upcalls = runtime.kern.deferred_upcalls
        runtime.kern.deferred_upcalls = []
        for request in upcalls:
            runtime.io_ops.fc_wake(request)

    # -- the context switch ---------------------------------------------------------

    def _transfer_atomic(self, chosen: Optional[Tcb]) -> None:
        runtime = self._runtime
        world = runtime.world
        old = runtime.current
        if chosen is old and chosen is not None:
            # No switch -- but if a signal interrupted this thread, it
            # returns from the universal handler right here.
            if chosen.pending_interrupt_frames:
                self._pop_interrupt_frames(chosen)
            return
        if chosen is None:
            # Nothing ready: the processor idles until an event.
            runtime.current = None
            if world.trace is not None:
                world.emit("dispatch", thread="<idle>")
            return

        occupant = runtime.on_cpu
        if occupant is not None and occupant is not chosen:
            # ST_FLUSH_WINDOWS: spill the outgoing thread's windows
            # (even across an idle gap -- they are still in the file).
            world.windows.flush()
            occupant.errno = runtime.unix_errno
        world.spend(costs.ERRNO_SWITCH)
        runtime.unix_errno = chosen.errno
        if occupant is not chosen:
            world.windows.switch_in()
        runtime.on_cpu = chosen

        chosen.state = ThreadState.RUNNING
        runtime.current = chosen
        if occupant is not chosen:
            # A dispatch back to the thread already occupying the CPU
            # (e.g. a yield with an empty ready queue) is not a switch.
            chosen.context_switches_in += 1
            self.context_switches += 1
        if world.trace is not None:
            world.emit(
                "dispatch",
                thread=chosen.name,
                from_thread=old.name if old else None,
            )

        if chosen.pending_interrupt_frames:
            self._pop_interrupt_frames(chosen)

    def _pop_interrupt_frames(self, tcb: Tcb) -> None:
        """Return from pending universal-handler frames.

        Signals are disabled (the second ``sigsetmask`` of the paper's
        two-per-signal budget) before resuming an interrupted thread,
        or another universal-handler instance could pile on top of the
        pending one -- the unbounded-stack-growth hazard.  The
        ``sigreturn`` then restores the mask saved at delivery,
        re-enabling signals.
        """
        runtime = self._runtime
        if not tcb.pending_interrupt_frames:
            return
        runtime.unix.sigsetmask(runtime.proc, _FULL_MASK)
        while tcb.pending_interrupt_frames:
            frame = tcb.pending_interrupt_frames.pop()
            runtime.unix.sigreturn(runtime.proc, frame)
