"""Priority-inversion protocols: inheritance and ceiling (SRP).

Implements the two protocols of the paper's Table 3:

- **Priority inheritance**: when a thread blocks on a mutex, the owner
  (transitively) inherits the blocker's effective priority; unlocking
  recomputes the owner's priority with a linear search over the
  mutexes it still holds.
- **Priority ceiling** via the stack resource policy: acquiring the
  mutex immediately boosts the locker to the mutex's ceiling, saving
  the previous level on a per-thread stack; unlocking pops it.

The paper's Table 4 shows the two diverge when nested: pure
stack-popping loses an inheritance boost acquired while the ceiling
mutex was held.  ``RuntimeConfig.mixed_protocol_unlock`` selects
between the faithful ``"stack"`` behaviour (reproducing the paper's
divergence) and the safe ``"linear-search"`` recomputation the paper
recommends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core import config as cfg
from repro.core.tcb import Tcb, ThreadState
from repro.hw import costs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mutex import Mutex
    from repro.core.runtime import PthreadsRuntime


class ProtocolManager:
    """Priority bookkeeping for mutex protocols (kernel-held callers)."""

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self.rt = runtime
        self.boosts = 0  # priority raises performed (Table 3 evidence)
        self.unboosts = 0

    # -- acquisition ------------------------------------------------------------

    def on_acquired(self, tcb: Tcb, mutex: "Mutex") -> None:
        """Called after ``tcb`` becomes the owner of ``mutex``."""
        tcb.held_mutexes.append(mutex)
        if mutex.protocol == cfg.PRIO_PROTECT:
            # SRP: save the current level, jump to the ceiling.
            self.rt.world.spend(costs.PRIO_ADJUST)
            tcb.srp_stack.append(tcb.effective_priority)
            if mutex.prioceiling > tcb.effective_priority:
                self.boosts += 1
                self._set_effective(tcb, mutex.prioceiling)

    # -- contention (inheritance) ---------------------------------------------------

    def on_contention(self, waiter: Tcb, mutex: "Mutex") -> None:
        """``waiter`` is about to block on ``mutex``: boost the owner
        chain if the mutex uses priority inheritance."""
        if mutex.protocol != cfg.PRIO_INHERIT:
            return
        self.rt.world.spend(costs.PRIO_ADJUST)
        level = waiter.effective_priority
        seen = set()
        current: Optional["Mutex"] = mutex
        while current is not None and current.owner is not None:
            owner = current.owner
            if id(owner) in seen:
                break  # cycle: deadlocked chain, boosting is moot
            seen.add(id(owner))
            if owner.effective_priority >= level:
                break
            self.boosts += 1
            self._set_effective(owner, level)
            # Transitive inheritance: if the owner itself is blocked on
            # another inheritance mutex, its owner inherits too.
            wait = owner.wait
            if (
                wait is not None
                and wait.kind == "mutex"
                and getattr(wait.obj, "protocol", None) == cfg.PRIO_INHERIT
            ):
                current = wait.obj
            else:
                current = None

    # -- release ---------------------------------------------------------------------

    def on_released(self, tcb: Tcb, mutex: "Mutex") -> None:
        """Called after ``tcb`` gives up ``mutex``: undo its boost."""
        tcb.held_mutexes.remove(mutex)
        if mutex.protocol == cfg.PRIO_NONE:
            return
        self.rt.world.spend(costs.PRIO_ADJUST)
        if (
            mutex.protocol == cfg.PRIO_PROTECT
            and self.rt.config.mixed_protocol_unlock == "stack"
        ):
            # Pure SRP pop: restore the level saved at acquisition.
            # This is the Table 4 divergence when protocols are mixed.
            if tcb.srp_stack:
                self.unboosts += 1
                self._set_effective(tcb, tcb.srp_stack.pop())
            return
        if mutex.protocol == cfg.PRIO_PROTECT and tcb.srp_stack:
            tcb.srp_stack.pop()
        # Linear search over the mutexes still held (the paper's
        # inheritance unlock, also its recommendation for mixing).
        self.unboosts += 1
        self._set_effective(tcb, self.compute_effective(tcb))

    # -- recomputation -----------------------------------------------------------------

    def compute_effective(self, tcb: Tcb) -> int:
        """max(base, boosts from every mutex still held)."""
        level = tcb.base_priority
        for held in tcb.held_mutexes:
            if held.protocol == cfg.PRIO_INHERIT:
                waiting = held.waiters.highest_priority()
                if waiting is not None and waiting > level:
                    level = waiting
            elif held.protocol == cfg.PRIO_PROTECT:
                if held.prioceiling > level:
                    level = held.prioceiling
        return level

    def recompute_effective(self, tcb: Tcb) -> None:
        """Re-derive the effective priority (after a base change)."""
        self._set_effective(tcb, self.compute_effective(tcb))

    def _set_effective(self, tcb: Tcb, level: int) -> None:
        if level == tcb.effective_priority:
            return
        old = tcb.effective_priority
        tcb.effective_priority = level
        self.rt.world.emit(
            "priority", thread=tcb.name, from_prio=old, to_prio=level
        )
        self.rt.sched.priority_changed(tcb)
        # A blocked thread may need re-sorting in its wait queue.
        wait = tcb.wait
        if (
            tcb.state is ThreadState.BLOCKED
            and wait is not None
            and hasattr(wait.obj, "waiters")
            and tcb in wait.obj.waiters
        ):
            wait.obj.waiters.resort(tcb)
