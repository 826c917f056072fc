"""Perverted scheduling: simulating parallelism to flush out races.

The paper extends the library with three deliberately hostile policies
that "simulate parallel execution on multiprocessors" by forcing
context switches at the points where a multiprocessor would allow true
overlap:

- **Mutex switch**: every successful mutex lock forces a switch (the
  locker goes to the tail of its own priority queue).
- **Round-robin ordered switch**: every library-kernel exit forces a
  switch (the leaver goes to the tail of the *lowest* priority queue).
- **Random switch**: every kernel exit flips a seeded coin; on heads
  the leaver goes to the lowest tail and the next thread is chosen *at
  random* from the ready queue.

The latter two may violate priority scheduling -- deliberately: on a
multiprocessor, high- and low-priority threads run in parallel anyway.
Varying the random seed varies the interleaving, which the paper found
"a simple but powerful way" to expose latent synchronisation bugs that
FIFO scheduling hides (see ``examples/perverted_debugging.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core import config as cfg
from repro.sched.policies import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime
    from repro.core.tcb import Tcb


class MutexSwitchPolicy(SchedulingPolicy):
    """Force a switch on each successful mutex lock."""

    name = cfg.SCHED_MUTEX_SWITCH

    def __init__(self) -> None:
        self.forced_switches = 0

    def on_mutex_acquired(self, runtime: "PthreadsRuntime") -> None:
        if runtime.current is None or not runtime.sched.ready:
            return
        self.forced_switches += 1
        runtime.kern.enter()
        # Tail of its own priority queue; head of the ready queue next.
        runtime.sched.yield_current()
        runtime.kern.leave()


class RoundRobinOrderedSwitchPolicy(SchedulingPolicy):
    """Force a switch on every library-kernel exit."""

    name = cfg.SCHED_RR_ORDERED

    def __init__(self) -> None:
        self.forced_switches = 0

    def on_kernel_exit(self, runtime: "PthreadsRuntime") -> None:
        if runtime.current is None or not runtime.sched.ready:
            return
        self.forced_switches += 1
        # Tail of the lowest priority queue: everyone ready runs first.
        runtime.sched.pervert_current_to_lowest()


class RandomSwitchPolicy(SchedulingPolicy):
    """Flip a coin on every kernel exit; pick the successor at random."""

    name = cfg.SCHED_RANDOM

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._rng = None
        self.forced_switches = 0
        self._pick_random = False

    def _coin(self, runtime: "PthreadsRuntime") -> bool:
        if self._rng is None:
            if self.seed is None:
                self._rng = runtime.world.rng.fork(salt=0xC01)
            else:
                from repro.sim.rng import DeterministicRng

                self._rng = DeterministicRng(self.seed)
        return self._rng.coin()

    def on_kernel_exit(self, runtime: "PthreadsRuntime") -> None:
        if runtime.current is None or not runtime.sched.ready:
            return
        if not self._coin(runtime):
            return
        self.forced_switches += 1
        self._pick_random = True
        runtime.sched.pervert_current_to_lowest()

    def select(self, runtime: "PthreadsRuntime") -> Optional["Tcb"]:
        # Random successor selection applies to the forced switches
        # only; ordinary dispatches keep priority order.
        if not self._pick_random or self._rng is None:
            return None
        self._pick_random = False
        ready = runtime.sched.ready.threads()
        if not ready:
            return None
        return self._rng.choice(ready)


class EnumerableSwitchPolicy(SchedulingPolicy):
    """Enumerate switch decisions instead of merely picking one.

    The three policies above *pick* a hostile switch (always, or by
    coin flip).  This one exposes the full decision: at every library
    kernel exit with a non-empty ready queue there are
    ``1 + len(ready)`` legal continuations -- keep running (what the
    priority scheduler would do), or force a switch to any particular
    ready thread.  The decision is delegated to the world's choice
    source (:meth:`repro.sim.world.World.choose`), so the
    ``repro.check`` explorer can walk the alternatives systematically
    (DFS) or sample them (seeded random walk).  Without a choice
    source attached every decision is 0 and the policy is inert.
    """

    name = "enumerable-switch"

    def __init__(self) -> None:
        self.forced_switches = 0
        self.choice_points = 0
        self._pick: Optional["Tcb"] = None

    def on_kernel_exit(self, runtime: "PthreadsRuntime") -> None:
        if runtime.current is None:
            return
        world = runtime.world
        if world.choices is None:
            return
        ready = runtime.sched.ready
        if not ready:
            return
        self.choice_points += 1
        chosen = world.choose(1 + len(ready), tag="kernel-exit")
        if chosen == 0:
            return
        self.forced_switches += 1
        # Like the RR-ordered policy: the leaver goes to the lowest
        # tail, and select() steers the dispatch at the chosen thread.
        # Only a forced switch needs the queue's order.
        self._pick = ready.threads()[chosen - 1]
        runtime.sched.pervert_current_to_lowest()

    def select(self, runtime: "PthreadsRuntime") -> Optional["Tcb"]:
        pick = self._pick
        if pick is None:
            return None
        self._pick = None
        if pick in runtime.sched.ready:
            return pick
        return None


def make_policy(name: str, seed: Optional[int] = None) -> SchedulingPolicy:
    """Policy factory keyed by the ``SCHED_*`` constant."""
    if name == cfg.SCHED_MUTEX_SWITCH:
        return MutexSwitchPolicy()
    if name == cfg.SCHED_RR_ORDERED:
        return RoundRobinOrderedSwitchPolicy()
    if name == cfg.SCHED_RANDOM:
        return RandomSwitchPolicy(seed)
    if name == EnumerableSwitchPolicy.name:
        return EnumerableSwitchPolicy()
    if name in (cfg.SCHED_FIFO, cfg.SCHED_RR, cfg.SCHED_OTHER):
        return SchedulingPolicy()
    raise ValueError("unknown policy: %r" % (name,))
