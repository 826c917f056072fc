"""Choice sources: scripting and enumerating preemption decisions.

A run under the :class:`repro.sched.perverted.EnumerableSwitchPolicy`
hits a *choice point* at every library kernel exit with runnable
competitors: continue the current thread, or force a switch to any
particular ready thread.  The world delegates each decision to its
attached choice source (:meth:`repro.sim.world.World.choose`), and the
source records what was decided and how many alternatives existed --
the *trail*.  Replaying the same decision vector replays the same
schedule, cycle for cycle, because everything else in the simulator is
deterministic.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.sim.rng import DeterministicRng


class ChoicePoint(NamedTuple):
    """One recorded decision: ``chosen`` out of ``options`` behaviours.

    An immutable tuple: a run records one per choice point.
    """

    options: int
    chosen: int
    tag: str

    def __str__(self) -> str:
        return "%s:%d/%d" % (self.tag or "choice", self.chosen, self.options)


class ScriptedChoices:
    """A choice source that follows a decision vector, then defaults.

    Parameters
    ----------
    decisions:
        The prefix to replay.  Decision ``i`` scripts the ``i``-th
        choice point of the run; past the end of the vector the source
        falls back to the default (0 = the scheduler's own behaviour)
        or, when ``rng`` is given, to a uniformly random alternative
        (the seeded random-walk mode).
    rng:
        Optional :class:`DeterministicRng` for the random tail.
    max_depth:
        Choice points past this index always take the default --
        bounds the DFS tree depth (and keeps random walks finite-ish).
    max_branch:
        Alternatives per choice point are clamped to this many --
        bounds the DFS tree width.

    Attributes
    ----------
    trail:
        The :class:`ChoicePoint` actually taken at every choice point,
        scripted or not.  ``[p.chosen for p in trail]`` is the exact
        decision vector that reproduces this run.
    """

    def __init__(
        self,
        decisions: Sequence[int] = (),
        rng: Optional[DeterministicRng] = None,
        max_depth: int = 64,
        max_branch: int = 8,
    ) -> None:
        self.decisions = list(decisions)
        self.rng = rng
        self.max_depth = max_depth
        self.max_branch = max_branch
        self.trail: List[ChoicePoint] = []
        #: Optional hook called with the choice index before each
        #: decision is made.  The fleet layer (:mod:`repro.fleet`)
        #: installs one to take prefix snapshots / state probes at
        #: choice points; ordinary runs leave it None and pay nothing.
        self.before_choice = None

    def choose(self, options: int, tag: str = "") -> int:
        options = min(options, self.max_branch)
        index = len(self.trail)
        if self.before_choice is not None:
            self.before_choice(index)
        if index < len(self.decisions):
            chosen = min(self.decisions[index], options - 1)
        elif index >= self.max_depth or self.rng is None:
            chosen = 0
        else:
            chosen = self.rng.randrange(options)
        self.trail.append(ChoicePoint(options, chosen, tag))
        return chosen

    @property
    def vector(self) -> List[int]:
        """The decision vector that replays this run exactly."""
        return [point.chosen for point in self.trail]

    def __repr__(self) -> str:
        return "ScriptedChoices(%d scripted, %d taken)" % (
            len(self.decisions),
            len(self.trail),
        )
