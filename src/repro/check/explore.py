"""The explorer: drive a workload under controlled preemption choices.

Each run wires a fresh runtime with two attachments: a
:class:`~repro.check.schedule.ScriptedChoices` source feeding the
:class:`~repro.sched.perverted.EnumerableSwitchPolicy` (which asks it
at every kernel exit whether to preempt and whom to run), and a
:class:`~repro.check.invariants.CheckContext` running the invariant
rules at every kernel release.  Only a run whose schedule is kept gets
a third, a dispatch-only tracer: a passing walk runs untraced, and a
failing one is replayed once from its decision vector with the tracer
attached (:meth:`Explorer.schedule_of`), the replay checked to fail
the same way.

Two search modes over the decision tree:

- :meth:`Explorer.explore_dfs` -- bounded depth-first search in the
  style of stateless model checking: run, then for every choice point
  that took the default, queue a variant that flips it to each untried
  alternative.  Systematic up to the depth/branch bounds.
- :meth:`Explorer.explore_random` -- seeded random walks: every
  decision past the scripted prefix is drawn from a forked
  deterministic RNG, the paper's "vary the seed" debugging advice
  turned into a loop.  The failing *trail* is itself the replayable
  decision vector, so a random find is still deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.invariants import CheckContext, InvariantViolation
from repro.check.schedule import ChoicePoint, ScriptedChoices
from repro.core.config import RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.debug.replay import ScheduleStep, extract_schedule
from repro.debug.trace import Tracer
from repro.fleet import FleetPool, FleetStats, SnapshotEngine
from repro.sched.perverted import EnumerableSwitchPolicy
from repro.sim.frames import ProgramCrash
from repro.sim.rng import DeterministicRng
from repro.sim.world import DeadlockError


@dataclass(frozen=True)
class Failure:
    """Why a run failed: an invariant, a deadlock, or a crash."""

    kind: str  # "invariant" | "deadlock" | "crash"
    rule: str  # invariant rule name; mirrors ``kind`` otherwise
    detail: str

    def same_as(self, other: Optional["Failure"]) -> bool:
        """Same failure mode (the reducer's shrink criterion)."""
        return (
            other is not None
            and self.kind == other.kind
            and self.rule == other.rule
        )

    def __str__(self) -> str:
        return "%s[%s]: %s" % (self.kind, self.rule, self.detail)


class ReplayDivergence(RuntimeError):
    """Replaying a run's decision vector did not reproduce the run: the
    workload is not a deterministic function of its schedule."""


@dataclass
class RunResult:
    """One explored run."""

    decisions: List[int]  # the scripted prefix this run was given
    vector: List[int]  # every decision actually taken (replays the run)
    trail: List[ChoicePoint]
    failure: Optional[Failure]
    schedule: List[ScheduleStep]
    elapsed_us: float
    checks_run: int
    steps: int = 0  # executor steps the run took
    #: choice index -> runtime state digest, for requested probe depths
    #: (snapshot-integrity testing; empty in ordinary runs).
    probe_digests: Dict[int, str] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class ExploreReport:
    """Outcome of a DFS or random-walk exploration."""

    mode: str
    schedules_explored: int = 0
    checks_run: int = 0
    failures: List[RunResult] = field(default_factory=list)
    #: Unexplored decision prefixes abandoned because ``max_runs`` ran
    #: out -- 0 means the search was exhaustive (or stopped on purpose).
    frontier_remaining: int = 0
    #: How the sweep executed (parallelism, snapshots, fallbacks).
    #: Excluded from equality: two explorations are "the same" when
    #: they found the same things, however they were scheduled.
    fleet: Optional[FleetStats] = field(default=None, compare=False)

    @property
    def first_failure(self) -> Optional[RunResult]:
        return self.failures[0] if self.failures else None

    def render(self) -> str:
        """The CLI summary (identical wording to the pre-fleet output)."""
        lines = [
            "%s: %d schedules explored, %d invariant checks, %d failures"
            % (
                self.mode,
                self.schedules_explored,
                self.checks_run,
                len(self.failures),
            )
        ]
        if self.frontier_remaining:
            lines.append(
                "frontier truncated: %d unexplored decision prefixes "
                "remain (raise --runs)" % self.frontier_remaining
            )
        return "\n".join(lines)


class Explorer:
    """Run one workload under many schedules, checking invariants.

    Parameters
    ----------
    workload_factory:
        Zero-argument callable returning a fresh workload main (thread
        body) per run.  Must be stateless across calls: replaying a
        decision vector replays the schedule only if every run starts
        from the same program.
    priority:
        Main-thread priority (workloads tuned for a specific value).
    max_depth / max_branch:
        Bounds on the decision tree: choice points past ``max_depth``
        take the default, and at most ``max_branch`` alternatives are
        considered per point.
    """

    def __init__(
        self,
        workload_factory: Callable[[], Callable],
        priority: int = 100,
        model: str = "sparc-ipx",
        seed: int = 0,
        max_depth: int = 64,
        max_branch: int = 4,
        max_steps: int = 2_000_000,
        pool_size: int = 64,
        ncpus: int = 1,
    ) -> None:
        self.workload_factory = workload_factory
        self.priority = priority
        self.model = model
        self.seed = seed
        self.max_depth = max_depth
        self.max_branch = max_branch
        self.max_steps = max_steps
        self.pool_size = pool_size
        #: Simulated CPU count: > 1 explores under IPI-delayed
        #: asynchronous signals (timers/kills cross CPUs as events).
        self.ncpus = ncpus

    # -- one run ------------------------------------------------------------

    def run_once(
        self,
        decisions: Any = (),
        rng: Optional[DeterministicRng] = None,
        extract: Optional[bool] = None,
        probe_depths: Sequence[int] = (),
        _engine_child: Any = None,
    ) -> RunResult:
        """Run the workload once under the given decision prefix.

        Past the prefix, decisions default to 0 (deterministic replay)
        or are drawn from ``rng`` (random walk).

        ``extract`` controls schedule extraction: True runs with the
        dispatch tracer attached and always extracts (replay/diff
        tooling), False never traces.  The default (None) runs untraced
        -- both search modes throw passing-run schedules away -- and
        takes a failing run's schedule from one traced replay of its
        vector (:meth:`schedule_of`).

        ``probe_depths`` requests a :meth:`PthreadsRuntime.state_digest`
        immediately before the given choice indices (recorded in
        :attr:`RunResult.probe_digests`); the snapshot tests use it to
        prove a resumed checkpoint sits in exactly the replayed state.

        ``_engine_child`` is the :mod:`repro.fleet` worker-side hook;
        ordinary callers leave it None.
        """
        choices = ScriptedChoices(
            decisions,
            rng=rng,
            max_depth=self.max_depth,
            max_branch=self.max_branch,
        )
        check = CheckContext(choices)
        tracer = Tracer(kinds=("dispatch",)) if extract else None
        runtime = PthreadsRuntime(
            model=self.model,
            seed=self.seed,
            config=RuntimeConfig(pool_size=self.pool_size),
            policy=EnumerableSwitchPolicy(),
            trace=tracer,
            check=check,
            ncpus=self.ncpus,
        )
        probes: Dict[int, str] = {}
        if _engine_child is not None:
            _engine_child.attach(choices, runtime)
        elif probe_depths:
            wanted = frozenset(probe_depths)

            def probe(index: int) -> None:
                if index in wanted:
                    probes[index] = runtime.state_digest()

            choices.before_choice = probe
        failure: Optional[Failure] = None
        try:
            runtime.main(self.workload_factory(), priority=self.priority)
            runtime.run(max_steps=self.max_steps)
        except InvariantViolation as exc:
            failure = Failure("invariant", exc.rule, exc.detail)
        except DeadlockError as exc:
            failure = Failure("deadlock", "deadlock", str(exc))
        except ProgramCrash as exc:
            failure = Failure("crash", "crash", str(exc))
        else:
            try:
                check.check_quiescent(runtime)
            except InvariantViolation as exc:
                failure = Failure("invariant", exc.rule, exc.detail)
        result = RunResult(
            # A fleet resume rewrites the scripted vector mid-run, so
            # the source of truth is the choice source, not our arg.
            decisions=list(choices.decisions),
            vector=choices.vector,
            trail=list(choices.trail),
            failure=failure,
            schedule=extract_schedule(tracer) if extract else [],
            elapsed_us=runtime.world.now_us,
            checks_run=check.checks_run,
            steps=runtime.steps,
            probe_digests=probes,
        )
        if extract is None and failure is not None:
            result.schedule = self.schedule_of(result)
        return result

    def schedule_of(self, run: RunResult) -> List[ScheduleStep]:
        """A failing run's dispatch schedule, from a traced replay.

        Replays ``run.vector`` from an empty world with the dispatch
        tracer attached.  The replay must take the same decisions and
        fail the same way (:meth:`Failure.same_as`); otherwise the
        schedule would describe some other run, and
        :class:`ReplayDivergence` names both.
        """
        replay = self.run_once(run.vector, extract=True)
        if replay.vector != run.vector or not (
            run.failure is not None and run.failure.same_as(replay.failure)
        ):
            raise ReplayDivergence(
                "a replay did not reproduce the run: the run took "
                "decisions %s and ended %s; its replay took %s and ended %s"
                % (
                    run.vector,
                    run.failure or "passing",
                    replay.vector,
                    replay.failure or "passing",
                )
            )
        return replay.schedule

    # -- systematic search --------------------------------------------------

    def explore_dfs(
        self,
        max_runs: int = 200,
        stop_on_failure: bool = True,
        jobs: int = 1,
        snapshot: Optional[bool] = None,
    ) -> ExploreReport:
        """Bounded DFS over the decision tree, default schedule first.

        ``jobs > 1`` speculatively runs upcoming frontier entries on a
        fleet of forked workers; ``snapshot`` (default: on whenever the
        fleet is) additionally checkpoints decision prefixes so child
        schedules resume mid-run instead of replaying from an empty
        world.  Neither changes a byte of the report: the DFS below is
        the sequential algorithm, consuming results in its own order.
        """
        if snapshot is None:
            snapshot = jobs > 1
        stats = FleetStats()
        engine = None
        if (jobs > 1 or snapshot) and hasattr(os, "fork"):
            engine = SnapshotEngine(
                self, jobs=jobs, snapshot=snapshot, stats=stats
            )
            if not engine.start():
                engine = None
        report = ExploreReport(mode="dfs", fleet=stats)
        frontier: List[List[int]] = [[]]
        seen = set()
        try:
            while frontier and report.schedules_explored < max_runs:
                decisions = frontier.pop()
                key = tuple(decisions)
                if key in seen:
                    continue
                seen.add(key)
                if engine is not None:
                    result = engine.run(decisions)
                else:
                    result = self.run_once(decisions)
                    stats.tasks += 1
                    stats.steps_executed += result.steps
                    stats.steps_full += result.steps
                report.schedules_explored += 1
                report.checks_run += result.checks_run
                if result.failed:
                    report.failures.append(result)
                    if stop_on_failure:
                        return report  # a deliberate stop, not a cap
                    continue  # don't expand below a failing schedule
                # Every choice point past the scripted prefix took a
                # recorded default: queue each untried alternative (LIFO,
                # so deeper variations of the latest run go first).
                for index in range(len(decisions), len(result.trail)):
                    if index >= self.max_depth:
                        break
                    point = result.trail[index]
                    prefix = result.vector[:index]
                    for alternative in range(1, point.options):
                        if alternative != point.chosen:
                            frontier.append(prefix + [alternative])
                if engine is not None:
                    engine.prefetch(
                        [d for d in frontier if tuple(d) not in seen]
                    )
            # ``max_runs`` may have truncated real work: say so (the
            # CLI surfaces it; a silent cap reads as an exhaustive
            # search when it was not).
            report.frontier_remaining = len(
                {tuple(d) for d in frontier} - seen
            )
        finally:
            if engine is not None:
                engine.close()
        return report

    # -- random walks -------------------------------------------------------

    def explore_random(
        self,
        runs: int = 50,
        seed: int = 1234,
        stop_on_failure: bool = True,
        jobs: int = 1,
        oversubscribe: bool = False,
    ) -> ExploreReport:
        """Seeded random walks; each run's trail replays it exactly.

        Walks are independent (walk ``i`` draws from ``fork(i)`` of the
        base seed, not from a shared stream), so ``jobs > 1`` fans them
        across a :class:`~repro.fleet.FleetPool` and reads the results
        back in walk order -- the report is byte-identical to ``jobs=1``.
        """
        report = ExploreReport(mode="random")
        base = DeterministicRng(seed)
        stats = FleetStats()
        report.fleet = stats

        def walk(index: int) -> RunResult:
            return self.run_once((), rng=base.fork(index))

        with FleetPool(
            walk, jobs=jobs, stats=stats, oversubscribe=oversubscribe
        ) as pool:
            for result in pool.imap(range(runs)):
                stats.steps_executed += result.steps
                stats.steps_full += result.steps
                report.schedules_explored += 1
                report.checks_run += result.checks_run
                if result.failed:
                    report.failures.append(result)
                    if stop_on_failure:
                        break
        return report
