"""A schedule is traced only when it is kept.

Passing walks run without a tracer.  A failing run's dispatch schedule
comes from one replay of its decision vector with the tracer attached,
and the replay must reproduce the run -- same decisions, same failure
-- or the explorer says so instead of publishing another run's
schedule.  The reducer's trials run untraced too: only the minimized
result is replayed for its schedule.
"""

import os

import pytest

from repro.check import explore
from repro.check.explore import Explorer, ReplayDivergence
from repro.check.preseed import preseeded
from repro.check.reduce import Reducer
from repro.check.workloads import cond_relay, writer_cancel
from repro.debug.trace import Tracer

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


@pytest.fixture
def runtimes(monkeypatch):
    """Every runtime the explorer builds, in order."""
    built = []

    class Recorded(explore.PthreadsRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(explore, "PthreadsRuntime", Recorded)
    return built


@pytest.fixture
def tracers(monkeypatch):
    """Counts the tracers built."""
    made = []
    orig = Tracer.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tracer, "__init__", init)
    return made


def test_passing_walks_run_untraced(runtimes):
    report = Explorer(lambda: cond_relay(waiters=2)).explore_random(
        runs=5, seed=3
    )
    assert report.failures == []
    assert len(runtimes) == 5
    assert all(rt.world.trace is None for rt in runtimes)


def test_failing_schedule_is_that_of_a_traced_replay(runtimes):
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        report = explorer.explore_random(runs=60, seed=1234)
        failing = report.first_failure
        assert failing is not None
        # The run itself was untraced; one traced replay followed it.
        assert runtimes[-2].world.trace is None
        assert runtimes[-1].world.trace is not None
        asked = explorer.run_once(failing.vector, extract=True)
    assert failing.schedule
    assert failing.schedule == asked.schedule


@needs_fork
def test_fleet_walks_and_engine_children_keep_the_schedule():
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        walks = [
            explorer.explore_random(runs=60, seed=1234, jobs=jobs)
            for jobs in (1, 2)
        ]
        sweeps = [
            explorer.explore_dfs(max_runs=300, jobs=jobs)
            for jobs in (1, 2)
        ]
    for sequential, parallel in (walks, sweeps):
        assert sequential.first_failure.schedule
        assert parallel.first_failure.schedule == (
            sequential.first_failure.schedule
        )


def test_a_replay_that_diverges_is_an_error():
    """A workload that is not a function of its schedule: its first
    run crashes, every later one passes."""
    calls = []

    def factory():
        calls.append(None)
        crash = len(calls) == 1

        def main(pt):
            yield pt.work(100)
            if crash:
                raise RuntimeError("first run only")

        return main

    explorer = Explorer(factory)
    with pytest.raises(ReplayDivergence) as info:
        explorer.run_once(())
    assert len(calls) == 2
    message = str(info.value)
    assert "first run only" in message  # the run's failure
    assert "ended passing" in message  # the replay's outcome


def test_reducer_trials_run_untraced(tracers):
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        failing = explorer.explore_random(runs=60, seed=1234).first_failure
        del tracers[:]
        reducer = Reducer(explorer)
        minimized = reducer.shrink(failing)
        assert reducer.attempts > 1
        assert len(tracers) == 1  # the winner's replay only
        again = explorer.run_once(minimized.decisions, extract=True)
    assert minimized.schedule == again.schedule


def test_reducer_survives_a_trial_that_strips_past_the_loop():
    """A kept trial may strip zeros below the index the shrink loop
    visits next; those indices are defaults already."""
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        failing = explorer.explore_random(runs=100, seed=1).first_failure
        minimized = Reducer(explorer).shrink(failing)
    assert failing.vector == [1, 0, 2, 0, 1, 0]
    assert minimized.decisions == [1, 0, 2]
    assert minimized.failure.rule == "mutex-owner-dead"
