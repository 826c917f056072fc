"""Explorer acceptance: finds the reseeded bugs, replays them exactly.

These are the issue's acceptance criteria: with the shipped fixes
temporarily reverted (:mod:`repro.check.preseed`), the explorer must
find the ``grant_to_waker`` counter violation and the ``wrlock``
cancellation leak, and each find must replay deterministically from
its minimized decision vector.
"""

from repro.check.explore import Explorer
from repro.check.preseed import preseeded
from repro.check.reduce import Reducer
from repro.check.workloads import cond_relay, timed_sleepers, writer_cancel
from repro.debug.replay import compare_schedules


def test_fixed_library_passes_exploration():
    for factory, mode in (
        (lambda: cond_relay(waiters=2), "dfs"),
        (lambda: writer_cancel(), "random"),
    ):
        explorer = Explorer(factory)
        if mode == "dfs":
            report = explorer.explore_dfs(max_runs=30)
        else:
            report = explorer.explore_random(runs=30, seed=1234)
        assert report.schedules_explored > 0
        assert report.failures == []
        assert report.checks_run > 0


def test_explorer_finds_grant_to_waker_counter_bug():
    explorer = Explorer(lambda: cond_relay(waiters=2))
    with preseeded("grant-to-waker"):
        report = explorer.explore_dfs(max_runs=30)
        failure = report.first_failure
        assert failure is not None
        assert failure.failure.kind == "invariant"
        assert failure.failure.rule == "mutex-counter-agreement"
        minimized = Reducer(explorer).shrink(failure)
        assert len(minimized.decisions) <= len(failure.vector)
        # Deterministic replay: same vector, same schedule, same rule.
        again = explorer.run_once(minimized.decisions)
    assert again.failure is not None
    assert again.failure.same_as(minimized.failure)
    diff = compare_schedules(again.schedule, minimized.schedule)
    assert diff.identical, diff.detail


def test_explorer_finds_wrlock_cancellation_leak():
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        # The default schedule is clean: the writer reaches its wait
        # before the canceller runs.  Only exploration reaches the bug.
        assert explorer.run_once(()).failure is None
        report = explorer.explore_random(runs=60, seed=1234)
        failure = report.first_failure
        assert failure is not None
        assert failure.failure.kind == "invariant"
        assert failure.failure.rule == "mutex-owner-dead"
        minimized = Reducer(explorer).shrink(failure)
        first = explorer.run_once(minimized.decisions)
        second = explorer.run_once(minimized.decisions)
    assert first.failure is not None
    assert first.failure.same_as(failure.failure)
    diff = compare_schedules(first.schedule, second.schedule)
    assert diff.identical, diff.detail


def test_dfs_also_reaches_the_wrlock_leak():
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        report = explorer.explore_dfs(max_runs=120)
        assert report.first_failure is not None
        assert report.first_failure.failure.rule == "mutex-owner-dead"


def test_timed_sleepers_exhaust_clean_under_dfs():
    """Every way out of a timed wait leaves no deadline behind, on
    every schedule DFS can reach (it exhausts the tree)."""
    report = Explorer(timed_sleepers).explore_dfs(max_runs=2_000)
    assert report.schedules_explored == 840
    assert report.failures == []


def test_dfs_finds_the_stale_sleep_deadline():
    explorer = Explorer(timed_sleepers)
    with preseeded("stale-sleep-deadline"):
        report = explorer.explore_dfs(max_runs=300)
        failure = report.first_failure
        assert failure is not None
        assert failure.failure.rule == "timer-queue-drained"
        minimized = Reducer(explorer).shrink(failure)
        assert minimized.decisions == []
        again = explorer.run_once(minimized.decisions)
    assert again.failure is not None
    assert again.failure.same_as(failure.failure)


def test_fixed_library_survives_the_bug_schedules():
    """The minimized bug schedules, replayed against the fixed code,
    complete without violations -- the fixes close exactly the windows
    the explorer drove the workloads into."""
    explorer = Explorer(lambda: writer_cancel())
    with preseeded("wrlock-cancel"):
        report = explorer.explore_random(runs=60, seed=1234)
        vector = Reducer(explorer).shrink(report.first_failure).decisions
    clean = explorer.run_once(vector)
    assert clean.failure is None
