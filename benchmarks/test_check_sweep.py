"""Deep schedule-exploration sweep over the standard workloads.

Slower than the tier-1 checker tests: every bench workload is explored
under both search modes against the fixed library, asserting the
invariant suite stays silent.  Run with ``-m check``::

    PYTHONPATH=src python -m pytest benchmarks -m check -q

The final test runs the check *suite* proper
(:func:`repro.bench.suites.run_check`, shared with ``python -m
repro.bench run --suite check``) and writes its schema records
(``bench-records/check.json``, the artifact CI uploads and gates on):
with a fixed seed the schedules explored and invariant checks run are
deterministic, so a checker that silently stops checking shows up as a
divergence.
"""

from pathlib import Path

import pytest

from repro.check.cli import WORKLOADS
from repro.check.explore import Explorer

pytestmark = pytest.mark.check

RECORDS = Path(__file__).resolve().parent.parent / "bench-records" / "check.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_random_walks_find_nothing(name):
    factory, priority = WORKLOADS[name]
    explorer = Explorer(lambda: factory(1), priority=priority)
    report = explorer.explore_random(runs=15, seed=99)
    assert report.schedules_explored == 15
    assert report.failures == []
    assert report.checks_run > 0


@pytest.mark.parametrize("name", ["cond_relay", "writer_cancel", "pipeline"])
def test_dfs_finds_nothing(name):
    factory, priority = WORKLOADS[name]
    explorer = Explorer(lambda: factory(1), priority=priority)
    report = explorer.explore_dfs(max_runs=60)
    assert report.failures == []


def test_suite_writes_schema_records():
    from repro.bench.schema import SuiteResult
    from repro.bench.suites import run_check

    result = run_check(runs=15, seed=99)
    result.save(RECORDS)
    assert {r.workload for r in result.records} == set(WORKLOADS)
    failures = [r for r in result.records if r.metric == "failures"]
    assert failures and all(r.value == 0 for r in failures)

    assert SuiteResult.load(RECORDS).to_dict() == result.to_dict()
    gated = [r for r in result.records if r.direction == "exact"]
    # schedules + checks + failures per workload, all divergence oracles.
    assert len(gated) == 3 * len(WORKLOADS)
