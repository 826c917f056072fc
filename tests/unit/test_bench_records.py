"""Record identity: the suite runners emit the records the archive holds.

Each runner in :mod:`repro.bench.suites` declares its metrics where it
measures them.  This pins those declarations -- keys, units,
directions, tolerances and the runner ``config`` -- against the newest
archived entry, and every ``exact`` value against its archived oracle,
so a declaration that moves and drifts fails here before any gate
sees it.
"""

import pytest

from repro.bench.archive import DEFAULT_HISTORY, latest_result
from repro.bench.schema import NONCOMPARABLE_CONFIG
from repro.bench.suites import SUITE_RUNNERS


def comparable(config):
    return {k: v for k, v in config.items() if k not in NONCOMPARABLE_CONFIG}


def declaration(record):
    return (record.unit, record.direction, record.tolerance)


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        ("check", dict(runs=15, seed=99, scale=1)),
        ("host", dict(scale=64, repeat=1)),  # repeat is fidelity, not identity
    ],
)
def test_runner_records_match_the_archive(suite, kwargs):
    baseline = latest_result(DEFAULT_HISTORY, suite)
    assert baseline is not None, "no archived %s entry" % suite
    current = SUITE_RUNNERS[suite](**kwargs)
    assert comparable(current.config) == comparable(baseline.config)

    # Every archived workload keeps exactly its archived records.
    archived = {r.workload for r in baseline.records}
    assert {
        key: declaration(r) for key, r in current.by_key().items()
        if r.workload in archived
    } == {key: declaration(r) for key, r in baseline.by_key().items()}

    # Workloads added since the archive declare each metric the same way.
    by_metric = {r.metric: declaration(r) for r in baseline.records}
    for record in current.records:
        assert declaration(record) == by_metric[record.metric], record

    current_by_key = current.by_key()
    for key, record in baseline.by_key().items():
        if record.direction == "exact":
            assert current_by_key[key].value == record.value, key

