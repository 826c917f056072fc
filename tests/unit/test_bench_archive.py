"""The per-commit history archive under ``benchmarks/history/``."""

import pytest

from repro.bench.archive import (
    latest_result,
    list_commits,
    load_entry,
    load_history,
    save_result,
)
from repro.bench.schema import BenchRecord, EnvFingerprint, SchemaError, SuiteResult


@pytest.fixture()
def history(tmp_path):
    return tmp_path / "history"


def _result(suite, commit, value=1.0):
    return SuiteResult(
        suite=suite,
        env=EnvFingerprint(commit=commit),
        config={"scale": 1},
        records=[
            BenchRecord(suite=suite, workload="w", metric="m", value=value,
                        unit="count", direction="higher")
        ],
    )


def test_archive_orders_commits_by_insertion(history):
    save_result(_result("host", "bbb"), history)
    save_result(_result("host", "aaa"), history)  # lexically earlier
    assert list_commits(history) == ["bbb", "aaa"]
    latest = latest_result(history, "host")
    assert latest.env.commit == "aaa"


def test_latest_result_skips_commits_without_the_suite(history):
    save_result(_result("host", "c1"), history)
    save_result(_result("net", "c2"), history)
    assert latest_result(history, "host").env.commit == "c1"
    assert latest_result(history, "net").env.commit == "c2"
    assert latest_result(history, "fleet") is None


def test_load_entry_and_history(history):
    save_result(_result("host", "c1"), history)
    save_result(_result("net", "c1"), history)
    entry = load_entry(history, "c1")
    assert sorted(entry) == ["host", "net"]
    everything = load_history(history)
    assert [e["commit"] for e in everything] == ["c1"]
    with pytest.raises(FileNotFoundError):
        load_entry(history, "nope")


def test_unindexed_directories_are_still_visible(history):
    save_result(_result("host", "c1"), history)
    # A hand-copied entry (no index update) must not be invisible.
    _result("host", "manual").save(history / "manual" / "host.json")
    assert list_commits(history) == ["c1", "manual"]


def test_archiving_unknown_commit_is_refused(history):
    with pytest.raises(SchemaError, match="commit"):
        save_result(_result("host", "unknown"), history)
