"""CLI smoke tests for ``python -m repro.bench`` (and the acceptance
gate semantics: self-compare passes twice, an injected 25% steps/s drop
or any simulated-time divergence exits nonzero)."""

from pathlib import Path

import pytest

from repro.bench.archive import save_result
from repro.bench.cli import main
from repro.bench.schema import BenchRecord, EnvFingerprint, SuiteResult

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def host_result(commit="c1", steps_per_sec=726000.0, simulated_us=94621.05):
    records = []
    for workload in ("lock_storm", "pipeline"):
        records.append(
            BenchRecord(suite="host", workload=workload,
                        metric="steps_per_sec", value=steps_per_sec,
                        unit="steps/s", direction="higher")
        )
        records.append(
            BenchRecord(suite="host", workload=workload,
                        metric="simulated_us", value=simulated_us,
                        unit="us", direction="exact")
        )
    return SuiteResult(
        suite="host",
        env=EnvFingerprint(commit=commit, python="3.11", cores=4,
                           platform="linux", scale=64),
        config={"scale": 64, "repeat": 3, "model": "sparc-ipx"},
        records=records,
    )


@pytest.fixture()
def history(tmp_path):
    return tmp_path / "history"


def run_cli(history, *argv):
    return main(["--history", str(history)] + list(argv))


def test_list_shows_archived_history(history, capsys):
    save_result(host_result(commit="seed1"), history)
    assert run_cli(history, "list") == 0
    out = capsys.readouterr().out
    assert "suites: check, fleet, host, net, smp" in out
    assert "seed1  (host)" in out


def test_compare_identical_passes(history, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    host_result().save(a)
    host_result(commit="c2").save(b)  # same numbers, later commit
    assert run_cli(history, "compare", str(a), str(b)) == 0
    assert "within band" in capsys.readouterr().out


def test_compare_regression_exits_nonzero(history, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    host_result().save(a)
    host_result(commit="c2", steps_per_sec=726000.0 * 0.75).save(b)
    assert run_cli(history, "compare", str(a), str(b)) == 1
    captured = capsys.readouterr()
    assert "regressed" in captured.out
    assert "failed" in captured.err


def test_gate_self_compare_passes_twice(history, tmp_path, capsys):
    # Acceptance: the gate run twice on the same commit passes -- the
    # current records match the archived baseline bit for bit.
    save_result(host_result(), history)
    current = tmp_path / "host.json"
    host_result(commit="c1").save(current)
    for _ in range(2):
        assert run_cli(history, "gate", "--suite", "host",
                       "--current", str(current)) == 0
        assert "gate[host] passed" in capsys.readouterr().out


def test_gate_fails_on_injected_25pct_drop(history, tmp_path, capsys):
    save_result(host_result(), history)
    current = tmp_path / "host.json"
    host_result(commit="c2", steps_per_sec=726000.0 * 0.75).save(current)
    assert run_cli(history, "gate", "--suite", "host",
                   "--current", str(current)) == 1
    captured = capsys.readouterr()
    assert "regressed" in captured.out
    assert "gate[host] FAILED" in captured.err


def test_gate_fails_on_any_simulated_time_divergence(history, tmp_path,
                                                     capsys):
    save_result(host_result(), history)
    current = tmp_path / "host.json"
    host_result(commit="c2", simulated_us=94621.06).save(current)
    assert run_cli(history, "gate", "--suite", "host",
                   "--current", str(current)) == 1
    captured = capsys.readouterr()
    assert "diverged" in captured.out
    assert "gate[host] FAILED" in captured.err


def test_gate_current_dir_gates_each_suite(history, tmp_path, capsys):
    save_result(host_result(), history)
    records = tmp_path / "bench-records"
    records.mkdir()
    host_result(commit="c2").save(records / "host.json")
    assert run_cli(history, "gate", "--current-dir", str(records)) == 0
    assert "gate[host] passed" in capsys.readouterr().out
    host_result(commit="c3", simulated_us=1.0).save(records / "host.json")
    assert run_cli(history, "gate", "--current-dir", str(records)) == 1
    capsys.readouterr()


def test_gate_without_baseline_says_so(history, capsys):
    assert run_cli(history, "gate", "--suite", "net") == 1
    assert "no archived baseline" in capsys.readouterr().err


def test_gate_measures_now_and_passes_on_same_commit(history, capsys):
    # End to end on a real suite: archive a measured check run, then
    # let the gate re-measure with the archived config.  The checker
    # is virtual-time deterministic, so the exact oracles match.
    from repro.bench.suites import run_check

    result = run_check(runs=5, seed=99)
    result.env.commit = "c1"
    save_result(result, history)
    assert run_cli(history, "gate", "--suite", "check") == 0
    assert "gate[check] passed" in capsys.readouterr().out


def test_run_writes_schema_records(history, tmp_path, capsys):
    out = tmp_path / "check.json"
    assert run_cli(history, "run", "--suite", "check",
                   "--out", str(out)) == 0
    result = SuiteResult.load(out)
    assert result.suite == "check"
    assert result.records
    capsys.readouterr()


def test_trend_ascii_renders_history_with_gaps(history, capsys):
    save_result(host_result(commit="c1"), history)
    later = host_result(commit="c2", steps_per_sec=800000.0)
    later.records = [r for r in later.records if r.workload != "pipeline"]
    save_result(later, history)
    assert run_cli(history, "trend") == 0
    table = capsys.readouterr().out
    assert "c1" in table and "c2" in table
    assert "host :: lock_storm/steps_per_sec" in table
    # pipeline was not measured at c2: its column shows a gap marker.
    gap_rows = [line for line in table.splitlines() if "pipeline" in line]
    assert gap_rows and all(line.rstrip().endswith("-") for line in gap_rows)


def test_trend_html_out(history, tmp_path, capsys):
    save_result(host_result(), history)
    out = tmp_path / "trend.html"
    assert run_cli(history, "trend", "--format", "html",
                   "--out", str(out)) == 0
    page = out.read_text()
    assert "<table>" in page and "lock_storm/steps_per_sec" in page
    capsys.readouterr()


def test_trend_gated_only_hides_info_series(history, capsys):
    result = host_result()
    result.records.append(
        BenchRecord(suite="host", workload="lock_storm",
                    metric="wall_seconds", value=1.5, unit="s",
                    direction="info")
    )
    save_result(result, history)
    assert run_cli(history, "trend", "--gated-only") == 0
    table = capsys.readouterr().out
    assert "wall_seconds" not in table
    assert "steps_per_sec" in table


def test_missing_file_is_a_clean_error(history, capsys):
    assert run_cli(history, "compare", "no-such.json", "also-no.json") == 2
    assert "error:" in capsys.readouterr().err


def test_committed_seed_history_gates_clean():
    # The checked-in history must self-compare in band: gating any
    # suite's archived records against themselves finds zero failures.
    # Entries are per-commit and a commit need not carry every suite
    # (the smp suite landed in its own entry), so assert over the union.
    from repro.bench.archive import list_commits, load_entry
    from repro.bench.compare import compare_results, failures

    history = REPO_ROOT / "benchmarks" / "history"
    commits = list_commits(history)
    assert commits, "seed history missing"
    seen = set()
    for commit in commits:
        suites = load_entry(history, commit)
        assert suites, "empty history entry for %s" % commit
        seen.update(suites)
        for result in suites.values():
            result.validate()
            assert failures(compare_results(result, result)) == []
    assert seen == {"check", "fleet", "host", "net", "smp"}


def test_module_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "list"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "suites: check, fleet, host, net, smp" in proc.stdout

