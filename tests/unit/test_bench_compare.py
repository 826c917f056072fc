"""Tolerance-band comparison semantics (the generic gate's heart)."""

import pytest

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    compare_results,
    failures,
    render_findings,
)
from repro.bench.schema import BenchRecord, EnvFingerprint, SuiteResult


def result(*records, config=None, suite="host"):
    return SuiteResult(
        suite=suite,
        env=EnvFingerprint(commit="t"),
        config=dict(config or {"scale": 16}),
        records=list(records),
    )


def rec(metric="steps_per_sec", value=1_000_000.0, direction="higher",
        workload="lock_storm", unit="steps/s", tolerance=None, params=None):
    return BenchRecord(
        suite="host", workload=workload, metric=metric, value=value,
        unit=unit, direction=direction, tolerance=tolerance,
        params=dict(params or {}),
    )


def statuses(baseline, current, **kwargs):
    return {
        (f.workload, f.metric): f.status
        for f in compare_results(baseline, current, **kwargs)
    }


def test_in_band_noise_passes():
    base = result(rec(value=1_000_000.0))
    cur = result(rec(value=850_000.0))  # -15%, inside the 20% band
    findings = compare_results(base, cur)
    assert [f.status for f in findings] == ["ok"]
    assert failures(findings) == []


def test_out_of_band_regression_fails():
    base = result(rec(value=1_000_000.0))
    cur = result(rec(value=750_000.0))  # -25%
    findings = compare_results(base, cur)
    assert [f.status for f in findings] == ["regressed"]
    assert len(failures(findings)) == 1


def test_improvement_beyond_band_passes():
    base = result(rec(value=1_000_000.0))
    cur = result(rec(value=10_000_000.0))
    findings = compare_results(base, cur)
    assert [f.status for f in findings] == ["improved"]
    assert failures(findings) == []


def test_lower_direction_band_is_symmetric():
    base = result(rec(metric="latency_p99_us", value=100.0,
                      direction="lower", unit="us"))
    worse = result(rec(metric="latency_p99_us", value=130.0,
                       direction="lower", unit="us"))
    better = result(rec(metric="latency_p99_us", value=10.0,
                        direction="lower", unit="us"))
    assert [f.status for f in compare_results(base, worse)] == ["regressed"]
    assert [f.status for f in compare_results(base, better)] == ["improved"]


def test_missing_metric_fails():
    base = result(rec(), rec(workload="pipeline"))
    cur = result(rec())
    findings = compare_results(base, cur)
    assert statuses(base, cur)[("pipeline", "steps_per_sec")] == "missing"
    assert len(failures(findings)) == 1


def test_exact_divergence_fails_regardless_of_size():
    base = result(rec(metric="simulated_us", value=94621.05,
                      direction="exact", unit="us"))
    cur = result(rec(metric="simulated_us", value=94621.06,
                     direction="exact", unit="us"))
    findings = compare_results(base, cur)
    assert [f.status for f in findings] == ["diverged"]
    assert "regenerate" in findings[0].message


def test_info_metrics_are_never_gated():
    base = result(rec(metric="wall_seconds", value=1.0, direction="info",
                      unit="s"))
    cur = result()  # wall_seconds missing entirely
    assert compare_results(base, cur) == []


def test_per_record_tolerance_overrides_default():
    base = result(rec(metric="speedup", value=2.0, unit="ratio",
                      tolerance=0.5))
    cur = result(rec(metric="speedup", value=1.2, unit="ratio",
                     tolerance=0.5))  # -40%: inside the 50% band
    assert [f.status for f in compare_results(base, cur)] == ["ok"]
    tighter = result(rec(metric="speedup", value=1.2, unit="ratio"))
    # Without the override the default 20% band catches it.
    assert [
        f.status for f in compare_results(result(rec(metric="speedup",
                                                     value=2.0,
                                                     unit="ratio")), tighter)
    ] == ["regressed"]


def test_zero_baseline_has_no_relative_band():
    # Any move off a zero baseline is out of band; the direction
    # decides whether it is a regression or an improvement.
    def stall(value, direction):
        return result(rec(metric="stalls", value=value, direction=direction,
                          unit="count"))

    def status(base, cur):
        return [f.status for f in compare_results(base, cur)]

    assert status(stall(0, "lower"), stall(0, "lower")) == ["ok"]
    assert status(stall(0, "lower"), stall(3, "lower")) == ["regressed"]
    assert status(stall(0, "higher"), stall(3, "higher")) == ["improved"]
    assert status(stall(0, "higher"), stall(-3, "higher")) == ["regressed"]
    assert status(stall(0, "lower"), stall(-3, "lower")) == ["improved"]
    assert len(failures(compare_results(stall(0, "lower"),
                                        stall(3, "lower")))) == 1


def test_unit_or_direction_drift_is_incomparable():
    base = result(rec(metric="latency_p99_us", value=100.0,
                      direction="lower", unit="us"))
    for drifted in (
        rec(metric="latency_p99_us", value=100.0, direction="lower",
            unit="us/op"),
        rec(metric="latency_p99_us", value=100.0, direction="info",
            unit="us"),
    ):
        findings = compare_results(base, result(drifted))
        assert [f.status for f in findings] == ["incomparable"]
        assert failures(findings) == findings
        assert "declaration changed" in findings[0].message
    # An exact oracle that drifts to a band is caught before its value.
    oracle = result(rec(metric="simulated_us", value=5.0, direction="exact",
                        unit="us"))
    banded = result(rec(metric="simulated_us", value=5.0, direction="lower",
                        unit="us"))
    assert [f.status for f in compare_results(oracle, banded)] == [
        "incomparable"
    ]


def test_suite_mismatch_is_incomparable():
    base = result(rec())
    cur = result(rec(), suite="net")
    findings = compare_results(base, cur)
    assert [f.status for f in findings] == ["incomparable"]
    assert failures(findings) == findings


def test_config_mismatch_is_incomparable():
    base = result(rec(), config={"scale": 16})
    cur = result(rec(), config={"scale": 64})
    findings = compare_results(base, cur)
    assert [f.status for f in findings] == ["incomparable"]
    assert "scale" in findings[0].message


def test_noncomparable_config_keys_are_ignored():
    base = result(rec(), config={"scale": 16, "repeat": 3})
    cur = result(rec(), config={"scale": 16, "repeat": 10})
    assert [f.status for f in compare_results(base, cur)] == ["ok"]


def test_extra_current_metrics_are_not_failures():
    base = result(rec())
    cur = result(rec(), rec(metric="new_counter", direction="higher",
                            unit="count", value=5))
    assert failures(compare_results(base, cur)) == []


def test_default_tolerance_is_the_historical_20_percent():
    assert DEFAULT_TOLERANCE == 0.20


def test_render_collapses_in_band_rows():
    base = result(rec(), rec(workload="pipeline", value=10.0))
    cur = result(rec(), rec(workload="pipeline", value=5.0))
    text = render_findings(compare_results(base, cur))
    assert "pipeline/steps_per_sec" in text
    assert "1 metrics in band, not shown" in text
    verbose = render_findings(compare_results(base, cur), verbose=True)
    assert "lock_storm/steps_per_sec" in verbose
