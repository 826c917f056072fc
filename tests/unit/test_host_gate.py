"""The host regression gate's comparison semantics, post-generalization.

The old ``benchmarks/host/check_regression.py`` pinned these behaviours
for the host suite only; the generic harness (``repro.bench.compare``
over schema records) must preserve every one of them -- identical
passes, in-band dips pass, >20% steps/s drops fail, improvements always
pass, simulated-time divergence fails loudly, scale mismatches are
incomparable, and missing workloads fail.
"""

from repro.bench.compare import compare_results, failures
from repro.bench.schema import BenchRecord, EnvFingerprint, SuiteResult


def _result(scale, repeat=3, **per_workload):
    """A host result shaped like :func:`repro.bench.suites.run_host`'s:
    per workload, ``steps_per_sec`` (higher) and ``simulated_us``
    (exact), plus the runner's config."""
    records = []
    for name, (sps, sim) in per_workload.items():
        records.append(BenchRecord(suite="host", workload=name,
                                   metric="steps_per_sec", value=sps,
                                   unit="steps/s", direction="higher"))
        records.append(BenchRecord(suite="host", workload=name,
                                   metric="simulated_us", value=sim,
                                   unit="us", direction="exact"))
    return SuiteResult(
        suite="host",
        env=EnvFingerprint(commit="t", scale=scale),
        config={"scale": scale, "repeat": repeat, "model": "sparc-ipx"},
        records=records,
    ).validate()


BASE = _result(16, lock_storm=(1_000_000.0, 25741.05),
               churn=(100_000.0, 154732.4))


def _gate(current, tolerance=0.20):
    return failures(compare_results(BASE, current, tolerance=tolerance))


def test_identical_measurement_passes():
    assert _gate(BASE) == []


def test_small_dip_within_tolerance_passes():
    cur = _result(16, lock_storm=(850_000.0, 25741.05),
                  churn=(95_000.0, 154732.4))
    assert _gate(cur) == []


def test_regression_beyond_tolerance_fails():
    cur = _result(16, lock_storm=(700_000.0, 25741.05),
                  churn=(100_000.0, 154732.4))
    failed = _gate(cur)
    assert len(failed) == 1
    assert failed[0].workload == "lock_storm"
    assert failed[0].metric == "steps_per_sec"
    assert failed[0].status == "regressed"
    assert "below the baseline" in failed[0].message


def test_injected_25_percent_drop_fails():
    # The acceptance scenario: a 25% steps/s drop is out of band.
    cur = _result(16, lock_storm=(750_000.0, 25741.05),
                  churn=(100_000.0, 154732.4))
    failed = _gate(cur)
    assert [f.workload for f in failed] == ["lock_storm"]
    assert failed[0].status == "regressed"


def test_speedup_always_passes():
    cur = _result(16, lock_storm=(9_000_000.0, 25741.05),
                  churn=(500_000.0, 154732.4))
    assert _gate(cur) == []


def test_simulated_time_divergence_fails_loudly():
    cur = _result(16, lock_storm=(1_000_000.0, 25741.05),
                  churn=(100_000.0, 154999.9))
    failed = _gate(cur)
    assert len(failed) == 1
    assert failed[0].status == "diverged"
    assert failed[0].metric == "simulated_us"
    assert "diverged" in failed[0].message
    assert "regenerate" in failed[0].message


def test_scale_mismatch_is_not_comparable():
    cur = _result(64, lock_storm=(1_000_000.0, 25741.05),
                  churn=(100_000.0, 154732.4))
    failed = _gate(cur)
    assert len(failed) == 1
    assert failed[0].status == "incomparable"
    assert "not comparable" in failed[0].message


def test_missing_workload_fails():
    cur = _result(16, lock_storm=(1_000_000.0, 25741.05))
    failed = _gate(cur)
    assert failed and all(f.status == "missing" for f in failed)
    assert {f.workload for f in failed} == {"churn"}


def test_differing_repeat_is_still_comparable():
    # Best-of-N fidelity differs, but the measurement is the same.
    cur = _result(16, repeat=10, lock_storm=(1_000_000.0, 25741.05),
                  churn=(100_000.0, 154732.4))
    assert _gate(cur) == []
