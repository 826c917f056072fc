"""Per-op normalization, failed-op accounting and metric naming."""

import json
from pathlib import Path

import pytest

import metrics
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _pass(ops=100, host_s=2.0, elapsed_us=500.0, problems=(), exit=0, traced=False):
    return {
        "exit": exit,
        "traced": traced,
        "problems": list(problems),
        "ops": ops,
        "host_s": host_s,
        "setup_s": 0.2,
        "start_s": 0.01,
        "fold_s": 0.001,
        "peak_rss_mb": 40.0,
        "cal_s": metrics.REF_CAL_S,  # a pass at the reference speed
        "sim": {"elapsed_us": elapsed_us, "latency_p99_us": 9.0, "throughput_rps": 3.0},
        "counters": {
            "steps": 400, "switches": 10, "events_scheduled": 50,
            "events_batched": 20, "steps_replayed": 100, "recordings": 4,
            "record_failures": 1, "syscalls": 300, "signals": 7,
            "messages": 200, "epoll_ready": 30, "epoll_stale": 10,
            "mutex_contentions": 5, "pool_hits": 3, "pool_misses": 1,
            "checks": 0,
        },
    }


def test_per_op_divides_by_completed_ops():
    assert metrics.per_op(120.0, 40) == 3.0
    with pytest.raises(ValueError):
        metrics.per_op(1.0, 0)


def test_share_of_nothing_is_zero():
    assert metrics.share(3, 4) == 0.75
    assert metrics.share(0, 0) == 0.0


def test_end_to_end_reports_medians_normalized_per_op():
    passes = [_pass(host_s=s) for s in (1.0, 3.0, 2.0)]
    e2e = metrics.end_to_end(passes, passes, attempted=300, failed=0)
    assert e2e["host_s"] == 2.0
    assert e2e["host_us_per_op"] == pytest.approx(2.0 / 100 * 1e6)
    assert e2e["setup_s"] == 0.2
    assert e2e["completed_share"] == 1.0


def test_host_times_are_rescaled_to_the_reference_speed():
    slow = _pass(host_s=4.0)
    slow["cal_s"] = 2 * metrics.REF_CAL_S  # the host ran at half speed
    assert metrics.at_ref(slow, slow["host_s"]) == pytest.approx(2.0)
    e2e = metrics.end_to_end([slow], [slow], attempted=100, failed=0)
    assert e2e["host_s"] == pytest.approx(2.0)
    assert e2e["setup_s"] == pytest.approx(0.1)


def test_every_op_of_a_failing_pass_fails():
    passes = [
        _pass(),
        _pass(),
        _pass(problems=["replies 99 != 100"]),  # its own check failed
        _pass(elapsed_us=501.0),  # simulated result diverged
        {"exit": 1, "problems": ["Traceback ..."]},  # crashed
        {"exit": None, "problems": ["pass timed out"]},
    ]
    attempted, failed = metrics.account(passes, attempted_per_pass=100)
    assert (attempted, failed) == (600, 400)
    assert metrics.agreeing(passes) == passes[:2]
    e2e = metrics.end_to_end(passes[:2], passes[:2], attempted, failed)
    assert e2e["completed_share"] == pytest.approx(200 / 600)


def test_a_pass_short_of_its_ops_fails_the_rest():
    attempted, failed = metrics.account([_pass(ops=90)], attempted_per_pass=100)
    assert (attempted, failed) == (100, 10)


def test_per_layer_normalizes_counts_and_self_times():
    untraced = [_pass(host_s=2.0), _pass(host_s=2.0)]
    traced = []
    for scale in (1.0, 3.0, 2.0):
        p = _pass(host_s=4.0 * scale, traced=True)
        p["layers_s"] = {"unix.net": 0.01 * scale}
        p["unattributed_s"] = 0.001
        traced.append(p)
    layer = metrics.per_layer(untraced, traced)
    assert layer["core.runtime.steps_per_op"] == 4.0
    assert layer["sim.events.batched_share"] == 0.4
    assert layer["sim.segments.record_fail_share"] == 0.25
    assert layer["unix.net.epoll_stale_share"] == 0.25
    assert layer["core.lib.pool_hit_share"] == 0.75
    assert layer["unix.net.self_us_per_op"] == pytest.approx(200.0)
    assert layer["check.self_us_per_op"] == 0.0  # layer never ran
    assert layer["unattributed.self_us_per_op"] == pytest.approx(10.0)
    assert layer["trace.overhead_share"] == pytest.approx(3.0)
    assert layer["sim.elapsed_us"] == 500.0
    assert set(layer) == set(metrics.PER_LAYER)


def test_metric_names_and_units_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, (unit, better, definition) in table.items():
            assert metrics.NAME.match(name), name
            assert all(c.isalnum() or c in "_/%.-" for c in unit), unit
            assert len(unit) <= 16 and better in ("higher", "lower")
            assert definition


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == {n: (u, b) for n, (u, b, _) in table.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
