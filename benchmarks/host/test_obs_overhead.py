"""Observability overhead bounds (wall-clock, ``host``-marked).

Two claims are checked here, matching the observability layer's
contract:

1. **Disabled is free (<= 5% wall-clock).**  With ``obs=None`` (the
   default) the only additions to the hot path are ``is not None``
   guards, so fresh throughput must stay within 5% of the newest
   archived host baseline (``benchmarks/history/``; same machine, same
   scale) -- and the virtual-clock results must match it *exactly*.

2. **Enabled never moves virtual time.**  A fully-instrumented run
   (metrics + profiler + tracer) must produce bit-identical
   ``simulated_us``; only host wall-clock may differ.

Like the rest of ``benchmarks/host`` these are excluded from tier-1
(wall-clock measurements are noisy); run them directly with::

    PYTHONPATH=src python -m pytest benchmarks/host -m host
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record_row
from repro.bench import workloads
from repro.bench.archive import DEFAULT_HISTORY, latest_result
from repro.bench.suites import run_host, standard_workloads
from repro.debug.trace import Tracer
from repro.obs import Observability

pytestmark = pytest.mark.host

#: The acceptance bound on the disabled path.
MAX_DISABLED_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def baseline():
    result = latest_result(DEFAULT_HISTORY, "host")
    assert result is not None, "no archived host baseline"
    return result


def test_disabled_overhead_within_bound(baseline):
    """Fresh disabled-path throughput vs. the archived baseline."""
    fresh = run_host(
        scale=baseline.config["scale"],
        repeat=max(baseline.config["repeat"], 3),
        model=baseline.config["model"],
    )
    names = {r.workload for r in baseline.records}
    assert {r.workload for r in fresh.records} == names
    for name in sorted(names):
        r, prior = record_row(fresh, name), record_row(baseline, name)
        # Determinism oracle first: if virtual time moved, the numbers
        # are not comparable and something far worse than overhead broke.
        assert r["simulated_us"] == prior["simulated_us"], (
            "%s: simulated time diverged from the archived baseline"
            % name
        )
        floor = prior["steps_per_sec"] * (1.0 - MAX_DISABLED_OVERHEAD)
        assert r["steps_per_sec"] >= floor, (
            "%s: disabled-path throughput %0.0f steps/s fell below "
            "%0.0f (baseline %0.0f minus the %d%% bound)"
            % (
                name,
                r["steps_per_sec"],
                floor,
                prior["steps_per_sec"],
                int(MAX_DISABLED_OVERHEAD * 100),
            )
        )


def _run_once(factory, priority, obs=None):
    main_fn = factory()
    start = time.perf_counter()
    stats = workloads.run_workload(main_fn, priority=priority, obs=obs)
    wall = time.perf_counter() - start
    return stats["elapsed_us"], wall


def test_enabled_run_is_virtually_identical():
    """Full instrumentation on: simulated time must not move at all."""
    for name, spec in standard_workloads(scale=2).items():
        bare_us, _ = _run_once(spec["factory"], spec["priority"])
        obs = Observability(trace=Tracer())
        obs_us, _ = _run_once(spec["factory"], spec["priority"], obs=obs)
        assert obs_us == bare_us, (
            "%s: observability moved virtual time (%r != %r)"
            % (name, obs_us, bare_us)
        )
        # The profiler accounted for every cycle of the run.
        profiler = obs.profiler
        assert profiler.total_cycles == profiler.attributed_span()


def test_enabled_overhead_is_reported():
    """Informational: print the enabled-path wall-clock cost (no bound
    is asserted -- full tracing is allowed to cost wall time)."""
    rows = []
    for name, spec in standard_workloads(scale=2).items():
        _, bare_wall = _run_once(spec["factory"], spec["priority"])
        _, obs_wall = _run_once(
            spec["factory"], spec["priority"],
            obs=Observability(trace=Tracer()),
        )
        rows.append((name, bare_wall, obs_wall, obs_wall / bare_wall))
    for name, bare, instrumented, ratio in rows:
        print(
            "%-18s bare=%.4fs observed=%.4fs ratio=%.2fx"
            % (name, bare, instrumented, ratio)
        )
