"""Smoke tests for the host-throughput suite (wall-clock, not virtual).

Marked ``host``: unlike every other benchmark in ``benchmarks/``,
these measure *host* wall-clock speed, so they are noisy by nature and
excluded from tier-1 runs (``testpaths`` only collects ``tests/``; and
``pytest benchmarks -m "not host"`` skips them explicitly).  Run them
directly with::

    PYTHONPATH=src python -m pytest benchmarks/host -m host

They deliberately assert only what is stable on any machine: the suite
runs, every workload makes progress, and the virtual-clock results are
bit-identical across repeats (the determinism oracle that makes host
optimizations admissible at all).  Throughput numbers belong in the
archived records (``python -m repro.bench run --suite host``), not in
assertions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_row
from repro.bench.suites import run_host, standard_workloads

pytestmark = pytest.mark.host


def test_suite_runs_and_is_deterministic():
    # run_host itself raises if simulated_us differs across repeats.
    result = run_host(scale=1, repeat=2)
    assert {r.workload for r in result.records} == set(standard_workloads(1))
    for name in standard_workloads(1):
        row = record_row(result, name)
        assert row["steps"] > 0
        assert row["simulated_us"] > 0
        assert row["steps_per_sec"] > 0


def _simulated_us(model):
    result = run_host(scale=1, repeat=1, model=model)
    return {
        r.workload: r.value for r in result.records
        if r.metric == "simulated_us"
    }


def test_both_models_simulate_different_virtual_time():
    # Sanity: the suite actually exercises the cost model (the slower
    # SPARC 1+ must accumulate more virtual microseconds than the IPX).
    ipx = _simulated_us("sparc-ipx")
    one = _simulated_us("sparc-1+")
    for name in ipx:
        assert one[name] > ipx[name]
