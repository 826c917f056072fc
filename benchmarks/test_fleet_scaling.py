"""Fleet scaling: parallel + snapshot sweeps vs sequential, wall clock.

Marked ``fleet`` (excluded from tier-1; run directly)::

    PYTHONPATH=src python -m pytest benchmarks/test_fleet_scaling.py -m fleet

The sweep itself lives in :func:`repro.bench.suites.run_fleet` (shared
with ``python -m repro.bench run --suite fleet``); this module runs
it, saves its schema records (``bench-records/fleet.json``, the
artifact CI uploads and gates on), and asserts the scaling shapes on
them.  Two sweeps:

- **DFS exploration** of a deep workload (``signal_storm`` at scale 8:
  trail ~1600 choice points spread across the whole run).  The speedup
  here is *algorithmic*, not parallel: prefix checkpoints let each DFS
  child resume from a forked snapshot of its parent's world instead of
  replaying the shared prefix from scratch, cutting simulated steps by
  an order of magnitude -- which is why the ≥2x bar holds even on a
  single-core host.
- **Scenario compare grid** (architectures x arrivals x pool sizes).
  Cells are independent worlds, so this one is pure parallel fan-out;
  its wall-clock gain is bounded by the host's core count, and the ≥2x
  bar applies only when the host has ≥4 cores.

Both sweeps assert the determinism contract first -- parallel output
equal to sequential, byte for byte -- because a fast wrong answer is
worthless.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from benchmarks.conftest import record_row
from repro.bench.schema import SuiteResult
from repro.bench.suites import run_fleet

pytestmark = pytest.mark.fleet

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "bench-records" / "fleet.json"

CORES = os.cpu_count() or 1


def test_fleet_scaling_writes_records():
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
        pytest.skip("fleet benchmarks need fork")

    result = run_fleet(max_runs=40, rounds=800, grid=True, grid_repeat=3)
    result.save(RECORDS)
    dfs = record_row(result, "dfs")
    grid = record_row(result, "compare_grid")

    # Determinism before speed: snapshot and parallel runs are the
    # same exploration as sequential, byte for byte.
    assert dfs["reports_identical"] == 1
    assert grid["reports_identical"] == 1

    # Snapshots must save real simulated work, not just wall clock.
    for phase in ("snapshot", "jobs4"):
        stats = record_row(result, "dfs", phase=phase)
        assert stats["snapshot_hits"] > 0
        assert stats["steps_executed"] < stats["steps_full"]
    sequential = record_row(result, "dfs", phase="sequential")
    assert sequential["steps_executed"] == sequential["steps_full"]

    assert dfs["speedup_jobs4"] >= 2.0, (
        "DFS jobs=4 speedup %.2fx < 2x (seq %.2fs, par %.2fs)"
        % (dfs["speedup_jobs4"], dfs["sequential_s"], dfs["jobs4_s"])
    )

    if CORES >= 4:
        # Fan-out gain needs cores to fan out onto.
        assert grid["speedup_jobs4"] >= 2.0, (
            "grid jobs=4 speedup %.2fx < 2x on %d cores"
            % (grid["speedup_jobs4"], CORES)
        )
    else:
        # With fewer cores than jobs the pool caps itself (down to the
        # in-process loop on one core), so the parallel request must
        # cost no more than sequential plus measurement jitter.
        assert grid["jobs4_s"] < grid["sequential_s"] * 1.15

    assert SuiteResult.load(RECORDS).to_dict() == result.to_dict()
    assert result.by_key()[("dfs", "schedules_explored", "{}")].direction \
        == "exact"
