"""The SMP suite: the lock-zoo crossover, measured and archived.

Run with ``-m smp``::

    PYTHONPATH=src python -m pytest benchmarks -m smp -q

Asserts the scalability story the lock literature promises and this
machine model must reproduce:

- at 1-2 CPUs every algorithm is within a whisker of every other --
  the simple test-and-set is competitive;
- by 16-64 CPUs TAS has collapsed under line-bouncing (its cost grows
  with the CPU count) while ticket and MCS stay flat;
- the whole sweep is byte-identical run to run (single-seed worlds,
  per-CPU forked streams).

The final test runs the suite proper (:func:`repro.bench.suites.run_smp`,
shared with ``python -m repro.bench run --suite smp``) and writes the
schema records CI uploads and gates on (``bench-records/smp.json``).
"""

from pathlib import Path

import pytest

from repro.locks.workload import lock_storm_smp, run_zoo

pytestmark = pytest.mark.smp

RECORDS = Path(__file__).resolve().parent.parent / "bench-records" / "smp.json"


@pytest.fixture(scope="module")
def zoo():
    rows = run_zoo()
    return {(r["algo"], r["ncpus"]): r for r in rows}


def cyc(zoo, algo, ncpus):
    return zoo[(algo, ncpus)]["cycles_per_acquisition"]


def test_everyone_is_competitive_alone(zoo):
    """At 1 CPU the lock algorithm barely matters: all five are within
    a few percent (pure instruction-count differences, no contention)."""
    alone = [cyc(zoo, a, 1) for a in ("tas", "ttas", "ticket", "mcs",
                                      "hybrid")]
    assert max(alone) < 1.05 * min(alone)
    # ...and the simplest algorithm is the cheapest of all.
    assert cyc(zoo, "tas", 1) == min(alone)


def test_tas_collapses_under_contention(zoo):
    """TAS cost climbs monotonically with CPU count (past 2 CPUs,
    where think-time overlap still pays for the first contention) and
    ends up an order of magnitude off the uncontended baseline."""
    series = [cyc(zoo, "tas", n) for n in (2, 4, 16, 64)]
    assert series == sorted(series)
    assert series[-1] > 5 * cyc(zoo, "tas", 1)


def test_queue_locks_stay_flat(zoo):
    """Ticket and MCS cost at 64 CPUs stays within ~2x of 4 CPUs --
    waiters spin on private or shared-read lines, not the lock word."""
    for algo in ("ticket", "mcs"):
        assert cyc(zoo, algo, 64) < 2 * cyc(zoo, algo, 4)


def test_crossover_at_scale(zoo):
    """The headline: by 16 CPUs the queue locks beat TAS, and by 64
    they beat it by a wide margin; TTAS sits in between."""
    for n in (16, 64):
        assert cyc(zoo, "ticket", n) < cyc(zoo, "tas", n)
        assert cyc(zoo, "mcs", n) < cyc(zoo, "tas", n)
        assert cyc(zoo, "ttas", n) < cyc(zoo, "tas", n)
    assert cyc(zoo, "tas", 64) > 5 * cyc(zoo, "ticket", 64)
    assert cyc(zoo, "tas", 64) > 5 * cyc(zoo, "mcs", 64)


def test_ttas_beats_tas_but_loses_to_queues_at_scale(zoo):
    assert cyc(zoo, "ttas", 64) < cyc(zoo, "tas", 64)
    assert cyc(zoo, "ticket", 64) < cyc(zoo, "ttas", 64)


def test_hybrid_tracks_the_better_regime(zoo):
    """The hybrid pays TTAS prices alone and queue prices crowded --
    never collapsing the way pure TAS does."""
    assert cyc(zoo, "hybrid", 1) < 1.05 * cyc(zoo, "tas", 1)
    assert cyc(zoo, "hybrid", 64) < cyc(zoo, "ttas", 64) * 1.2
    assert cyc(zoo, "hybrid", 64) < cyc(zoo, "tas", 64) / 3


def test_bounces_explain_the_collapse(zoo):
    """The mechanism, not just the outcome: TAS at 64 CPUs bounces the
    lock line far more than MCS, whose waiters spin locally."""
    tas = zoo[("tas", 64)]["counters"]["smp.line_bounces"]
    mcs = zoo[("mcs", 64)]["counters"]["smp.line_bounces"]
    assert tas > 3 * mcs


def test_sweep_is_byte_identical():
    one = lock_storm_smp("ttas", ncpus=16, acquisitions=10)
    two = lock_storm_smp("ttas", ncpus=16, acquisitions=10)
    assert one == two


def test_suite_writes_schema_records():
    from benchmarks.conftest import record_row
    from repro.bench.schema import SuiteResult
    from repro.bench.suites import run_smp

    result = run_smp()
    result.save(RECORDS)
    assert {r.workload for r in result.records if "model" in r.params} == {
        "tas", "ttas", "ticket", "mcs", "hybrid"
    }
    ipi = record_row(result, "ipi_signal_storm", ncpus=2, rounds=40)
    assert ipi["ipis_delivered"] > 0
    assert ipi["ipis_delivered"] == ipi["ipi_posts"]

    assert SuiteResult.load(RECORDS).to_dict() == result.to_dict()
    gated = [r for r in result.records if r.direction == "exact"]
    assert len(gated) >= 20  # every (algo, ncpus) cell gates its makespan
    assert any(r.workload == "ipi_signal_storm" for r in gated)
