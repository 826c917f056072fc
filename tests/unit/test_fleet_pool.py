"""FleetPool: ordered fan-out, graceful degradation, honest stats.

The pool's one contract is that ``imap`` yields results in payload
order whatever the workers do -- that ordering is what makes every
parallel sweep byte-identical to its sequential twin -- and that a
worker failure costs a fallback, never a result.
"""

import os

import pytest

from repro.fleet import FleetPool, FleetStats


def test_inprocess_when_jobs_is_one():
    stats = FleetStats()
    with FleetPool(lambda x: x * 2, jobs=1, stats=stats) as pool:
        assert list(pool.imap([3, 1, 2])) == [6, 2, 4]
    assert stats.backend == "inproc"
    assert stats.jobs == 1
    assert stats.tasks == 3
    assert stats.fallbacks == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pool_results_arrive_in_payload_order():
    # Payloads sized so later tasks finish first if order were by
    # completion; the iterator must still yield payload order.
    def work(n):
        total = 0
        for i in range((5 - n) * 20_000):
            total += i
        return (n, total >= 0)

    stats = FleetStats()
    with FleetPool(
        work, jobs=4, stats=stats, oversubscribe=True
    ) as pool:
        results = list(pool.imap([0, 1, 2, 3, 4]))
    assert [n for n, __ in results] == [0, 1, 2, 3, 4]
    assert stats.backend == "pool"
    assert stats.jobs == 4
    assert stats.tasks == 5


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_worker_death_falls_back_in_process():
    # The task fails only on a worker (pid differs after fork); the
    # in-process rerun succeeds, so the sweep loses nothing.
    parent = os.getpid()

    def work(n):
        if n == 2 and os.getpid() != parent:
            raise RuntimeError("worker-only failure")
        return n * n

    stats = FleetStats()
    with FleetPool(
        work, jobs=2, stats=stats, oversubscribe=True
    ) as pool:
        assert list(pool.imap(range(5))) == [0, 1, 4, 9, 16]
    assert stats.fallbacks == 1


def test_jobs_capped_to_host_cores(monkeypatch):
    """Workers beyond the core count only add fork/IPC overhead, so a
    saturated host degrades to the in-process loop (identical output:
    the ordering contract does not depend on the backend)."""
    from repro.fleet import pool as pool_mod

    monkeypatch.setattr(
        pool_mod.multiprocessing, "cpu_count", lambda: 1
    )
    stats = FleetStats()
    with FleetPool(lambda x: x * 2, jobs=4, stats=stats) as pool:
        assert list(pool.imap([3, 1, 2])) == [6, 2, 4]
    assert stats.backend == "inproc"
    assert stats.jobs == 1


def test_stats_steps_saved_property():
    stats = FleetStats(steps_executed=40, steps_full=100)
    assert stats.steps_saved == 60
