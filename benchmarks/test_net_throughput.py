"""Server-architecture load sweeps: writes ``bench-records/net.json``.

Marked ``net`` (excluded from tier-1; run directly)::

    PYTHONPATH=src python -m pytest benchmarks/test_net_throughput.py -m net

The sweep itself lives in :func:`repro.bench.suites.run_net` (shared
with ``python -m repro.bench run --suite net``); this module runs it,
saves its schema records (``bench-records/net.json``, the artifact CI
uploads and gates on), and asserts the architecture shapes on them.

One virtual CPU serves an open-loop Poisson request stream at three
offered loads; every number is virtual-time and bit-deterministic.
The headline sweep disables the library's own TCB/stack cache
(``pool_size=0``) to isolate the *architecture* comparison: with cold
creates, thread-per-connection pays allocation plus zero-fill stack
faults per connection, and the worker pool amortises thread lifecycle
across connections -- the paper's create-caching argument restated at
the server level.  A second sweep re-enables the cache and shows the
gap narrow: ``pthread_create`` pre-caching is itself a thread pool,
one layer down.

After the architecture grid, the ``sf`` scale-factor fixtures push the
dispatcher architectures into the long-lived high-concurrency regime:
thousands to tens of thousands of concurrently connected clients,
think time far above the arrival window, per-sample normalized rows.

Shape assertions (the acceptance bar for this subsystem):

- at the highest client count the pooled server sustains at least 2x
  the throughput of thread-per-connection;
- the select dispatcher holds the best accept latency (connections
  never wait on thread lifecycle to be picked up);
- select beats epoll on the short-lived connection sweep (epoll_ctl
  per accept never amortizes over a single request) and epoll beats
  select on sf1 (the watched set is large and mostly idle, so the
  O(n) scan stops amortizing) -- the crossover, pinned from both
  sides;
- sf rows hold their full client count concurrently resident
  (``peak_clients == clients``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from benchmarks.conftest import record_row
from repro.bench.schema import SuiteResult
from repro.bench.suites import (
    NET_ARCHS as ARCHS,
    NET_CACHE_POOL_SIZE,
    NET_CLIENT_SWEEP as CLIENT_SWEEP,
    NET_SF_DEFAULT,
    NET_SF_FIXTURES,
    run_net,
    run_net_point,
    run_sf_point,
)

pytestmark = pytest.mark.net

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "bench-records" / "net.json"


@pytest.fixture(scope="module")
def sweep():
    """The full grid, computed once and saved as schema records."""
    result = run_net()
    result.save(RECORDS)
    return result


def _cell(result, arch, clients, sweep="cold"):
    """One grid cell's metrics, read through the record keys."""
    pool_size = 0 if sweep == "cold" else NET_CACHE_POOL_SIZE
    return record_row(result, arch, clients=clients, pool_size=pool_size,
                    sweep=sweep)


def _sf_row(result, sf, arch):
    return record_row(result, arch, sf=sf,
                    clients=NET_SF_FIXTURES[sf]["clients"], sweep="sf")


def test_pool_doubles_perconn_throughput_at_saturation(sweep):
    top = CLIENT_SWEEP[-1]
    pool = _cell(sweep, "pool", top)
    perconn = _cell(sweep, "perconn", top)
    ratio = pool["throughput_rps"] / perconn["throughput_rps"]
    assert ratio >= 2.0, (
        "pool %.1f rps vs perconn %.1f rps (ratio %.2f)"
        % (pool["throughput_rps"], perconn["throughput_rps"], ratio)
    )


def test_select_dispatcher_has_the_best_accept_latency(sweep):
    top = CLIENT_SWEEP[-1]
    rows = {a: _cell(sweep, a, top) for a in ARCHS}
    for other in ("perconn", "pool"):
        assert (
            rows["select"]["accept_wait_p99_us"]
            < rows[other]["accept_wait_p99_us"]
        ), "select should accept fastest at p99 (vs %s)" % other
        assert (
            rows["select"]["accept_wait_p50_us"]
            <= rows[other]["accept_wait_p50_us"]
        )


def test_create_cache_narrows_the_architecture_gap(sweep):
    """Re-enabling the TCB/stack cache is the paper's create-caching
    claim: perconn's per-connection thread create gets cheap, so the
    pool's advantage shrinks (but does not vanish -- syscalls and
    context switches still favour long-lived workers)."""
    top = CLIENT_SWEEP[-1]
    cold_ratio = (
        _cell(sweep, "pool", top)["throughput_rps"]
        / _cell(sweep, "perconn", top)["throughput_rps"]
    )
    warm_pool = _cell(sweep, "pool", top, "warm")
    warm_perconn = _cell(sweep, "perconn", top, "warm")
    warm_ratio = warm_pool["throughput_rps"] / warm_perconn["throughput_rps"]
    assert warm_ratio < cold_ratio
    assert warm_ratio > 1.0


def test_the_crossover_short_lived_connections_favour_select(sweep):
    """One request per connection: the per-accept ``epoll_ctl`` is pure
    overhead (it never amortizes), so select wins the open-loop sweep
    at every offered load."""
    for clients in CLIENT_SWEEP:
        select = _cell(sweep, "select", clients)
        epoll = _cell(sweep, "epoll", clients)
        assert select["throughput_rps"] > epoll["throughput_rps"], clients


def test_the_crossover_longlived_concurrency_favours_epoll(sweep):
    """sf1: 1000 clients stay connected for eight request rounds; the
    watched set is large and mostly idle, select's O(n) scan stops
    amortizing, and the one-time registration cost pays for itself."""
    select = _sf_row(sweep, "sf1", "select")
    epoll = _sf_row(sweep, "sf1", "epoll")
    assert epoll["throughput_rps"] >= select["throughput_rps"]
    assert epoll["latency_p50_us"] < select["latency_p50_us"]
    assert epoll["latency_p99_us"] < select["latency_p99_us"]


def test_sf_rows_hold_the_full_fleet_concurrently(sweep):
    for name in NET_SF_DEFAULT:
        fixture = NET_SF_FIXTURES[name]
        for arch in fixture["archs"]:
            row = _sf_row(sweep, name, arch)
            assert row["peak_clients"] == fixture["clients"]
            assert (
                row["replies"]
                == fixture["clients"] * fixture["requests_per_client"]
            )


def test_sweep_is_deterministic(sweep):
    """Re-running one grid point reproduces its records bit-for-bit."""
    again = run_net_point("pool", CLIENT_SWEEP[0], pool_size=0)
    by_key = sweep.by_key()
    assert again and all(by_key[r.key()] == r for r in again)


def test_records_file_round_trips(sweep):
    assert SuiteResult.load(RECORDS).to_dict() == sweep.to_dict()


@pytest.mark.skipif(
    not os.environ.get("REPRO_NET_SF100"),
    reason="opt-in (REPRO_NET_SF100=1): ~10^5 clients, ~10-15 s and ~150 MB",
)
def test_sf100_holds_a_hundred_thousand_clients_concurrently():
    """The headline scale point: one epoll dispatcher thread owning
    10^5 concurrently connected clients, every request answered."""
    row = {r.metric: r.value for r in run_sf_point("sf100", "epoll")}
    assert row["peak_clients"] == 100_000
    assert row["replies"] == 200_000
    assert row["throughput_rps"] > 0
    # Exact virtual-time oracle at 10^5 clients, where the event
    # horizon holds the most pending events.
    assert row["elapsed_us"] == 19650868.9


def test_every_cell_has_an_exact_elapsed_oracle(sweep):
    # One elapsed_us oracle per grid cell: cold + warm + sf rows.
    sf_cells = sum(
        len(NET_SF_FIXTURES[name]["archs"]) for name in NET_SF_DEFAULT
    )
    oracles = [r for r in sweep.records if r.metric == "elapsed_us"]
    assert len(oracles) == (
        len(ARCHS) * len(CLIENT_SWEEP) + len(ARCHS) + sf_cells
    )
    assert all(r.direction == "exact" for r in oracles)
    assert sweep.config["sf"] == sorted(NET_SF_DEFAULT)
