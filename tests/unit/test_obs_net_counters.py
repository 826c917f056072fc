"""Observability harvest of the networking and pool counters.

The harvest is read-only bookkeeping: it must expose the kernel socket
counters and the TCB/stack-cache counters in the metrics registry, and
the scenario layer must fold its latency histogram in alongside them.
"""

from repro.net.scenario import run_scenario
from repro.obs import Observability


def _observed_scenario(**kwargs):
    obs = Observability()
    report = run_scenario(
        arch="pool",
        clients=5,
        requests_per_client=2,
        workers=2,
        seed=9,
        arrival="uniform",
        mean_gap_us=70.0,
        think_us=50.0,
        service_cycles=250,
        latency_us=40.0,
        obs=obs,
        **kwargs,
    )
    return report, obs.registry.snapshot()


def test_harvest_exposes_net_counters():
    report, snap = _observed_scenario()
    assert snap["net.connections_opened"] == 5
    assert snap["net.connections_refused"] == 0
    assert snap["net.messages_delivered"] > 0
    assert snap["net.bytes_delivered"] > 0
    assert snap["net.eof_delivered"] >= 5  # one per orderly close
    assert snap["net.completions_sigio"] == report.completions_sigio
    assert snap["net.completions_first_class"] == report.completions_fc
    assert snap["net.backpressure_stalls"] == report.backpressure_stalls
    assert snap["net.select_calls"] >= 0


def test_harvest_exposes_resident_client_counters():
    report, snap = _observed_scenario()
    assert snap["loadgen.resident.spawned"] == 5
    assert snap["loadgen.resident.completed"] == 5
    assert snap["loadgen.resident.active"] == 0  # all closed at exit
    assert snap["loadgen.resident.peak_active"] == report.peak_clients > 0
    assert snap["loadgen.resident.replies"] == report.replies
    assert snap["loadgen.resident.refused"] == report.refused


def test_harvest_exposes_epoll_counters():
    # The pool arch never touches epoll: present, all zero.
    __, snap = _observed_scenario()
    assert snap["net.epoll.instances"] == 0
    assert snap["net.epoll.waits"] == 0
    # The epoll arch drives every family of counter.
    obs = Observability()
    report = run_scenario(
        arch="epoll", clients=5, requests_per_client=2, seed=9,
        arrival="uniform", mean_gap_us=70.0, think_us=50.0,
        service_cycles=250, latency_us=40.0, obs=obs,
    )
    snap = obs.registry.snapshot()
    assert snap["net.epoll.instances"] == 1
    assert snap["net.epoll.waits"] == report.epoll_waits > 0
    assert snap["net.epoll.wakeups"] == report.epoll_wakeups
    assert snap["net.epoll.ctl_calls"] == report.epoll_ctl_calls >= 6
    assert snap["net.epoll.ready_returned"] == report.epoll_ready_returned
    assert snap["net.epoll.stale_dropped"] == report.epoll_stale_dropped
    assert snap["net.epoll.edges"] > 0


def test_harvest_exposes_event_batch_counters():
    __, snap = _observed_scenario()
    assert "exec.events.batch_pops" in snap
    assert "exec.events.batched_events" in snap
    assert snap["exec.events.max_batch"] >= 0


def test_harvest_exposes_heap_schedules():
    """A fixed-latency link schedules every kind in time order, so no
    event takes the heap path."""
    __, snap = _observed_scenario()
    assert snap["exec.events.heap_schedules"] == 0


def test_harvest_exposes_pool_counters():
    __, snap = _observed_scenario()
    # The acceptor plus two workers all came from the cache, and every
    # reclaimed thread went back.
    assert snap["pool.hits"] > 0
    assert snap["pool.misses"] == 0
    assert snap["pool.returns"] > 0


def test_pool_misses_surface_when_the_cache_is_disabled():
    __, snap = _observed_scenario(pool_size=0)
    assert snap["pool.hits"] == 0
    assert snap["pool.misses"] > 0


def test_scenario_folds_request_latencies_into_a_histogram():
    report, snap = _observed_scenario()
    hist = snap["net.request_latency_us"]
    assert hist["count"] == report.replies
    assert hist["max"] >= hist["mean"] > 0
