"""Server-under-load scenarios: build, run, and report in virtual time.

One scenario = one server architecture (:mod:`repro.net.servers`) under
one deterministic offered load (:mod:`repro.net.loadgen`) on one
machine model.  ``run_scenario`` constructs the runtime, attaches the
network stack, runs to completion, and folds the collectors into a
:class:`ScenarioReport` whose every number is derived from virtual time
and deterministic counters -- two runs with the same arguments render
byte-identical reports.

``build_main`` is split out so the schedule explorer can drive the same
program shape (:func:`repro.check.workloads` registers a pooled-server
workload built from it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.runtime import PthreadsRuntime
from repro.core.config import RuntimeConfig
from repro.fleet import FleetPool
from repro.net.loadgen import LoadGenerator
from repro.net.servers import Collector, build_server


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = int(round((q / 100.0) * (len(ordered) - 1)))
    return ordered[rank]


@dataclass
class ScenarioReport:
    """Everything the CLI prints and the benchmarks persist."""

    arch: str
    model: str
    seed: int
    clients: int
    requests_per_client: int
    workers: int
    arrival: str
    # -- outcomes --
    elapsed_us: float = 0.0
    requests_served: int = 0
    replies: int = 0
    refused: int = 0
    connections_served: int = 0
    throughput_rps: float = 0.0  # replies per *virtual* second
    latency_mean_us: float = 0.0
    latency_p50_us: float = 0.0
    latency_p99_us: float = 0.0
    accept_wait_p50_us: float = 0.0
    accept_wait_p99_us: float = 0.0
    accept_depth_max: int = 0
    queue_wait_p50_us: float = 0.0
    queue_wait_p99_us: float = 0.0
    syscalls: int = 0
    context_switches: int = 0
    backpressure_stalls: int = 0
    completions_sigio: int = 0
    completions_fc: int = 0
    peak_clients: int = 0  # high-water mark of concurrently open clients
    epoll_waits: int = 0
    epoll_wakeups: int = 0
    epoll_ctl_calls: int = 0
    epoll_ready_returned: int = 0
    epoll_stale_dropped: int = 0
    syscall_counts: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["syscall_counts"] = dict(self.syscall_counts)
        return out

    def render(self) -> str:
        lines = [
            "scenario: arch=%s model=%s seed=%d" % (self.arch, self.model, self.seed),
            "load: clients=%d requests/client=%d arrival=%s workers=%s"
            % (
                self.clients,
                self.requests_per_client,
                self.arrival,
                self.workers if self.arch == "pool" else "-",
            ),
            "elapsed            %12.1f us (virtual)" % self.elapsed_us,
            "requests served    %12d" % self.requests_served,
            "replies received   %12d" % self.replies,
            "connections        %12d (refused %d)"
            % (self.connections_served, self.refused),
            "throughput         %12.1f req/s (virtual)" % self.throughput_rps,
            "latency mean       %12.1f us" % self.latency_mean_us,
            "latency p50        %12.1f us" % self.latency_p50_us,
            "latency p99        %12.1f us" % self.latency_p99_us,
            "accept wait p50    %12.1f us" % self.accept_wait_p50_us,
            "accept wait p99    %12.1f us" % self.accept_wait_p99_us,
            "accept depth max   %12d" % self.accept_depth_max,
            "queue wait p50     %12.1f us" % self.queue_wait_p50_us,
            "queue wait p99     %12.1f us" % self.queue_wait_p99_us,
            "syscalls           %12d" % self.syscalls,
            "context switches   %12d" % self.context_switches,
            "backpressure stalls%12d" % self.backpressure_stalls,
            "completions        %12d sigio / %d first-class"
            % (self.completions_sigio, self.completions_fc),
            "peak clients       %12d" % self.peak_clients,
        ]
        if self.epoll_waits or self.epoll_ctl_calls:
            lines.append(
                "epoll              %12d waits / %d wakeups / %d ctl / "
                "%d ready / %d stale"
                % (
                    self.epoll_waits,
                    self.epoll_wakeups,
                    self.epoll_ctl_calls,
                    self.epoll_ready_returned,
                    self.epoll_stale_dropped,
                )
            )
        return "\n".join(lines)


def build_main(
    arch: str,
    collector: Collector,
    port: int = 80,
    clients: int = 8,
    requests_per_client: int = 2,
    workers: int = 4,
    backlog: Optional[int] = None,
    service_cycles: int = 400,
    req_bytes: int = 256,
    resp_bytes: int = 1024,
    arrival: str = "uniform",
    mean_gap_us: float = 40.0,
    burst: int = 8,
    think_us: float = 150.0,
    latency_us: float = 60.0,
):
    """A workload main factory: server + load on the caller's runtime.

    The returned generator attaches a network stack to its own runtime
    on first resume (construction costs zero cycles), binds the
    listener *before* scheduling any client arrival, runs the chosen
    architecture to completion, and closes the listener.  Suitable both
    for :func:`run_scenario` (which attaches the stack itself, with the
    scenario's latency/first-class options) and for the explorer's
    workload registry (stateless: every invocation builds fresh state).
    """

    def main(pt):
        rt = pt.runtime
        if rt.net is None:
            rt.add_net_stack(latency_us=latency_us)
        lfd = yield pt.socket()
        err = yield pt.bind(lfd, port)
        assert err == 0, err
        err = yield pt.listen(lfd, backlog if backlog is not None else clients)
        assert err == 0, err
        gen = LoadGenerator(
            rt.net,
            port,
            clients,
            requests_per_client=requests_per_client,
            req_bytes=req_bytes,
            arrival=arrival,
            mean_gap_us=mean_gap_us,
            burst=burst,
            think_us=think_us,
        )
        server_main = build_server(
            arch,
            lfd,
            clients,
            collector,
            workers=workers,
            service_cycles=service_cycles,
            resp_bytes=resp_bytes,
        )
        gen.start()  # listener is live; arrivals can never miss it
        server = yield pt.create(server_main, name="%s-server" % arch)
        yield pt.join(server)
        yield pt.close(lfd)

    return main


def run_scenario(
    arch: str = "pool",
    clients: int = 50,
    requests_per_client: int = 3,
    workers: int = 16,
    seed: int = 42,
    model: str = "sparc-ipx",
    port: int = 80,
    backlog: Optional[int] = None,
    service_cycles: int = 400,
    req_bytes: int = 256,
    resp_bytes: int = 1024,
    arrival: str = "poisson",
    mean_gap_us: float = 40.0,
    burst: int = 8,
    think_us: float = 150.0,
    latency_us: float = 60.0,
    first_class: Optional[bool] = None,
    pool_size: int = 64,
    obs: Optional[Any] = None,
) -> ScenarioReport:
    """Run one scenario to completion and fold the results.

    ``first_class`` selects the completion path: ``None`` (default)
    uses the Marsh & Scott channel for the single-dispatcher
    architectures (select and epoll) -- whose whole point is the
    fewest, cheapest wakeups -- and SIGIO (the paper's shipping
    design) for the thread-based ones.
    """
    if first_class is None:
        first_class = arch in ("select", "epoll")
    collector = Collector()
    rt = PthreadsRuntime(
        model=model,
        seed=seed,
        config=RuntimeConfig(pool_size=pool_size),
        obs=obs,
    )
    stack = rt.add_net_stack(latency_us=latency_us, first_class=first_class)
    main = build_main(
        arch,
        collector,
        port=port,
        clients=clients,
        requests_per_client=requests_per_client,
        workers=workers,
        backlog=backlog,
        service_cycles=service_cycles,
        req_bytes=req_bytes,
        resp_bytes=resp_bytes,
        arrival=arrival,
        mean_gap_us=mean_gap_us,
        burst=burst,
        think_us=think_us,
        latency_us=latency_us,
    )
    rt.main(main, priority=100)
    rt.run()
    engine = stack.resident

    report = ScenarioReport(
        arch=arch,
        model=model if isinstance(model, str) else getattr(model, "name", "?"),
        seed=seed,
        clients=clients,
        requests_per_client=requests_per_client,
        workers=workers,
        arrival=arrival,
    )
    report.elapsed_us = rt.world.now_us
    report.requests_served = collector.requests_served
    report.replies = engine.replies
    report.refused = engine.refused
    report.connections_served = collector.connections_served
    if report.elapsed_us > 0:
        report.throughput_rps = engine.replies / (report.elapsed_us / 1e6)
    lat = engine.latencies_us
    if lat:
        report.latency_mean_us = sum(lat) / len(lat)
        report.latency_p50_us = percentile(lat, 50)
        report.latency_p99_us = percentile(lat, 99)
    accept_waits_us = [rt.world.us(c) for c in stack.accept_waits]
    report.accept_wait_p50_us = percentile(accept_waits_us, 50)
    report.accept_wait_p99_us = percentile(accept_waits_us, 99)
    report.accept_depth_max = stack.accept_depth_max
    report.queue_wait_p50_us = percentile(collector.queue_waits_us, 50)
    report.queue_wait_p99_us = percentile(collector.queue_waits_us, 99)
    report.syscalls = rt.unix.total_syscalls
    report.context_switches = rt.dispatcher.context_switches
    report.backpressure_stalls = stack.backpressure_stalls
    report.completions_sigio = stack.sigio_completions
    report.completions_fc = stack.fc_completions
    report.peak_clients = engine.peak_active
    report.epoll_waits = stack.epoll_waits
    report.epoll_wakeups = stack.epoll_wakeups
    report.epoll_ctl_calls = stack.epoll_ctl_calls
    report.epoll_ready_returned = stack.epoll_ready_returned
    report.epoll_stale_dropped = stack.epoll_stale_dropped
    report.syscall_counts = dict(rt.unix.syscall_counts)

    if obs is not None:
        hist = obs.registry.histogram(
            "net.request_latency_us",
            help="end-to-end request latency (us)",
            buckets=(100, 250, 500, 1000, 2500, 5000, 10000, 25000),
        )
        for sample in lat:
            hist.observe(sample)
        obs.harvest()
    return report


def _scenario_task(params: Dict[str, Any]) -> ScenarioReport:
    """Run one comparison cell (module-level so workers can share it)."""
    return run_scenario(**params)


def compare_scenarios(
    cells: Sequence[Dict[str, Any]],
    jobs: int = 1,
    stats: Optional[Any] = None,
    oversubscribe: bool = False,
) -> List[ScenarioReport]:
    """Run a grid of scenarios; reports come back in cell order.

    Each cell is a ``run_scenario`` keyword dict.  Cells are fully
    independent simulated worlds, so ``jobs > 1`` fans them across a
    :class:`~repro.fleet.FleetPool` (capped at the host's core count
    unless ``oversubscribe``); because results are merged by cell
    index, the returned list -- and anything rendered from it -- is
    byte-identical to running the cells one by one.
    """
    with FleetPool(
        _scenario_task, jobs=jobs, stats=stats, oversubscribe=oversubscribe
    ) as pool:
        return list(pool.imap(list(cells)))
