"""The benchmark's four workloads and the probe that times one pass.

Each workload drives the simulator only through a public entry point
(``run_scenario``, ``PthreadsRuntime.main``/``run`` over
``repro.bench.workloads``, ``Explorer.explore_random``), then checks the
program's outputs.  Inputs come from the seed alone: the same seed gives
the same arrivals and explored schedules, so every simulated result is
an exact oracle across passes.

Nothing here imports ``repro`` at module level, so the parent process
can read the workload table without loading the simulator.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

#: The ROADMAP's sf10 fixture: 10,000 kernel-resident clients, 4 requests
#: each over a long-lived connection, 200 ms think time, epoll dispatcher
#: with first-class completions (``run_scenario``'s default for epoll).
NET_SF10 = dict(
    arch="epoll",
    clients=10_000,
    requests_per_client=4,
    mean_gap_us=15.0,
    backlog=10_000,
    arrival="poisson",
    think_us=200_000.0,
    service_cycles=100,
    req_bytes=256,
    resp_bytes=1024,
    latency_us=60.0,
)

#: Open-loop connection churn: connect, one request, close.  A 600 us mean
#: gap keeps the pool server below capacity (400 us lets the backlog grow).
NET_CHURN = dict(
    arch="pool",
    clients=4_000,
    requests_per_client=1,
    workers=16,
    mean_gap_us=600.0,
    arrival="poisson",
    think_us=0.0,
    service_cycles=300,
    latency_us=60.0,
    first_class=False,  # SIGIO completions, the paper's shipping path
    pool_size=64,  # TCB/stack cache on
)

#: The pipeline's shape is fixed: its host cost swings 1.7x with the
#: per-item work size through the segment compiler (at 535 or 560
#: cycles nearly every site certifies once; at 500 or 546 about one
#: recording per eight items is retried and fails), so a seeded work
#: size would make the seed, not the code, set the cost.
PIPELINE_STAGES = 4
PIPELINE_ITEMS = 30_000
PIPELINE_WORK_CYCLES = 500
CHECK_RUNS = 160


@dataclass
class Outcome:
    """What one pass produced: ops completed, failed checks, exact results."""

    ops: int
    problems: List[str]
    sim: Dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ops one pass attempts (replies, items or schedules)
    attempted: int
    #: set-up ends after the arrivals are compiled (``LoadGenerator.start``)
    #: rather than at the first simulated step
    setup_ends_at_start: bool
    run: Callable[[int, "Probe"], Outcome]


# ---------------------------------------------------------------------------
# the probe: timestamps taken around two entry points, never inside a step
# ---------------------------------------------------------------------------


def harvest(rt: Any) -> Dict[str, int]:
    """The program's own counters for one finished runtime."""
    events = rt.world.events
    segments = rt._segments.counters() if rt._segments is not None else {}
    net = rt.net
    return {
        "steps": rt.steps,
        "switches": rt.dispatcher.context_switches,
        "events_scheduled": events._seq,
        "events_batched": events.batched_events,
        "steps_replayed": segments.get("exec.segment.steps_replayed", 0),
        "recordings": segments.get("exec.segment.recordings", 0),
        "record_failures": segments.get("exec.segment.record_failures", 0),
        "syscalls": rt.unix.total_syscalls,
        "signals": rt.proc.signals.delivered,
        "messages": net.messages_delivered if net is not None else 0,
        "epoll_ready": net.epoll_ready_returned if net is not None else 0,
        "epoll_stale": net.epoll_stale_dropped if net is not None else 0,
        "mutex_contentions": rt.mutex_ops.contentions,
        "pool_hits": rt.pool.hits,
        "pool_misses": rt.pool.misses,
        "checks": rt.check.checks_run if rt.check is not None else 0,
    }


class Probe:
    """Times one pass from outside ``PthreadsRuntime.run`` and
    ``LoadGenerator.start``.

    - set-up: process start (``t0_wall``, taken by the parent just before
      it spawned this process) to the first simulated step, plus the
      first arrival compile;
    - host: first simulated step to the entry point's return (``done``),
      less that arrival compile;
    - fold: last ``run`` return to the entry point's return.

    ``on_setup`` is called once set-up ends (a set-up-only pass reports
    and exits there).  ``before_window`` is called between the end of
    set-up and the start of the timed window, so neither counts it.
    ``recorder`` (a ``spans.SpanRecorder``) is reset at the first
    simulated step, so its spans cover the timed window only.  Each
    runtime's counters are harvested as its ``run`` returns.
    """

    def __init__(
        self,
        t0_wall: float,
        setup_ends_at_start: bool,
        on_setup: Optional[Callable[["Probe"], None]] = None,
        recorder: Any = None,
        before_window: Optional[Callable[[], None]] = None,
    ) -> None:
        self.t0_wall = t0_wall
        self.setup_ends_at_start = setup_ends_at_start
        self.on_setup = on_setup
        self.recorder = recorder
        self.before_window = before_window
        self.setup_wall: Optional[float] = None
        self.first_run: Optional[float] = None
        self.start_s: Optional[float] = None
        self.run_end: Optional[float] = None
        self.end: Optional[float] = None
        self.counters: Counter = Counter()
        self.elapsed_us: List[float] = []  # per runtime, in run order

    @property
    def setup_s(self) -> float:
        return self.setup_wall + (self.start_s or 0.0)

    @property
    def host_s(self) -> float:
        return self.end - self.first_run - (self.start_s or 0.0)

    @property
    def fold_s(self) -> float:
        return self.end - self.run_end

    def done(self) -> None:
        """Call as soon as the workload's entry point returns."""
        self.end = time.perf_counter()

    def _setup_over(self) -> None:
        if self.on_setup is not None:
            self.on_setup(self)

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        from repro.core.runtime import PthreadsRuntime
        from repro.net.loadgen import LoadGenerator

        run = PthreadsRuntime.run
        start = LoadGenerator.start
        probe = self

        def timed_run(rt, *args, **kwargs):
            if probe.first_run is None:
                probe.setup_wall = time.time() - probe.t0_wall
                if not probe.setup_ends_at_start:
                    probe._setup_over()
                if probe.before_window is not None:
                    probe.before_window()
                probe.first_run = time.perf_counter()
                if probe.recorder is not None:
                    probe.recorder.reset()
            try:
                return run(rt, *args, **kwargs)
            finally:
                probe.counters.update(harvest(rt))
                probe.elapsed_us.append(rt.world.now_us)
                probe.run_end = time.perf_counter()

        def timed_start(gen):
            began = time.perf_counter()
            try:
                return start(gen)
            finally:
                if probe.start_s is None:
                    probe.start_s = time.perf_counter() - began
                    if probe.setup_ends_at_start:
                        probe._setup_over()

        PthreadsRuntime.run = timed_run
        LoadGenerator.start = timed_start
        try:
            yield self
        finally:
            PthreadsRuntime.run = run
            LoadGenerator.start = start


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _net(params: Dict[str, Any], peak_is_all: bool):
    expected = params["clients"] * params["requests_per_client"]

    def run(seed: int, probe: Probe) -> Outcome:
        from repro.net.scenario import run_scenario

        report = run_scenario(seed=seed, **params)
        probe.done()
        problems = []
        if report.replies != expected:
            problems.append("replies %d != %d" % (report.replies, expected))
        if report.refused:
            problems.append("refused %d connections" % report.refused)
        if peak_is_all and report.peak_clients != params["clients"]:
            problems.append(
                "peak clients %d != %d" % (report.peak_clients, params["clients"])
            )
        return Outcome(
            ops=report.replies,
            problems=problems,
            sim={
                "elapsed_us": report.elapsed_us,
                "latency_p99_us": report.latency_p99_us,
                "throughput_rps": report.throughput_rps,
            },
        )

    return run


class _StageQueue(list):
    """A pipeline queue that stamps each item in and out (virtual cycles)."""

    __slots__ = ("_clock", "entered", "left")

    def __init__(self, clock: Any) -> None:
        super().__init__()
        self._clock = clock
        self.entered: List[int] = []
        self.left: List[tuple] = []

    def append(self, item: Any) -> None:
        self.entered.append(self._clock.cycles)
        super().append(item)

    def pop(self, index: int = -1) -> Any:
        item = super().pop(index)
        self.left.append((item, self._clock.cycles))
        return item


def _stamp_stage_queues(rt: Any, stages: int) -> Dict[int, _StageQueue]:
    """Swap the inboxes of stage 1 and of the last stage for
    :class:`_StageQueue`s: the checks read only those two.

    The swap happens in the ``create`` call that hands each queue to its
    two stages, so the simulated program and its ops are unchanged.
    Returns stage index -> its stamped inbox.
    """
    stamped_stages = (1, stages - 1)
    create = rt.registry["create"]
    swapped: Dict[int, _StageQueue] = {}
    inboxes: Dict[int, _StageQueue] = {}

    def stamped(queue: list) -> _StageQueue:
        if id(queue) not in swapped:
            swapped[id(queue)] = _StageQueue(rt.world.clock)
        return swapped[id(queue)]

    def create_stage(tcb, fn, *args, **kwargs):
        name = kwargs.get("name") or ""
        if name.startswith("stage-"):
            index = int(name[len("stage-"):])
            inbox, outbox = args[0], args[1]
            if index in stamped_stages:
                inbox = inboxes[index] = stamped(inbox)
            if index + 1 in stamped_stages:
                outbox = stamped(outbox)
            args = (inbox, outbox) + args[2:]
        return create(tcb, fn, *args, **kwargs)

    rt.registry["create"] = create_stage
    return inboxes


def _pipeline(seed: int, probe: Probe) -> Outcome:
    from repro.bench.workloads import pipeline
    from repro.core.config import RuntimeConfig
    from repro.core.runtime import PthreadsRuntime
    from repro.net.scenario import percentile

    rt = PthreadsRuntime(
        model="sparc-ipx", seed=seed, config=RuntimeConfig(pool_size=64)
    )
    inboxes = _stamp_stage_queues(rt, PIPELINE_STAGES)
    rt.main(
        pipeline(PIPELINE_STAGES, PIPELINE_ITEMS, work_cycles=PIPELINE_WORK_CYCLES),
        priority=100,
    )
    rt.run()
    probe.done()
    last = inboxes.get(PIPELINE_STAGES - 1)
    departed = [item for item, _ in last.left] if last is not None else []
    if departed != list(range(PIPELINE_ITEMS)) + [None]:
        problem = "last stage took %d items, not 0..%d in order" % (
            len(departed), PIPELINE_ITEMS - 1
        )
        return Outcome(0, [problem], {})
    # Latency: stage 0's hand-off of an item to the last stage taking it.
    handed = inboxes[1].entered
    latencies = [
        rt.world.us(t - handed[i]) for i, (_, t) in enumerate(last.left[:-1])
    ]
    elapsed = rt.world.now_us
    return Outcome(
        ops=PIPELINE_ITEMS,
        problems=[],
        sim={
            "elapsed_us": elapsed,
            "latency_p99_us": percentile(latencies, 99),
            "throughput_rps": PIPELINE_ITEMS / (elapsed / 1e6),
        },
    )


def _check_pooled(seed: int, probe: Probe) -> Outcome:
    from repro.check.explore import Explorer
    from repro.check.workloads import pooled_server
    from repro.net.scenario import percentile

    explorer = Explorer(lambda: pooled_server(clients=3, workers=2), priority=100)
    report = explorer.explore_random(runs=CHECK_RUNS, seed=seed)
    probe.done()
    problems = []
    if report.failures:
        problems.append(
            "%d failing schedules, first: %s"
            % (len(report.failures), report.failures[0].failure)
        )
    if report.schedules_explored != CHECK_RUNS:
        problems.append(
            "explored %d schedules, asked for %d"
            % (report.schedules_explored, CHECK_RUNS)
        )
    elapsed = sum(probe.elapsed_us)
    return Outcome(
        ops=report.schedules_explored,
        problems=problems,
        sim={
            "elapsed_us": elapsed,
            "latency_p99_us": percentile(probe.elapsed_us, 99),
            "throughput_rps": report.schedules_explored / (elapsed / 1e6),
        },
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "net_sf10",
            NET_SF10["clients"] * NET_SF10["requests_per_client"],
            True,
            _net(NET_SF10, peak_is_all=True),
        ),
        Workload(
            "net_churn",
            NET_CHURN["clients"] * NET_CHURN["requests_per_client"],
            True,
            _net(NET_CHURN, peak_is_all=False),
        ),
        Workload("pipeline", PIPELINE_ITEMS, False, _pipeline),
        Workload("check_pooled", CHECK_RUNS, True, _check_pooled),
    )
}
