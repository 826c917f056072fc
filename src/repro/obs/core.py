"""The observability facade: one object wiring metrics + profile + trace.

Construct an :class:`Observability`, hand it to the runtime
(``PthreadsRuntime(obs=obs)``), run, then ask for :meth:`snapshot` or
:meth:`report`.  The runtime attaches the world-level pieces (cycle
profiler, trace sink) before the first cycle is spent, so attribution
covers the entire run and the category total equals the final virtual
clock exactly.

Counter sources are a hybrid, chosen for zero disabled cost:

- **live instruments** only where no persistent counter exists -- the
  ready-queue depth histogram is sampled by the dispatcher through a
  single ``runtime.obs is not None`` guard (the same idiom as the
  existing ``world.trace`` guards);
- **harvest at snapshot time** for everything the library already
  counts (context switches, window traps, signal deliveries and
  deferrals, fake calls, mutex contention, priority hand-offs,
  per-thread CPU cycles): reading those at the end costs the running
  simulation nothing at all.

Everything here observes the simulation; nothing advances the virtual
clock, which is what keeps the golden Table 2 snapshot bit-identical
with observability enabled.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import CycleProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime
    from repro.core.tcb import Tcb
    from repro.sim.world import World


class Observability:
    """Metrics registry + cycle profiler + optional trace sink."""

    def __init__(
        self, profile: bool = True, trace: Optional[object] = None
    ) -> None:
        self.registry = MetricsRegistry()
        self.profiler: Optional[CycleProfiler] = (
            CycleProfiler() if profile else None
        )
        self.trace = trace
        self.runtime: Optional["PthreadsRuntime"] = None
        # Live instruments.
        self.dispatches = self.registry.counter(
            "sched.dispatches", help="dispatcher invocations"
        )
        self.ready_depth = self.registry.histogram(
            "sched.ready_depth", help="ready-queue depth at dispatch"
        )
        #: Reclaimed threads' ``thread.*`` figures by name: the
        #: ``(tid, name, cpu_cycles, switches_in)`` of the last-created.
        self.exited: Dict[str, Tuple[int, str, int, int]] = {}
        self._leaving: Optional["Tcb"] = None

    # -- attachment -------------------------------------------------------------

    def attach_world(self, world: "World") -> None:
        """World-level wiring; call before any cycle is spent."""
        if self.trace is not None:
            self.trace.attach(world.clock)
            world.trace = self.trace
        if self.profiler is not None and not self.profiler.attached:
            self.profiler.attach_world(world)

    def attach(self, runtime: "PthreadsRuntime") -> None:
        """Bind to a runtime (world wiring happens here if it has not)."""
        self.runtime = runtime
        runtime.obs = self
        if self.profiler is not None:
            self.profiler.attach_runtime(runtime)
        if self.trace is not None and runtime.world.trace is None:
            self.trace.attach(runtime.world.clock)
            runtime.world.trace = self.trace

    # -- live hooks --------------------------------------------------------------

    def on_dispatch(self, runtime: "PthreadsRuntime") -> None:
        """Called by the dispatcher (guarded; never on the disabled path)."""
        self.dispatches.inc()
        self.ready_depth.observe(len(runtime.sched.ready))

    def thread_left(self, tcb: "Tcb") -> None:
        """A reclaimed thread leaves the runtime's table; keep its figures.

        A thread is often reclaimed inside its own last step, which the
        executor charges to it afterwards, so its figures are read at
        the next hand-off (or harvest), once that step has ended.
        """
        left, self._leaving = self._leaving, tcb
        if left is not None:
            kept = self.exited.get(left.name, ())
            self.exited[left.name] = max(kept, _figures(left))

    # -- harvest -----------------------------------------------------------------

    def harvest(self) -> None:
        """Copy the library's persistent counters into the registry."""
        runtime = self.runtime
        if runtime is None:
            return
        registry = self.registry
        world = runtime.world

        def put(name: str, value: int, help: str = "") -> None:
            registry.counter(name, help=help).set(value)

        dispatcher = runtime.dispatcher
        put("sched.context_switches", dispatcher.context_switches,
            "thread context switches performed")
        put("sched.dispatch_calls", dispatcher.dispatch_calls,
            "dispatcher entries (Figure 2)")
        put("sched.signal_restarts", dispatcher.signal_restarts,
            "dispatches restarted by deferred signals")
        put("kernel.enters", runtime.kern.enters,
            "library kernel critical sections")
        put("executor.steps", runtime.steps, "executor steps retired")

        windows = world.windows
        put("hw.window_flush_traps", windows.flush_traps,
            "ST_FLUSH_WINDOWS traps (context switches, setjmp)")
        put("hw.window_underflow_traps", windows.underflow_traps,
            "window underflow/fill traps")
        put("hw.window_overflow_traps", windows.overflow_traps,
            "window overflow traps (deep call chains)")

        sigdeliver = runtime.sigdeliver
        put("signals.delivered", sigdeliver.delivered_to_threads,
            "signals delivered to a thread")
        put("signals.deferred", runtime.kern.deferred_total,
            "signals caught while the kernel flag was set")
        put("signals.process_pended", sigdeliver.pended_on_process,
            "signals pended on the process (rule 6)")
        put("signals.fake_calls", runtime.fakecalls.installed,
            "user-handler wrapper frames installed")

        put("mutex.contentions", runtime.mutex_ops.contentions,
            "lock attempts that blocked")
        put("mutex.handoffs", runtime.mutex_ops.handoffs,
            "direct owner-to-waiter transfers")
        put("protocol.boosts", runtime.protocols.boosts,
            "priority raises (inheritance/ceiling)")
        put("protocol.unboosts", runtime.protocols.unboosts,
            "priority restorations at unlock")

        put("unix.syscalls", runtime.unix.total_syscalls,
            "UNIX kernel calls made by the library")

        events = world.events
        put("exec.events.batch_pops", events.batch_pops,
            "same-timestamp runs of more than one event pop")
        put("exec.events.batched_events", events.batched_events,
            "event pops inside same-timestamp runs")
        put("exec.events.max_batch", events.max_batch,
            "longest same-timestamp run of event pops")
        put("exec.events.heap_schedules", events.heap_schedules,
            "events scheduled before their kind's lane tail (heap path)")

        segments = runtime._segments
        if segments is not None:
            # exec.segment.*: the executor's replay cache.  All-zero
            # counters under a cycle profiler are expected -- the
            # profiler's clock watcher makes the cache bypass itself so
            # attribution stays per-spend exact (run ``report`` with
            # ``--no-profile`` to observe the cache at work).
            helps = {
                "exec.segment.compiled": "straight-line segments compiled",
                "exec.segment.hits": "executor steps served by replay",
                "exec.segment.misses": "replay attempts that fell back",
                "exec.segment.steps_replayed": "ops retired via replay",
                "exec.segment.cycles_replayed":
                    "virtual cycles charged in batches",
                "exec.segment.invalidations": "segments discarded",
                "exec.segment.recordings": "certification passes started",
                "exec.segment.record_failures":
                    "certification passes abandoned",
            }
            for nm, value in segments.counters().items():
                put(nm, value, helps.get(nm, ""))

        pool = runtime.pool
        put("pool.hits", pool.hits, "TCB/stack cache hits at create")
        put("pool.misses", pool.misses,
            "creates that paid full allocation (cold stack)")
        put("pool.returns", pool.returns,
            "TCB/stack pairs returned to the cache at reclaim")

        net = getattr(runtime, "net", None)
        if net is not None:
            put("net.connections_opened", net.connections_opened,
                "connections established through the accept queue")
            put("net.connections_refused", net.connections_refused,
                "connects refused (no listener or backlog full)")
            put("net.messages_delivered", net.messages_delivered,
                "messages delivered into receive buffers")
            put("net.bytes_delivered", net.bytes_delivered,
                "payload bytes delivered")
            put("net.eof_delivered", net.eof_delivered,
                "orderly end-of-stream deliveries")
            put("net.completions_sigio", net.sigio_completions,
                "blocking-call completions via SIGIO")
            put("net.completions_first_class", net.fc_completions,
                "blocking-call completions via the first-class channel")
            put("net.backpressure_stalls", net.backpressure_stalls,
                "sends that blocked on a full peer buffer")
            put("net.select_calls", net.select_calls,
                "select syscalls issued")
            put("net.epoll.instances", net.epoll_instances,
                "epoll interest lists created")
            put("net.epoll.ctl_calls", net.epoll_ctl_calls,
                "interest-list add/del operations")
            put("net.epoll.waits", net.epoll_waits,
                "epoll_wait syscalls issued")
            put("net.epoll.wakeups", net.epoll_wakeups,
                "parked epoll waiters completed by a readiness edge")
            put("net.epoll.edges", net.epoll_edges,
                "readiness edges pushed into interest lists")
            put("net.epoll.ready_returned", net.epoll_ready_returned,
                "descriptors reported ready by waits")
            put("net.epoll.stale_dropped", net.epoll_stale_dropped,
                "ready entries found unreadable at wait time")
            resident = net.resident
            if resident is not None:
                helps = {
                    "loadgen.resident.spawned":
                        "kernel-resident client records created",
                    "loadgen.resident.active":
                        "clients currently holding an open connection",
                    "loadgen.resident.peak_active":
                        "high-water mark of concurrently open clients",
                    "loadgen.resident.completed":
                        "clients that finished every request and closed",
                    "loadgen.resident.refused":
                        "client connects refused by the listener",
                    "loadgen.resident.requests_sent": "requests sent",
                    "loadgen.resident.replies": "replies received",
                }
                for nm, value in resident.counters().items():
                    put(nm, value, helps.get(nm, ""))

        check = runtime.check
        if check is not None:
            put("check.invariant_checks", check.checks_run,
                "invariant sweeps at kernel releases")
            put("check.violations", check.violations_found,
                "invariant rules that fired")

        if world.smp is not None:
            self.harvest_smp(world.smp)

        # Every thread ever created, in creation order: where names
        # are shared, the last-created thread's figures are kept.
        threads = (self._leaving, *runtime.threads.values())
        live = [_figures(t) for t in threads if t is not None]
        for _, name, cycles, switches in sorted([*self.exited.values(), *live]):
            safe = name.replace(" ", "_")
            put("thread.cpu_cycles.%s" % safe, cycles)
            put("thread.switches_in.%s" % safe, switches)

    def harvest_smp(self, smp: Any) -> None:
        """Copy an SMP world's counters into metrics.

        Called from :meth:`harvest` when the attached runtime's world
        is multiprocessor, and directly by the lock-zoo tooling (which
        runs on the SMP executor with no Pthreads runtime at all).
        """
        if smp is None:
            return
        registry = self.registry

        def put(name: str, value: int, help: str = "") -> None:
            registry.counter(name, help=help).set(value)

        helps = {
            "smp.ipis_sent": "interprocessor interrupts sent",
            "smp.ipis_delivered": "interprocessor interrupts delivered",
            "smp.line_bounces": "exclusive cache-line transfers",
            "smp.line_transfers_near": "line transfers within a chip",
            "smp.line_transfers_far": "line transfers across chips",
            "smp.line_shared_joins": "read copies joining a sharer set",
            "smp.migrations": "tasks pulled across CPU run queues",
            "smp.spin_cycles": "cycles burned spinning on lines",
        }
        for name, value in smp.counters().items():
            put(name, value, helps.get(name, ""))
        registry.gauge("smp.ncpus", help="simulated processors").set(smp.ncpus)
        for cpu in smp.cpus:
            put("smp.cpu_cycles.cpu%d" % cpu.index, cpu.clock.cycles,
                "local clock of CPU %d" % cpu.index)

    def harvest_fleet(self, stats: Any) -> None:
        """Copy a sweep's :class:`repro.fleet.FleetStats` into metrics.

        Fleet stats describe a whole sweep, not one runtime, so this is
        separate from :meth:`harvest` and needs no attached runtime.
        """
        if stats is None:
            return
        registry = self.registry

        def put(name: str, value: int, help: str = "") -> None:
            registry.counter(name, help=help).set(value)

        registry.gauge(
            "fleet.jobs", help="worker processes the sweep ran on"
        ).set(stats.jobs)
        put("fleet.tasks", stats.tasks,
            "sweep results consumed (sequential order)")
        put("fleet.fallbacks", stats.fallbacks,
            "tasks rerun in-process after a worker problem")
        put("fleet.speculative_waste", stats.speculative_waste,
            "speculative results the consumer never needed")
        put("fleet.snapshots_created", stats.snapshots_created,
            "prefix checkpoints forked and registered")
        put("fleet.snapshot_hits", stats.snapshot_hits,
            "runs resumed from a checkpoint instead of from scratch")
        put("fleet.snapshot_evictions", stats.snapshot_evictions,
            "checkpoints discarded by the LRU bound")
        put("fleet.steps_executed", stats.steps_executed,
            "simulator steps actually executed by the sweep")
        put("fleet.steps_full", stats.steps_full,
            "steps replay-from-scratch would have executed")

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Harvest and return a plain-data view of everything."""
        self.harvest()
        out: Dict[str, Any] = {"metrics": self.registry.snapshot()}
        if self.profiler is not None:
            out["profile"] = self.profiler.snapshot()
        runtime = self.runtime
        if runtime is not None:
            out["elapsed_cycles"] = runtime.world.now
            out["elapsed_us"] = runtime.world.now_us
        return out

    def report(self) -> str:
        """Human-readable run report: metrics table + attribution."""
        self.harvest()
        sections = []
        runtime = self.runtime
        if runtime is not None:
            world = runtime.world
            sections.append(
                "run: model=%s  elapsed=%d cycles (%.2f us)  steps=%d"
                % (world.model.name, world.now, world.now_us, runtime.steps)
            )
        sections.append("-- metrics " + "-" * 45)
        sections.append(self.registry.render())
        if self.profiler is not None:
            sections.append("-- cycle attribution " + "-" * 35)
            sections.append(self.profiler.render())
        return "\n".join(sections)

    def __repr__(self) -> str:
        return "Observability(profile=%s, trace=%s)" % (
            self.profiler is not None,
            self.trace is not None,
        )


def _figures(tcb: "Tcb") -> Tuple[int, str, int, int]:
    return (tcb.tid, tcb.name, tcb.cpu_cycles, tcb.context_switches_in)
