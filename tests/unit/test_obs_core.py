"""Unit tests for the Observability facade (harvest, snapshot, report)."""

import json

from repro.core.attr import ThreadAttr
from repro.core.config import PTHREAD_CREATE_DETACHED, RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.debug.trace import Tracer
from repro.hw import costs
from repro.obs.core import Observability


def run_observed(main_fn, obs=None, priority=64):
    obs = obs if obs is not None else Observability()
    rt = PthreadsRuntime(config=RuntimeConfig(pool_size=16), obs=obs)
    rt.main(main_fn, priority=priority)
    rt.run()
    return obs, rt


def contended_main(pt):
    """A genuinely contended mutex: the low-priority holder takes the
    lock, then a high-priority waiter preempts and must block."""

    def holder(pt, m):
        yield pt.mutex_lock(m)
        t = yield pt.create(
            waiter, m, name="hi", attr=ThreadAttr(priority=100)
        )
        yield pt.work(500)
        yield pt.mutex_unlock(m)  # direct hand-off to the waiter
        yield pt.join(t)

    def waiter(pt, m):
        yield pt.mutex_lock(m)
        yield pt.mutex_unlock(m)

    m = yield pt.mutex_init()
    t = yield pt.create(holder, m, name="lo", attr=ThreadAttr(priority=50))
    yield pt.join(t)


class TestHarvest:
    def test_counters_present_and_consistent(self):
        obs, rt = run_observed(contended_main)
        snap = obs.snapshot()
        metrics = snap["metrics"]
        assert metrics["sched.context_switches"] == (
            rt.dispatcher.context_switches
        )
        assert metrics["kernel.enters"] == rt.kern.enters
        assert metrics["executor.steps"] == rt.steps
        assert metrics["unix.syscalls"] == rt.unix.total_syscalls
        assert snap["elapsed_cycles"] == rt.world.clock.cycles

    def test_mutex_contention_and_handoff_counted(self):
        obs, _ = run_observed(contended_main)
        metrics = obs.snapshot()["metrics"]
        assert metrics["mutex.contentions"] >= 1
        assert metrics["mutex.handoffs"] >= 1

    def test_live_dispatch_sampling(self):
        obs, rt = run_observed(contended_main)
        metrics = obs.snapshot()["metrics"]
        assert metrics["sched.dispatches"] == rt.dispatcher.dispatch_calls
        assert metrics["sched.ready_depth"]["count"] == (
            rt.dispatcher.dispatch_calls
        )

    def test_per_thread_cycles_harvested(self):
        obs, rt = run_observed(contended_main)
        metrics = obs.snapshot()["metrics"]
        assert metrics["thread.cpu_cycles.main"] > 0

    def test_exited_threads_keep_their_counters(self):
        """``thread.*`` covers every thread ever created, reclaimed or
        not; a shared name reads the later-created thread's figures,
        even when that thread is reclaimed first."""
        handles = {}

        def worker(pt, cycles):
            yield pt.work(cycles)

        def main(pt):
            handles["main"] = yield pt.self_id()
            old = yield pt.create(worker, 800, name="twin")
            new = yield pt.create(worker, 100, name="twin")
            detached = ThreadAttr(detach_state=PTHREAD_CREATE_DETACHED)
            handles["det"] = yield pt.create(
                worker, 300, name="det", attr=detached
            )
            late = yield pt.create(worker, 200, name="late")
            yield pt.join(new)  # parked: new reclaims itself at exit
            yield pt.delay_us(500)  # old, det and late finish meanwhile
            yield pt.detach(late)
            yield pt.join(old)
            handles.update(old=old, twin=new, late=late)

        obs, rt = run_observed(main)
        assert list(rt.threads.values()) == [handles["main"]]
        assert all(
            handles[n].reclaimed for n in ("old", "twin", "det", "late")
        )
        assert handles["old"].cpu_cycles != handles["twin"].cpu_cycles
        metrics = obs.snapshot()["metrics"]
        for kind, attr in (
            ("cpu_cycles", "cpu_cycles"),
            ("switches_in", "context_switches_in"),
        ):
            prefix = "thread.%s." % kind
            harvested = {
                name[len(prefix):]: value
                for name, value in metrics.items()
                if name.startswith(prefix)
            }
            assert harvested == {
                n: getattr(handles[n], attr)
                for n in ("main", "twin", "det", "late")
            }

    def test_snapshot_is_json_serialisable(self):
        obs, _ = run_observed(contended_main)
        json.dumps(obs.snapshot())


class TestReport:
    def test_report_contains_sections(self):
        obs, _ = run_observed(contended_main)
        text = obs.report()
        assert "-- metrics" in text
        assert "-- cycle attribution" in text
        assert "mutex.contentions" in text
        assert "total" in text

    def test_attribution_total_matches_clock(self):
        obs, rt = run_observed(contended_main)
        obs.report()
        assert obs.profiler.total_cycles == rt.world.clock.cycles


class TestModes:
    def test_profile_disabled(self):
        obs, _ = run_observed(
            contended_main, obs=Observability(profile=False)
        )
        snap = obs.snapshot()
        assert "profile" not in snap
        assert snap["metrics"]["sched.dispatches"] > 0

    def test_trace_wired_through_runtime(self):
        tracer = Tracer()
        obs, rt = run_observed(contended_main, obs=Observability(trace=tracer))
        assert rt.world.trace is tracer
        assert tracer.where("dispatch", thread="hi")
        assert tracer.first("mutex-contention", thread="hi") is not None

    def test_disabled_runtime_has_no_obs(self):
        rt = PthreadsRuntime(config=RuntimeConfig(pool_size=16))
        assert rt.obs is None
        # No instance-level shadows on the hot-path objects.
        assert "spend" not in rt.world.__dict__


class TestHarvestSmp:
    def _busy_main(self):
        def worker(pt, box):
            for _ in range(10):
                yield pt.work(400)
                yield pt.delay_us(40)
            box["done"] += 1

        def main(pt):
            box = {"done": 0}
            a = yield pt.create(worker, box)
            b = yield pt.create(worker, box)
            yield pt.join(a)
            yield pt.join(b)
            assert box["done"] == 2

        return main

    def test_smp_counters_harvested_on_two_cpus(self):
        obs = Observability()
        rt = PthreadsRuntime(
            config=RuntimeConfig(pool_size=16, timeslice_us=1_000.0),
            obs=obs,
            ncpus=2,
        )
        rt.main(self._busy_main(), priority=64)
        rt.run()
        snap = obs.snapshot()
        metrics = snap["metrics"]
        assert metrics["smp.ncpus"] == 2
        assert metrics["smp.ipis_sent"] > 0
        assert metrics["smp.ipis_delivered"] == metrics["smp.ipis_sent"]
        assert "smp.cpu_cycles.cpu0" in metrics
        assert "smp.cpu_cycles.cpu1" in metrics
        assert "smp." in obs.report()

    def test_profile_attributes_every_cpu_clock(self):
        """Every CPU's clock is watched: CPU 1's IPI sends and its idle
        catch-ups are attributed to ``<cpu1>``, and the categories sum
        to both clocks."""
        obs = Observability()
        rt = PthreadsRuntime(
            config=RuntimeConfig(pool_size=16, timeslice_us=1_000.0),
            obs=obs,
            ncpus=2,
        )
        rt.main(self._busy_main(), priority=64)
        rt.run()
        profiler = obs.profiler
        cpu0, cpu1 = (cpu.clock.cycles for cpu in rt.world.smp.cpus)
        assert (cpu0, cpu1) == (252_586, 240_454)
        assert profiler.total_cycles == profiler.attributed_span() == 493_040
        table = rt.world.smp.table
        assert (table[costs.IPI_SEND], table[costs.IPI_RECEIVE]) == (350, 800)
        assert obs.snapshot()["metrics"]["smp.ipis_sent"] == 15
        assert profiler.by_category == {
            "compute": 8_006,
            "window-traps": 24_320,
            "syscalls": 41_856,
            "signal-delivery": 110_120,
            "scheduling": 20_000,
            "synchronization": 0,
            "memory": 16_902,
            "smp": 17_250,  # 15 x IPI_SEND + 15 x IPI_RECEIVE
            "library-misc": 960,
            "idle": 18_422 + 235_204,  # CPU 0 + CPU 1
        }
        assert profiler.by_thread["<cpu1>"] == cpu1
        assert sum(profiler.by_thread.values()) == cpu0 + cpu1
        profiler.detach()
        assert all(
            cpu.clock._watcher is None for cpu in rt.world.smp.cpus
        )

    def test_no_smp_counters_on_uniprocessor(self):
        obs, rt = run_observed(contended_main)
        metrics = obs.snapshot()["metrics"]
        assert not any(name.startswith("smp.") for name in metrics)

    def test_harvest_smp_directly_from_extension(self):
        """The lock-zoo tooling harvests an extension with no runtime."""
        from repro.sim.smp import SmpExecutor
        from repro.sim.world import World

        world = World(model="niagara-t3", seed=2, ncpus=2)
        smp = world.smp
        cell = smp.cell("n")

        def body():
            for _ in range(3):
                yield ("fetch_add", cell, 1)

        ex = SmpExecutor(world, smp)
        ex.spawn(body(), cpu=0)
        ex.spawn(body(), cpu=1)
        ex.run()
        obs = Observability()
        obs.harvest_smp(smp)
        metrics = obs.registry.snapshot()
        assert metrics["smp.ncpus"] == 2
        assert metrics["smp.line_bounces"] > 0
