"""Unit tests for cycle attribution (the profiler).

The central invariant: every cycle the clock advances while the
profiler is attached lands in exactly one category, so the category
total equals the clock span *exactly* -- no sampling error, no drift.
"""

import pytest

from repro.core.attr import ThreadAttr
from repro.core.config import RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.hw import costs
from repro.obs.core import Observability
from repro.obs.profile import (
    CATEGORIES,
    CATEGORY_OF_KEY,
    COMPUTE,
    CycleProfiler,
    IDLE,
    MEMORY,
    SYNCHRONIZATION,
    WINDOW_TRAPS,
)
from repro.sim.world import World


def run_observed(main_fn, **kwargs):
    obs = Observability()
    rt = PthreadsRuntime(
        config=RuntimeConfig(pool_size=16), obs=obs, **kwargs
    )
    rt.main(main_fn, priority=100)
    rt.run()
    return obs, rt


class TestCategoryMapping:
    def test_covers_exactly_the_cost_table(self):
        """Every cost key has a category; no stale keys linger."""
        keys = set(costs.all_cost_keys())
        mapped = set(CATEGORY_OF_KEY)
        assert keys == mapped

    def test_all_mapped_categories_are_known(self):
        assert set(CATEGORY_OF_KEY.values()) <= set(CATEGORIES)


class TestAttributionInvariant:
    def test_total_equals_clock_span(self):
        def worker(pt):
            yield pt.work(500)

        def main(pt):
            t = yield pt.create(worker, name="w")
            yield pt.work(1_000)
            yield pt.join(t)

        obs, rt = run_observed(main)
        profiler = obs.profiler
        assert profiler.total_cycles == profiler.attributed_span()
        assert profiler.total_cycles == rt.world.clock.cycles

    def test_compute_includes_work_bursts(self):
        def main(pt):
            yield pt.work(10_000)

        obs, _ = run_observed(main)
        assert obs.profiler.by_category[COMPUTE] >= 10_000

    def test_idle_cycles_attributed(self):
        def main(pt):
            yield pt.delay_us(100)

        obs, _ = run_observed(main)
        # The delay parks the only thread: the world idles to the
        # timer event, and those cycles land in "idle".
        assert obs.profiler.by_category[IDLE] > 0

    def test_contention_lands_in_synchronization(self):
        def holder(pt, m):
            yield pt.mutex_lock(m)
            yield pt.work(2_000)
            yield pt.mutex_unlock(m)

        def waiter(pt, m):
            yield pt.mutex_lock(m)
            yield pt.mutex_unlock(m)

        def main(pt):
            m = yield pt.mutex_init()
            a = yield pt.create(
                holder, m, name="holder", attr=ThreadAttr(priority=100)
            )
            b = yield pt.create(
                waiter, m, name="waiter", attr=ThreadAttr(priority=90)
            )
            yield pt.join(a)
            yield pt.join(b)

        obs, _ = run_observed(main)
        assert obs.profiler.by_category[SYNCHRONIZATION] > 0

    @pytest.mark.parametrize("pool_size", [1, 16])
    def test_pool_prefill_lands_in_memory(self, pool_size):
        """The prefill mallocs a TCB and a stack per pool slot; the heap
        charges them as ``HEAP_ALLOC``, which is memory, not compute."""
        obs = Observability()
        rt = PthreadsRuntime(
            config=RuntimeConfig(pool_size=pool_size), obs=obs
        )
        assert obs.profiler.by_category[MEMORY] == (
            2 * pool_size * rt.world.model.cost(costs.HEAP_ALLOC)
        )

    def test_window_traps_attributed_on_switches(self):
        def child(pt):
            yield pt.work(100)

        def main(pt):
            t = yield pt.create(child, name="kid")
            yield pt.join(t)

        obs, _ = run_observed(main)
        assert obs.profiler.by_category[WINDOW_TRAPS] > 0

    def test_by_thread_names_real_threads(self):
        def child(pt):
            yield pt.work(100)

        def main(pt):
            t = yield pt.create(child, name="kid")
            yield pt.join(t)

        obs, _ = run_observed(main)
        assert "main" in obs.profiler.by_thread
        assert "kid" in obs.profiler.by_thread
        assert sum(obs.profiler.by_thread.values()) == (
            obs.profiler.total_cycles
        )


class TestAttachDetach:
    def test_double_attach_rejected(self):
        def main(pt):
            yield pt.work(1)

        obs, rt = run_observed(main)
        with pytest.raises(RuntimeError):
            obs.profiler.attach_world(rt.world)

    def test_attach_shadows_nothing_and_detach_stops_counting(self):
        world = World()
        world_attrs = dict(world.__dict__)
        window_attrs = dict(world.windows.__dict__)
        profiler = CycleProfiler()
        profiler.attach_world(world)
        # The profiler is the clock's watcher and nothing else: no
        # method of the world or the window file is shadowed.
        assert world.__dict__ == world_attrs
        assert world.windows.__dict__ == window_attrs
        world.spend(costs.INSN, 10)
        total = profiler.total_cycles
        assert total > 0
        # A second watcher on the same clock is refused.
        with pytest.raises(RuntimeError):
            CycleProfiler().attach_world(world)
        profiler.detach()
        assert not profiler.attached
        world.spend(costs.INSN, 10)
        world.windows.flush()
        assert profiler.total_cycles == total
        # Detached, the slot is free again.
        CycleProfiler().attach_world(world)

    def test_detached_profiler_span_falls_back_to_total(self):
        p = CycleProfiler()
        assert p.attributed_span() == 0 == p.total_cycles


class TestVirtualTimeUnchanged:
    def test_observed_run_is_cycle_identical(self):
        """The whole point: observability must not move virtual time."""

        def worker(pt, m):
            for _ in range(5):
                yield pt.mutex_lock(m)
                yield pt.work(300)
                yield pt.mutex_unlock(m)

        def main(pt):
            m = yield pt.mutex_init()
            ts = []
            for i in range(3):
                t = yield pt.create(
                    worker, m, name="w%d" % i,
                    attr=ThreadAttr(priority=90 + i),
                )
                ts.append(t)
            for t in ts:
                yield pt.join(t)

        def bare_run():
            rt = PthreadsRuntime(config=RuntimeConfig(pool_size=16))
            rt.main(main, priority=100)
            rt.run()
            return rt.world.clock.cycles

        obs, rt = run_observed(main)
        assert rt.world.clock.cycles == bare_run()
