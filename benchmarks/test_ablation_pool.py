"""Ablation: the TCB/stack pool vs dynamic allocation.

The paper: heap allocation "accounts for about 70% of the thread
creation time.  Thus, thread creation could be sped up considerably if
a memory pool for TCB and stack was established" -- and Table 2's
creation row assumes the pool.  This bench creates threads both ways
and regenerates the fraction.

A pool miss here pays two things: the heap-allocation path the paper
measured (``HEAP_ALLOC``, ``TCB_INIT``, ``STACK_SETUP``) and the
first-touch page faults of a fresh stack (``STACK_FAULT_IN``, about
four zero-fill faults), which the paper's figure does not include.
The clock watcher separates the fault-in charge by its cost key, and
the paper's fraction is stated over the allocation path only.
"""

from repro.core.attr import ThreadAttr
from repro.hw import costs
from tests.conftest import make_runtime


def _creation_cost_us(pool_size, iterations=30):
    """Mean pthread_create latency with the given pool size, and the
    mean of it spent faulting in fresh stacks."""
    rt = make_runtime(pool_size=pool_size)
    world = rt.world
    samples = []
    faults = []
    fault_cycles = [0]

    def watch(before, after, key):
        if key == costs.STACK_FAULT_IN:
            fault_cycles[0] += after - before

    def child(pt):
        yield pt.work(1)

    def main(pt):
        for _ in range(iterations):
            start = world.now
            faulted = fault_cycles[0]
            t = yield pt.create(child, attr=ThreadAttr(priority=10))
            samples.append(world.us(world.now - start))
            faults.append(world.us(fault_cycles[0] - faulted))
            yield pt.join(t)

    rt.main(main, priority=50)
    world.clock.watch(watch)
    try:
        rt.run()
    finally:
        world.clock.unwatch()
    return sum(samples) / len(samples), sum(faults) / len(faults), rt


def test_pool_ablation(sim_bench):
    def _both():
        pooled, pooled_faults, rt_pooled = _creation_cost_us(pool_size=32)
        unpooled, unpooled_faults, rt_unpooled = _creation_cost_us(
            pool_size=0
        )
        allocation_path = unpooled - unpooled_faults
        return {
            "pooled_us": pooled,
            "unpooled_us": unpooled,
            "fault_in_us": unpooled_faults,
            "pooled_fault_in_us": pooled_faults,
            "allocation_fraction": 1 - pooled / allocation_path,
            "pool_hits": rt_pooled.pool.hits,
            "pool_misses": rt_unpooled.pool.misses,
        }

    r = sim_bench(_both)
    print(
        "pooled %.1f us, unpooled %.1f us (fault-in %.1f us): "
        "allocation is %.3f of creation over the allocation path"
        % (
            r["pooled_us"],
            r["unpooled_us"],
            r["fault_in_us"],
            r["allocation_fraction"],
        )
    )
    # The paper's claim: allocation is ~70 % of unpooled creation time.
    assert 0.5 <= r["allocation_fraction"] <= 0.85, r
    assert r["pooled_us"] < r["unpooled_us"]
    assert r["pooled_fault_in_us"] == 0  # a pool hit faults nothing in
    assert r["fault_in_us"] > 0  # every miss faults a fresh stack in
    assert r["pool_hits"] > 0
    assert r["pool_misses"] > 0


def test_pool_exhaustion_degrades_gracefully(sim_bench):
    """When the pool runs dry, creation falls back to the heap; with
    recycling (join returns entries), a small pool suffices."""

    def _run():
        rt = make_runtime(pool_size=2)

        def child(pt):
            yield pt.delay_us(2_000)  # keep several alive at once

        def main(pt):
            threads = []
            for _ in range(8):
                threads.append(
                    (yield pt.create(child, attr=ThreadAttr(priority=10)))
                )
            for t in threads:
                yield pt.join(t)

        rt.main(main, priority=50)
        rt.run()
        return {"hits": rt.pool.hits, "misses": rt.pool.misses,
                "returns": rt.pool.returns}

    r = sim_bench(_run)
    # Nine acquisitions total (the main thread plus eight children):
    # the two pooled entries hit, the rest fall back to the heap.
    assert r["hits"] == 2
    assert r["misses"] == 7
    assert r["returns"] == 2  # pool refills to capacity, rest freed


def test_sbrk_only_on_pool_miss_bursts(sim_bench):
    """Dynamic creation sporadically calls sbrk; pooled creation never
    does (the paper's "sporadically may result in kernel calls")."""

    def _run():
        rt = make_runtime(pool_size=16)
        baseline = rt.unix.syscall_counts["sbrk"]

        def child(pt):
            yield pt.work(1)

        def main(pt):
            for _ in range(10):
                t = yield pt.create(child, attr=ThreadAttr(priority=10))
                yield pt.join(t)

        rt.main(main, priority=50)
        rt.run()
        return {"sbrk_during_run": rt.unix.syscall_counts["sbrk"] - baseline}

    r = sim_bench(_run)
    assert r["sbrk_during_run"] == 0
