"""Unit tests for the TCB/stack pool."""

import pytest

from repro.hw.costs import SPARC_IPX
from repro.hw.memory import Heap
from repro.core.pool import TCB_BYTES, ThreadPool


def _make(size, stack_size=8192):
    from repro.sim.world import World

    world = World("sparc-ipx")
    heap = Heap(world.clock, SPARC_IPX)
    return world, heap, ThreadPool(world, heap, size, stack_size)


def test_prefill():
    world, heap, pool = _make(4)
    assert len(pool) == 4


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        _make(-1)


def test_hit_is_cheap_miss_is_expensive():
    world, heap, pool = _make(1)
    t0 = world.now
    pool.acquire()
    hit_cost = world.now - t0
    t0 = world.now
    pool.acquire()  # pool empty -> dynamic allocation
    miss_cost = world.now - t0
    assert pool.hits == 1
    assert pool.misses == 1
    assert miss_cost > 5 * hit_cost


def test_release_refills_pool():
    world, heap, pool = _make(1)
    addr, stack = pool.acquire()
    assert len(pool) == 0
    pool.release(addr, stack)
    assert len(pool) == 1
    assert pool.returns == 1


def test_recycled_stack_is_reset():
    world, heap, pool = _make(1)
    addr, stack = pool.acquire()
    stack.push(100)
    pool.release(addr, stack)
    addr2, stack2 = pool.acquire()
    assert stack2.used == 0


def test_oversize_request_bypasses_pool():
    world, heap, pool = _make(2, stack_size=4096)
    addr, stack = pool.acquire(stack_size=64 * 1024)
    assert stack.size == 64 * 1024
    assert pool.misses == 1
    assert len(pool) == 2  # untouched


def test_oversize_release_freed_not_pooled():
    world, heap, pool = _make(1, stack_size=4096)
    addr, stack = pool.acquire(stack_size=16 * 1024)
    live = heap.live_bytes
    pool.release(addr, stack)
    assert heap.live_bytes < live
    assert len(pool) == 1


def _watched_heap():
    """A fresh world and heap whose clock totals every charge by key."""
    from repro.sim.world import World

    world = World("sparc-ipx")
    by_key = {}

    def watch(before, after, key):
        by_key[key] = by_key.get(key, 0) + after - before

    world.clock.watch(watch)
    return world, Heap(world.clock, world.model), by_key


def test_prefill_reserves_what_per_entry_mallocs_would():
    """The pool reserves its prefill in one heap pass: the same blocks,
    growth and charges as two mallocs per entry, and the same entries
    in the same (LIFO) order once threads take them."""
    stack_size = 64 * 1024
    world, heap, charged = _watched_heap()
    pool = ThreadPool(world, heap, 64, stack_size)
    ref_world, ref_heap, ref_charged = _watched_heap()
    pairs = [
        (ref_heap.malloc(TCB_BYTES), ref_heap.malloc(stack_size))
        for _ in range(64)
    ]

    assert heap._sizes == ref_heap._sizes
    assert list(heap._sizes) == list(ref_heap._sizes)  # same addresses
    assert heap.allocated_bytes == ref_heap.allocated_bytes
    assert heap.sbrk_calls == ref_heap.sbrk_calls > 0
    assert world.now == ref_world.now
    assert charged == ref_charged
    assert len(pool) == 64

    taken = [pool.acquire() for _ in range(64)]
    assert [
        (tcb_addr, stack.base - stack.size, stack.base, stack.size)
        for tcb_addr, stack in taken
    ] == [
        (tcb_addr, stack_lo, stack_lo + stack_size, stack_size)
        for tcb_addr, stack_lo in reversed(pairs)
    ]
    assert pool.hits == 64 and pool.misses == 0 and len(pool) == 0


def test_released_entry_is_taken_before_reserved_ones():
    world, heap, pool = _make(3)
    first = pool.acquire()
    second = pool.acquire()
    pool.release(*first)
    assert len(pool) == 2  # one released, one still reserved
    assert pool.acquire() == first  # last in, first out
    assert pool.acquire()[1] is not second[1]  # then the reserved one
    assert pool.misses == 0


def test_capacity_counts_reserved_entries():
    world, heap, pool = _make(2)
    other = ThreadPool(world, heap, 1, 8192)
    pool.release(*pool.acquire())
    assert len(pool) == 2 == pool.capacity  # one released, one reserved
    live = heap.live_bytes
    pool.release(*other.acquire())  # full: freed, not pooled
    assert len(pool) == 2
    assert heap.live_bytes < live
