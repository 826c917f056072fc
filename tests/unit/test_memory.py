"""Unit tests for the heap and stacks."""

import pytest

from repro.hw import costs
from repro.hw.clock import VirtualClock
from repro.hw.costs import SPARC_IPX
from repro.hw.memory import Heap, MemoryError_, Stack, StackOverflow


def _heap(**kwargs):
    return Heap(VirtualClock(), SPARC_IPX, **kwargs)


def test_malloc_returns_distinct_addresses():
    heap = _heap()
    a = heap.malloc(64)
    b = heap.malloc(64)
    assert a != b


def test_malloc_zero_rejected():
    with pytest.raises(ValueError):
        _heap().malloc(0)


def test_free_recycles():
    heap = _heap()
    a = heap.malloc(128)
    heap.free(a)
    assert heap.malloc(128) == a  # freelist hit


def test_double_free_detected():
    heap = _heap()
    a = heap.malloc(32)
    heap.free(a)
    with pytest.raises(MemoryError_):
        heap.free(a)


def test_live_bytes_tracks_allocations():
    heap = _heap()
    a = heap.malloc(100)
    heap.malloc(50)
    assert heap.live_bytes == 150
    heap.free(a)
    assert heap.live_bytes == 50


def test_sbrk_called_when_arena_exhausted():
    calls = []
    heap = Heap(
        VirtualClock(), SPARC_IPX, arena=256, sbrk=lambda n: calls.append(n)
    )
    heap.malloc(1024)
    assert calls  # grew at least once
    assert heap.sbrk_calls == len(calls)


def test_charges_carry_their_cost_keys():
    clock = VirtualClock()
    seen = []
    clock.watch(lambda before, after, key: seen.append((key, after - before)))
    heap = Heap(clock, SPARC_IPX, arena=100)
    heap.free(heap.malloc(150))  # grows through the local sbrk fallback
    keys = [costs.HEAP_ALLOC, costs.SYSCALL, costs.SBRK_WORK, costs.HEAP_FREE]
    assert seen == [(key, SPARC_IPX.cost(key)) for key in keys]


def test_heap_limit_enforced():
    heap = Heap(VirtualClock(), SPARC_IPX, arena=128, limit=256)
    with pytest.raises(MemoryError_):
        heap.malloc(100_000)


def test_stack_push_moves_sp_down():
    stack = Stack(base=0x10000, size=4096)
    sp = stack.push(128)
    assert sp == 0x10000 - 128
    assert stack.used == 128


def test_stack_pop_restores():
    stack = Stack(base=0x10000, size=4096)
    stack.push(128)
    stack.pop(128)
    assert stack.used == 0


def test_stack_overflow_at_redzone():
    stack = Stack(base=0x10000, size=1024, redzone=256)
    stack.push(700)
    with pytest.raises(StackOverflow):
        stack.push(100)  # 800 > 1024-256


def test_stack_pop_past_base_detected():
    stack = Stack(base=0x10000, size=1024)
    with pytest.raises(MemoryError_):
        stack.pop(1)


def test_stack_high_water():
    stack = Stack(base=0x10000, size=4096)
    stack.push(100)
    stack.push(200)
    stack.pop(200)
    assert stack.high_water == 300


def test_stack_reset():
    stack = Stack(base=0x10000, size=4096)
    stack.push(100)
    stack.reset()
    assert stack.used == 0
    assert stack.high_water == 0


def test_stack_size_must_exceed_redzone():
    with pytest.raises(ValueError):
        Stack(base=0x10000, size=100, redzone=256)
