"""Unit tests for the virtual clock."""

import pytest

from repro.hw.clock import IDLE, VirtualClock


def test_starts_at_zero():
    assert VirtualClock().cycles == 0


def test_custom_start():
    assert VirtualClock(start=100).cycles == 100


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        VirtualClock(start=-1)


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(10)
    clock.advance(5)
    assert clock.cycles == 15


def test_advance_zero_is_noop():
    clock = VirtualClock()
    clock.advance(0)
    assert clock.cycles == 0


def test_advance_backwards_rejected():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_advance_to_absolute():
    clock = VirtualClock()
    clock.advance_to(42)
    assert clock.cycles == 42


def test_advance_to_past_rejected():
    clock = VirtualClock()
    clock.advance(10)
    with pytest.raises(ValueError):
        clock.advance_to(5)


def test_watchers_see_before_and_after():
    clock = VirtualClock()
    seen = []
    clock.watch(lambda before, after, key: seen.append((before, after, key)))
    clock.advance(3)
    clock.advance(4, "insn")
    clock.advance_to(10, IDLE)
    assert seen == [(0, 3, None), (3, 7, "insn"), (7, 10, IDLE)]


def test_watcher_not_called_on_zero_advance():
    clock = VirtualClock()
    seen = []
    clock.watch(lambda b, a, key: seen.append(key))
    clock.advance(0, "insn")
    assert seen == []


def test_remove_watcher():
    clock = VirtualClock()
    seen = []
    clock.watch(lambda b, a, key: seen.append(key))
    clock.advance(1, "call")
    clock.unwatch()
    clock.advance(1, "ret")
    assert seen == ["call"]
