"""Unit tests for TCBs, pending-signal sets, and attribute records."""

import pytest

from repro.core import config as cfg
from repro.core.attr import CondAttr, MutexAttr, ThreadAttr
from repro.core.tcb import Tcb, ThreadState
from repro.unix.signals import PendingSignals, SigCause
from repro.unix.sigset import SIGUSR1, SIGUSR2, SigSet


class TestTcb:
    def test_initial_state(self):
        tcb = Tcb(1, "t")
        assert tcb.state is ThreadState.EMBRYO
        assert tcb.alive
        assert not tcb.detached
        assert tcb.intr_enabled
        assert tcb.intr_type == cfg.PTHREAD_INTR_CONTROLLED
        tcb.reclaimed = True
        assert not tcb.alive

    def test_runnable(self):
        tcb = Tcb(1, "t")
        tcb.state = ThreadState.READY
        assert tcb.runnable
        tcb.state = ThreadState.BLOCKED
        assert not tcb.runnable


class TestThreadPending:
    def test_post_and_take(self):
        pending = PendingSignals()
        assert pending.post(SIGUSR1, SigCause())
        assert pending.take_in(SigSet([SIGUSR1])) is not None
        assert pending.take_in(SigSet([SIGUSR1])) is None
        assert pending.order == []

    def test_tcb_pending_is_a_pending_set(self):
        assert isinstance(Tcb(1, "t").pending, PendingSignals)

    def test_single_slot_per_signal(self):
        pending = PendingSignals()
        pending.post(SIGUSR1, SigCause())
        assert not pending.post(SIGUSR1, SigCause())
        assert pending.lost == 1

    def test_take_any_unmasked_respects_mask(self):
        pending = PendingSignals()
        pending.post(SIGUSR1, SigCause())
        assert pending.take_unmasked(SigSet([SIGUSR1])) is None
        sig, _cause = pending.take_unmasked(SigSet())
        assert sig == SIGUSR1

    def test_take_any_in_set(self):
        pending = PendingSignals()
        pending.post(SIGUSR1, SigCause())
        pending.post(SIGUSR2, SigCause())
        sig, _ = pending.take_in(SigSet([SIGUSR2]))
        assert sig == SIGUSR2
        assert SIGUSR1 in pending.signals()

    def test_fifo_order(self):
        pending = PendingSignals()
        pending.post(SIGUSR2, SigCause())
        pending.post(SIGUSR1, SigCause())
        sig, _ = pending.take_unmasked(SigSet())
        assert sig == SIGUSR2


class TestAttrs:
    def test_thread_attr_defaults_valid(self):
        ThreadAttr().validated()

    def test_thread_attr_bad_priority(self):
        with pytest.raises(ValueError):
            ThreadAttr(priority=-1).validated()
        with pytest.raises(ValueError):
            ThreadAttr(priority=128).validated()

    def test_thread_attr_bad_policy(self):
        with pytest.raises(ValueError):
            ThreadAttr(policy="lottery").validated()

    def test_thread_attr_bad_detach(self):
        with pytest.raises(ValueError):
            ThreadAttr(detach_state="bogus").validated()

    def test_thread_attr_tiny_stack(self):
        with pytest.raises(ValueError):
            ThreadAttr(stack_size=100).validated()

    def test_thread_attr_copy_independent(self):
        a = ThreadAttr(priority=10)
        b = a.copy()
        b.priority = 99
        assert a.priority == 10

    def test_mutex_attr_defaults(self):
        attr = MutexAttr().validated()
        assert attr.protocol == cfg.PRIO_NONE

    def test_mutex_attr_bad_protocol(self):
        with pytest.raises(ValueError):
            MutexAttr(protocol="magic").validated()

    def test_mutex_attr_bad_ceiling(self):
        with pytest.raises(ValueError):
            MutexAttr(prioceiling=999).validated()

    def test_cond_attr(self):
        assert CondAttr(name="c").validated().name == "c"


class TestConfig:
    def test_defaults_valid(self):
        cfg.RuntimeConfig()

    def test_bad_pool_size(self):
        with pytest.raises(ValueError):
            cfg.RuntimeConfig(pool_size=-1)

    def test_bad_unboost_placement(self):
        with pytest.raises(ValueError):
            cfg.RuntimeConfig(unboost_placement="middle")

    def test_bad_mixing_mode(self):
        with pytest.raises(ValueError):
            cfg.RuntimeConfig(mixed_protocol_unlock="both")

    def test_check_priority(self):
        assert cfg.check_priority(0) == 0
        assert cfg.check_priority(127) == 127
        with pytest.raises(ValueError):
            cfg.check_priority(128)
