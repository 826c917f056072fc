"""Unit tests for per-process UNIX signal state."""

from repro.unix.signals import ProcessSignals, SigAction, SigCause
from repro.unix.sigset import SIG_DFL, SIGUSR1, SIGUSR2, SigSet

import pytest


def test_cause_kinds_validated():
    with pytest.raises(ValueError):
        SigCause(kind="bogus")


def test_post_marks_pending():
    ps = ProcessSignals()
    assert ps.post(SIGUSR1, SigCause())
    assert SIGUSR1 in ps.pending.signals()


def test_single_slot_loses_duplicates():
    """BSD keeps one pending slot per signal: the second arrival while
    the first is still pending is lost (the hazard the paper's
    minimal-masking design fights)."""
    ps = ProcessSignals()
    ps.post(SIGUSR1, SigCause())
    assert not ps.post(SIGUSR1, SigCause())
    assert ps.pending.lost == 1


def test_take_deliverable_respects_mask():
    ps = ProcessSignals()
    ps.set_mask(SigSet([SIGUSR1]))
    ps.post(SIGUSR1, SigCause())
    assert ps.take_deliverable() is None
    ps.set_mask(SigSet())
    sig, _cause = ps.take_deliverable()
    assert sig == SIGUSR1


def test_take_deliverable_fifo_among_unmasked():
    ps = ProcessSignals()
    ps.post(SIGUSR2, SigCause())
    ps.post(SIGUSR1, SigCause())
    assert ps.take_deliverable()[0] == SIGUSR2
    assert ps.take_deliverable()[0] == SIGUSR1


def test_masked_signal_skipped_not_dropped():
    ps = ProcessSignals()
    ps.set_mask(SigSet([SIGUSR2]))
    ps.post(SIGUSR2, SigCause())
    ps.post(SIGUSR1, SigCause())
    assert ps.take_deliverable()[0] == SIGUSR1
    assert SIGUSR2 in ps.pending.signals()


def test_set_mask_returns_old():
    ps = ProcessSignals()
    old = ps.set_mask(SigSet([SIGUSR1]))
    assert old == SigSet()
    old = ps.set_mask(SigSet())
    assert old == SigSet([SIGUSR1])


def test_block_accumulates():
    ps = ProcessSignals()
    ps.block(SigSet([SIGUSR1]))
    ps.block(SigSet([SIGUSR2]))
    assert SIGUSR1 in ps.mask and SIGUSR2 in ps.mask


def test_actions_default_until_installed():
    ps = ProcessSignals()
    assert ps.get_action(SIGUSR1).handler == SIG_DFL
    old = ps.set_action(SIGUSR1, SigAction(handler=lambda s, c: None))
    assert old.handler == SIG_DFL
    assert callable(ps.get_action(SIGUSR1).handler)


def test_a_runtime_builds_one_sigaction(monkeypatch):
    """The universal handler's action is the only one a runtime builds:
    the 29 ``sigaction`` calls installing it, and every lookup of a
    signal with no action, read one shared default disposition."""
    from repro.core.runtime import PthreadsRuntime

    built = []
    init = SigAction.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SigAction, "__init__", counted)
    runtime = PthreadsRuntime()
    assert len(built) == 1
    signals = ProcessSignals()
    assert signals.get_action(SIGUSR1).is_default()
    assert len(built) == 1
    assert runtime.unix.syscall_counts["sigaction"] == 29


def test_discard_pending():
    ps = ProcessSignals()
    ps.post(SIGUSR1, SigCause())
    ps.pending.discard(SIGUSR1)
    assert not ps.pending.signals()
    assert ps.take_deliverable() is None
