"""Internal (pthread_kill) signal delivery and per-thread masks."""

import pytest

from repro.core.errors import EINVAL, ESRCH, OK
from repro.core.fakecall import UserAction
from repro.core.signals import SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK
from repro.unix.signals import InterruptFrame, SigCause
from repro.unix.sigset import SIGCANCEL, SIGUSR1, SIGUSR2, SigSet
from tests.conftest import make_runtime, run_program


def _handler_into(log):
    def handler(pt, sig):
        log.append(("handler", sig))
        yield pt.work(5)

    return handler


def test_kill_runs_handler_on_target_thread():
    log = []

    def victim(pt):
        me = yield pt.self_id()
        log.append(("victim", me.name))
        yield pt.work(50_000)

    def main(pt):
        yield pt.sigaction(SIGUSR1, _handler_into(log))
        v = yield pt.create(victim, name="victim")
        yield pt.delay_us(200)  # victim starts its burst
        yield pt.kill(v, SIGUSR1)
        yield pt.join(v)

    run_program(main, priority=90)
    assert ("handler", SIGUSR1) in log


def test_kill_bad_args():
    out = {}

    def main(pt):
        me = yield pt.self_id()
        out["badsig"] = yield pt.kill(me, 0)
        out["badthread"] = yield pt.kill("not-a-thread", SIGUSR1)

    run_program(main)
    assert out == {"badsig": EINVAL, "badthread": ESRCH}


def test_masked_signal_pends_on_thread_until_unmasked():
    log = []

    def victim(pt):
        yield pt.sigmask(SIG_BLOCK, SigSet([SIGUSR1]))
        yield pt.work(20_000)
        log.append("before-unmask")
        yield pt.sigmask(SIG_UNBLOCK, SigSet([SIGUSR1]))
        log.append("after-unmask")
        yield pt.work(10)

    def main(pt):
        yield pt.sigaction(SIGUSR1, _handler_into(log))
        v = yield pt.create(victim, name="victim")
        yield pt.delay_us(200)
        yield pt.kill(v, SIGUSR1)  # lands while masked
        yield pt.join(v)

    run_program(main, priority=90)
    assert log.index("before-unmask") < log.index(("handler", SIGUSR1))
    assert log.index(("handler", SIGUSR1)) < log.index("after-unmask")


def test_setmask_returns_old_mask():
    out = {}

    def main(pt):
        err, old = yield pt.sigmask(SIG_SETMASK, SigSet([SIGUSR1]))
        out["first_old"] = old
        err, old = yield pt.sigmask(SIG_SETMASK, SigSet())
        out["second_old"] = old

    run_program(main)
    assert out["first_old"] == SigSet()
    assert out["second_old"] == SigSet([SIGUSR1])


def test_sigaction_rejects_cancellation_signal():
    out = {}

    def main(pt):
        err, _ = yield pt.sigaction(SIGCANCEL, _handler_into([]))
        out["err"] = err

    run_program(main)
    assert out["err"] == EINVAL


def test_thread_sigpending_reports_parked_signal():
    out = {}

    def main(pt):
        me = yield pt.self_id()
        yield pt.sigaction(SIGUSR2, _handler_into([]))
        yield pt.sigmask(SIG_BLOCK, SigSet([SIGUSR2]))
        yield pt.kill(me, SIGUSR2)
        pending = yield pt.thread_sigpending()
        out["pending"] = SIGUSR2 in pending
        yield pt.sigmask(SIG_UNBLOCK, SigSet([SIGUSR2]))
        pending = yield pt.thread_sigpending()
        out["after"] = SIGUSR2 in pending

    run_program(main)
    assert out == {"pending": True, "after": False}


def test_self_signal_runs_handler_before_continuing():
    """Figure 3: a fake call onto the running thread itself."""
    log = []

    def main(pt):
        me = yield pt.self_id()
        yield pt.sigaction(SIGUSR1, _handler_into(log))
        log.append("pre")
        yield pt.kill(me, SIGUSR1)
        log.append("post")

    run_program(main)
    assert log == ["pre", ("handler", SIGUSR1), "post"]


def test_handler_mask_applied_during_handler():
    observed = {}

    def handler(pt, sig):
        me = yield pt.self_id()
        observed["mask"] = me.sigmask.copy()
        yield pt.work(1)

    def main(pt):
        me = yield pt.self_id()
        yield pt.sigaction(SIGUSR1, handler, mask=SigSet([SIGUSR2]))
        yield pt.kill(me, SIGUSR1)
        observed["after"] = me.sigmask.copy()

    run_program(main)
    assert SIGUSR1 in observed["mask"]  # the signal itself
    assert SIGUSR2 in observed["mask"]  # the sigaction mask
    assert observed["after"] == SigSet()


def test_errno_saved_and_restored_around_handler():
    out = {}

    def handler(pt, sig):
        yield pt.set_errno(77)  # handler scribbles on errno

    def main(pt):
        me = yield pt.self_id()
        yield pt.sigaction(SIGUSR1, handler)
        yield pt.set_errno(13)
        yield pt.kill(me, SIGUSR1)
        out["errno"] = yield pt.get_errno()

    run_program(main)
    assert out["errno"] == 13


def test_signal_to_lazy_thread_activates_it():
    log = []

    def lazy_body(pt):
        log.append("lazy-ran")
        yield pt.work(1)

    def main(pt):
        from repro.core.attr import ThreadAttr

        t = yield pt.create(lazy_body, attr=ThreadAttr(lazy=True))
        yield pt.sigaction(SIGUSR1, _handler_into(log))
        yield pt.kill(t, SIGUSR1)  # synchronisation: activates
        yield pt.join(t)

    run_program(main)
    assert "lazy-ran" in log


_SIGNAL_STORES = {
    "thread-pending": lambda rt, tcb, cause: tcb.pending.post(SIGUSR1, cause),
    "thread-mask": lambda rt, tcb, cause: tcb.sigmask.add(SIGUSR1),
    "thread-frames": lambda rt, tcb, cause: (
        tcb.pending_interrupt_frames.append(
            InterruptFrame(SIGUSR1, cause, SigSet())
        )
    ),
    "process-pending": lambda rt, tcb, cause: (
        rt.proc.signals.pending.post(SIGUSR1, cause)
    ),
    "process-mask": lambda rt, tcb, cause: rt.proc.signals.mask.add(SIGUSR1),
    "rule-6": lambda rt, tcb, cause: rt.process_pending.append(
        (SIGUSR1, cause)
    ),
    "deferred-log": lambda rt, tcb, cause: rt.kern.deferred_signals.append(
        (SIGUSR1, cause)
    ),
    "user-action": lambda rt, tcb, cause: rt.user_actions.__setitem__(
        SIGUSR1, UserAction(_handler_into([]))
    ),
}


@pytest.mark.parametrize("store", sorted(_SIGNAL_STORES))
def test_state_digest_covers_signal_state(store):
    """Two runtimes that differ only by one SIGUSR1 in one signal
    store must not digest alike."""

    def main(pt):
        yield pt.work(10)

    digests = []
    for change in (False, True):
        rt = make_runtime()
        tcb = rt.main(main)
        if change:
            _SIGNAL_STORES[store](rt, tcb, SigCause(kind="external"))
        digests.append(rt.state_digest())
    assert digests[0] != digests[1]
