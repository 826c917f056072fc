"""External signals: UNIX delivery, demultiplexing, the two-sigsetmask
budget, pending on the process (delivery-model rule 6)."""

from repro.core.signals import SIG_BLOCK, SIG_UNBLOCK
from repro.unix.sigset import SIGUSR1, SIGUSR2, SigSet
from tests.conftest import make_runtime


def _external(rt, sig, at_us):
    rt.world.schedule_in(
        rt.world.cycles_for_us(at_us),
        lambda: rt.unix.kill(rt.proc, sig),
        name="external-%d" % sig,
    )


def test_external_signal_demultiplexed_to_unmasked_thread():
    hits = []

    def handler(pt, sig):
        me = yield pt.self_id()
        hits.append(me.name)

    def receiver(pt):
        yield pt.work(200_000)

    def main(pt):
        from repro.core.attr import ThreadAttr

        yield pt.sigaction(SIGUSR1, handler)
        # Main masks the signal; only the receiver is eligible
        # (rule 5's linear search).
        yield pt.sigmask(SIG_BLOCK, SigSet([SIGUSR1]))
        r = yield pt.create(
            receiver, attr=ThreadAttr(priority=40), name="receiver"
        )
        yield pt.join(r)

    rt = make_runtime()
    rt.main(main, priority=50)
    _external(rt, SIGUSR1, at_us=2_000)
    rt.run()
    assert hits == ["receiver"]


def test_two_sigsetmask_calls_per_external_signal():
    """The paper: "this implementation uses two calls to sigsetmask for
    each signal received by the process"."""

    def handler(pt, sig):
        yield pt.work(1)

    def main(pt):
        yield pt.sigaction(SIGUSR1, handler)
        yield pt.work(400_000)

    rt = make_runtime()
    rt.main(main)
    for i in range(3):
        _external(rt, SIGUSR1, at_us=1_500 * (i + 1))
    before = rt.unix.syscall_counts["sigsetmask"]
    rt.run()
    per_signal = (rt.unix.syscall_counts["sigsetmask"] - before) / 3
    assert per_signal == 2


def test_signal_with_no_eligible_thread_pends_on_process():
    hits = []

    def handler(pt, sig):
        hits.append("ran")
        yield pt.work(1)

    def main(pt):
        yield pt.sigaction(SIGUSR2, handler)
        yield pt.sigmask(SIG_BLOCK, SigSet([SIGUSR2]))
        yield pt.work(100_000)  # signal arrives: nobody can take it
        assert not hits
        assert pt.runtime.process_pending
        yield pt.sigmask(SIG_UNBLOCK, SigSet([SIGUSR2]))
        # Unmasking makes us eligible: rule 6's pend is drained.

    rt = make_runtime()
    rt.main(main)
    _external(rt, SIGUSR2, at_us=1_500)
    rt.run()
    assert hits == ["ran"]
    assert not rt.process_pending


def test_interrupted_thread_resumes_through_sigreturn():
    """The interrupted thread returns from the universal handler frame
    when redispatched: the interrupt-frame list must drain."""

    def handler(pt, sig):
        yield pt.work(5)

    def main(pt):
        yield pt.sigaction(SIGUSR1, handler)
        yield pt.work(200_000)

    rt = make_runtime()
    rt.main(main)
    _external(rt, SIGUSR1, at_us=2_000)
    rt.run()
    for tcb in rt.threads.values():
        assert not tcb.pending_interrupt_frames
    assert rt.proc.signals.mask == SigSet()


def test_signal_burst_counts_lost_signals_at_unix_level():
    """Two identical signals racing the single BSD pending slot: the
    second is lost if the first has not been delivered yet."""

    def main(pt):
        yield pt.sigmask(SIG_BLOCK, SigSet([SIGUSR1]))
        yield pt.work(50_000)

    rt = make_runtime()
    rt.main(main)
    # Both posted while the process-level mask blocks delivery... the
    # universal handler is installed for SIGUSR1, but the *thread* mask
    # defers it, so the UNIX slot frees quickly.  Use the raw process
    # mask instead to exercise the UNIX-level slot:
    rt.world.schedule_in(
        rt.world.cycles_for_us(100),
        lambda: rt.proc.signals.set_mask(SigSet([SIGUSR1])),
        name="mask",
    )
    _external(rt, SIGUSR1, at_us=200)
    _external(rt, SIGUSR1, at_us=300)
    rt.world.schedule_in(
        rt.world.cycles_for_us(400),
        lambda: rt.proc.signals.pending.discard(SIGUSR1),
        name="drain",
    )
    rt.world.schedule_in(
        rt.world.cycles_for_us(500),
        lambda: rt.proc.signals.set_mask(SigSet()),
        name="unmask",
    )
    rt.run()
    assert rt.proc.signals.pending.lost == 1
