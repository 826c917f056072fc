"""Unit tests for the UNIX kernel object."""

import pytest

from repro.hw import costs
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.process import UnixProcess
from repro.unix.signals import DefaultActionTerminate, SigAction, SigCause
from repro.unix.sigset import SIGIO, SIGTERM, SIGUSR1, SigSet


def _kernel():
    world = World("sparc-ipx")
    return world, UnixKernel(world)


def _proc(kernel, auto=True):
    proc = UnixProcess(kernel, None, name="p")
    proc.auto_deliver = auto
    return proc


def test_pids_are_unique():
    world, kernel = _kernel()
    a = _proc(kernel)
    b = _proc(kernel)
    assert a.pid != b.pid
    assert kernel.find(a.pid) is a


def test_find_unknown_pid():
    world, kernel = _kernel()
    with pytest.raises(ProcessLookupError):
        kernel.find(424242)


def test_getpid_charges_syscall():
    world, kernel = _kernel()
    proc = _proc(kernel)
    before = world.now
    assert kernel.getpid(proc) == proc.pid
    spent = world.now - before
    assert spent >= world.model.cost(costs.SYSCALL)


def test_syscalls_counted():
    world, kernel = _kernel()
    proc = _proc(kernel)
    kernel.getpid(proc)
    kernel.getpid(proc)
    kernel.sigpending(proc)
    assert kernel.syscall_counts["getpid"] == 2
    assert kernel.total_syscalls == 3


def test_handler_runs_on_kill():
    world, kernel = _kernel()
    proc = _proc(kernel)
    hits = []
    kernel.sigaction(
        proc, SIGUSR1, SigAction(handler=lambda s, c: hits.append(s))
    )
    kernel.kill(proc, SIGUSR1)
    assert hits == [SIGUSR1]


def test_auto_return_restores_mask():
    world, kernel = _kernel()
    proc = _proc(kernel)
    kernel.sigaction(proc, SIGUSR1, SigAction(handler=lambda s, c: None))
    kernel.kill(proc, SIGUSR1)
    assert proc.signals.mask == SigSet()


def test_handler_mask_applied_during_handler():
    world, kernel = _kernel()
    proc = _proc(kernel)
    seen = []
    kernel.sigaction(
        proc,
        SIGUSR1,
        SigAction(
            handler=lambda s, c: seen.append(proc.signals.mask.copy()),
            mask=SigSet([SIGTERM]),
        ),
    )
    kernel.kill(proc, SIGUSR1)
    during = seen[0]
    assert SIGUSR1 in during  # the signal itself is blocked
    assert SIGTERM in during  # plus the sigaction mask


def test_default_action_terminates():
    world, kernel = _kernel()
    proc = _proc(kernel)
    with pytest.raises(DefaultActionTerminate):
        kernel.kill(proc, SIGTERM)


def test_default_ignored_signals_discarded():
    world, kernel = _kernel()
    proc = _proc(kernel)
    kernel.post_signal(proc, SIGIO, SigCause(kind="io"))  # no handler
    assert not proc.signals.pending.signals()


def test_masked_signal_stays_pending_until_sigsetmask():
    world, kernel = _kernel()
    proc = _proc(kernel)
    hits = []
    kernel.sigaction(
        proc, SIGUSR1, SigAction(handler=lambda s, c: hits.append(s))
    )
    kernel.sigsetmask(proc, SigSet([SIGUSR1]))
    kernel.kill(proc, SIGUSR1)
    assert hits == []
    kernel.sigsetmask(proc, SigSet())  # unmasking delivers
    assert hits == [SIGUSR1]


def test_manual_return_leaves_interrupt_frame():
    """A manual-return handler receives its interrupt frame; the mask
    stays raised until the library returns through that frame."""
    world, kernel = _kernel()
    proc = _proc(kernel)
    frames = []
    kernel.sigaction(
        proc,
        SIGUSR1,
        SigAction(
            handler=lambda s, c, frame: frames.append(frame),
            manual_return=True,
        ),
    )
    kernel.kill(proc, SIGUSR1)
    [frame] = frames
    assert frame.sig == SIGUSR1
    assert frame.saved_mask == SigSet()
    assert SIGUSR1 in proc.signals.mask
    kernel.sigreturn(proc, frame)
    assert proc.signals.mask == SigSet()


def test_non_current_process_delivery_deferred():
    world, kernel = _kernel()
    proc = _proc(kernel, auto=False)
    hits = []
    kernel.sigaction(
        proc, SIGUSR1, SigAction(handler=lambda s, c: hits.append(s))
    )
    kernel.kill(proc, SIGUSR1)
    assert hits == []  # queued: delivered when the process is scheduled
    kernel.deliver_signals(proc)
    assert hits == [SIGUSR1]


def test_heap_growth_goes_through_sbrk_syscall():
    world, kernel = _kernel()
    proc = _proc(kernel)
    heap = kernel.make_heap(proc, arena=128)
    heap.malloc(4096)
    assert kernel.syscall_counts["sbrk"] >= 1
