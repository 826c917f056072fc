"""The first-class kernel/user I/O channel (Open Problems proposal)."""

import pytest

from repro.core.attr import ThreadAttr
from repro.core.errors import OK
from tests.conftest import make_runtime


def test_fc_read_returns_correct_result():
    out = {}

    def reader(pt):
        out["r"] = yield pt.read(3, 4096)

    def main(pt):
        t = yield pt.create(reader)
        yield pt.join(t)

    rt = make_runtime()
    rt.add_io_device("disk0", latency_us=300.0, first_class=True)
    rt.main(main)
    rt.run()
    assert out["r"] == (OK, 4096)


def test_fc_completions_wake_only_their_requester():
    results = []

    def reader(pt, tag, nbytes):
        err, got = yield pt.read(1, nbytes)
        results.append((tag, got))

    def main(pt):
        a = yield pt.create(reader, "a", 111)
        b = yield pt.create(reader, "b", 222)
        yield pt.join(a)
        yield pt.join(b)

    rt = make_runtime()
    rt.add_io_device("disk0", latency_us=400.0, first_class=True)
    rt.main(main)
    rt.run()
    assert sorted(results) == [("a", 111), ("b", 222)]


def test_fc_completion_inside_kernel_is_deferred_to_dispatcher():
    """A completion landing while the kernel flag is set must queue as
    a deferred upcall and drain through the dispatcher (the monitor
    discipline applies to upcalls too)."""
    out = {}

    def reader(pt):
        out["r"] = yield pt.read(1, 64)

    def main(pt):
        rt = pt.runtime
        t = yield pt.create(reader, attr=ThreadAttr(priority=90))
        # Arrange the completion event to land inside a kernel section:
        # schedule it just after the next kernel entry begins.
        target = rt.world.now + rt.world.cycles_for_us(200.0)
        del target
        yield pt.join(t)
        out["restarts"] = rt.dispatcher.signal_restarts

    rt = make_runtime()
    device = rt.add_io_device("disk0", latency_us=150.0, first_class=True)
    del device
    rt.main(main, priority=50)
    rt.run()
    assert out["r"] == (OK, 64)


@pytest.mark.parametrize("first_class", [False, True])
def test_fc_wake_ignores_stale_requests(first_class):
    """If a handler interrupted the I/O wait (EINTR), the late
    completion -- a SIGIO or a first-class upcall, both ending in the
    one library wake -- must not corrupt the thread's state."""
    from repro.unix.sigset import SIGUSR1

    out = {}

    def handler(pt, sig):
        yield pt.work(1)

    def reader(pt):
        out["io"] = yield pt.read(1, 64)  # interrupted: EINTR
        t0 = pt.runtime.world.now_us
        # The stale completion arrives here and must not end the sleep.
        out["delay"] = yield pt.delay_us(40_000)
        out["slept_us"] = pt.runtime.world.now_us - t0

    def main(pt):
        yield pt.sigaction(SIGUSR1, handler)
        t = yield pt.create(reader, name="reader")
        yield pt.delay_us(100)
        yield pt.kill(t, SIGUSR1)
        yield pt.join(t)

    rt = make_runtime()
    device = rt.add_io_device(
        "disk0", latency_us=20_000.0, first_class=first_class
    )
    rt.main(main)
    rt.run()
    from repro.core.errors import EINTR

    assert device.completed == 1  # the stale completion did arrive

    assert out["io"] == EINTR
    assert out["delay"] == OK
    assert out["slept_us"] >= 40_000
    assert rt.terminated_by is None
