"""Descriptor routing must not move virtual time.

``IoOps._io`` now resolves descriptors through the runtime's
:class:`~repro.core.fdtable.FdTable` before falling back to the legacy
``device=`` keyword.  Three regressions pinned here, all exact:

- the legacy keyword path runs bit-identically to the pre-fd-table
  library (resolution is pure bookkeeping, no cycles);
- an fd *installed* in the table reaches the same device at the same
  cost as the keyword did;
- attaching an idle network stack changes nothing.
"""

from repro.core.errors import OK
from tests.conftest import RxLog, make_runtime


def _disk_workload(fd):
    """Mixed reads/writes addressed by descriptor ``fd``."""

    def main(pt):
        log = []
        for i in range(4):
            log.append((yield pt.read(fd, 1024 * (i + 1))))
            log.append((yield pt.write(fd, 512)))
        assert all(err == OK for err, __ in log)
        assert [n for __, n in log] == [1024, 512, 2048, 512, 3072, 512, 4096, 512]

    return main


def _run(install_fd=False, net_idle=False):
    rt = make_runtime()
    device = rt.add_io_device("disk0", latency_us=250.0)
    if net_idle:
        rt.add_net_stack()
    if install_fd:
        fd = rt.fds.alloc(device)
        assert fd == 3  # first descriptor above stdio
    else:
        fd = 3  # unmapped: falls back to the device= keyword
    rt.main(_disk_workload(fd), priority=100)
    rt.run()
    return rt


def test_fd_table_routing_is_bit_identical_to_the_legacy_keyword():
    legacy = _run(install_fd=False)
    routed = _run(install_fd=True)
    assert routed.world.now == legacy.world.now
    assert dict(routed.unix.syscall_counts) == dict(legacy.unix.syscall_counts)
    assert routed.dispatcher.context_switches == legacy.dispatcher.context_switches


def test_idle_net_stack_does_not_perturb_disk_io():
    bare = _run(install_fd=False)
    with_net = _run(install_fd=False, net_idle=True)
    assert with_net.world.now == bare.world.now
    assert dict(with_net.unix.syscall_counts) == dict(bare.unix.syscall_counts)


def test_disk_fd_and_socket_fd_share_one_descriptor_space():
    out = {}

    def main(pt):
        rt = pt.runtime
        disk_fd = rt.fds.alloc(rt.io_devices["disk0"])
        sock_fd = yield pt.socket()
        assert disk_fd != sock_fd
        out["disk"] = yield pt.read(disk_fd, 4096)
        err = yield pt.bind(sock_fd, 80)
        assert err == OK
        err = yield pt.listen(sock_fd, 2)
        assert err == OK
        rt.net.remote_connect(80, RxLog())
        err, conn_fd = yield pt.accept(sock_fd)
        assert err == OK
        out["sock"] = yield pt.write(conn_fd, 77)  # socket: send
        out["disk2"] = yield pt.write(disk_fd, 256)  # device: disk write
        yield pt.close(conn_fd)
        yield pt.close(sock_fd)

    rt = make_runtime()
    rt.add_io_device("disk0", latency_us=100.0)
    rt.add_net_stack(latency_us=30.0)
    rt.main(main, priority=100)
    rt.run()
    assert out["disk"] == (OK, 4096)
    assert out["sock"] == (OK, 77)
    assert out["disk2"] == (OK, 256)
