"""The per-process descriptor table (pure bookkeeping, no cycles)."""

from repro.core.fdtable import FIRST_FD, FdTable


def test_alloc_starts_above_stdio():
    table = FdTable()
    assert table.alloc("a") == FIRST_FD
    assert table.alloc("b") == FIRST_FD + 1
    assert table.alloc("c") == FIRST_FD + 2


def test_get_resolves_and_unmapped_is_none():
    table = FdTable()
    fd = table.alloc("disk")
    assert table.get(fd) == "disk"
    assert table.get(fd + 1) is None
    assert table.get(0) is None  # stdio fds are never mapped here


def test_close_returns_evicted_object_and_unmaps():
    table = FdTable()
    fd = table.alloc("sock")
    assert table.close(fd) == "sock"
    assert table.get(fd) is None
    assert table.close(fd) is None  # double close: already unmapped


def test_lowest_fd_reuse_follows_posix():
    table = FdTable()
    a = table.alloc("a")
    b = table.alloc("b")
    c = table.alloc("c")
    table.close(b)
    assert table.alloc("d") == b  # lowest freed slot first
    assert table.alloc("e") == c + 1
    assert table.get(a) == "a"


def test_counters_track_lifetime_totals():
    table = FdTable()
    fds = [table.alloc(i) for i in range(4)]
    for fd in fds[:3]:
        table.close(fd)
    assert table.opened == 4
    assert table.closed == 3
    assert len(table) == 1


def test_len_contains_and_fds_listing():
    table = FdTable()
    a = table.alloc("a")
    b = table.alloc("b")
    assert len(table) == 2
    assert a in table and b in table
    assert (b + 1) not in table
    assert table.fds() == [a, b]


class _CountingDict(dict):
    """An ``entries`` dict that counts membership probes."""

    probes = 0

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_alloc_after_reuse_does_not_scan_open_descriptors():
    """Close one, alloc two, over many open fds: each alloc finds the
    lowest free descriptor without walking the live entries."""
    table = FdTable()
    table.entries = counting = _CountingDict()
    fds = [table.alloc(i) for i in range(2_000)]
    allocs = len(fds)
    for fd in fds[:200:2]:
        table.close(fd)
        assert table.alloc("reuse") == fd
        table.alloc("next")
        allocs += 2
    assert counting.probes <= allocs
