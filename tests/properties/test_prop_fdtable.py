"""Property: ``FdTable`` hands out the lowest free descriptor (POSIX).

Random alloc/close programs are checked against a brute-force reference
that scans upward from ``FIRST_FD`` for the first unused descriptor.
"""

from hypothesis import given, settings, strategies as st

from repro.core.fdtable import FIRST_FD, FdTable

# ``None`` allocs; an int closes the live fd at that index (mod count),
# or, for multiples of four or when nothing is live, the raw fd
# ``FIRST_FD + op`` (live, already closed or never opened).
OPS = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    max_size=120,
)


def _lowest_free(live):
    fd = FIRST_FD
    while fd in live:
        fd += 1
    return fd


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_alloc_matches_lowest_free_reference(ops):
    table = FdTable()
    live = {}
    for index, op in enumerate(ops):
        if op is None:
            expected = _lowest_free(live)
            assert table.alloc(index) == expected
            live[expected] = index
        else:
            fds = sorted(live)
            fd = fds[op % len(fds)] if fds and op % 4 else FIRST_FD + op
            assert table.close(fd) == live.pop(fd, None)
        assert table.fds() == sorted(live)
        assert len(table) == len(live)
