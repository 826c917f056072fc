"""The per-process file-descriptor table.

UNIX routes ``read``/``write`` by descriptor; the library used to route
by a ``device="disk0"`` keyword instead, which cannot name a socket.
:class:`FdTable` restores the UNIX shape: small integers mapping to
whatever object services the descriptor (an
:class:`~repro.unix.io.IoDevice` or a :class:`~repro.unix.net.Socket`).

Descriptors 0-2 are reserved for the stdio trio, as on a real process.
The table is pure bookkeeping: constructing it and resolving an fd
charge no cycles, so a runtime that never installs an entry behaves
bit-identically to one built before this table existed (the legacy
``device=`` keyword keeps working as a fallback in
:meth:`repro.core.iolib.IoOps._io`).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

#: First descriptor handed out (0-2 belong to stdin/stdout/stderr).
FIRST_FD = 3


class FdTable:
    """fd -> servicing object (device or socket) for one process."""

    def __init__(self) -> None:
        #: fd -> servicing object.  Read it directly for a one-lookup
        #: resolve (the socket calls do); change it only through
        #: :meth:`alloc` and :meth:`close`.
        self.entries: Dict[int, Any] = {}
        #: Every descriptor at or above this high-water mark is free.
        self._high = FIRST_FD
        #: Min-heap of the freed descriptors below ``_high``: with it,
        #: ``alloc`` finds the lowest free fd without probing ``entries``.
        self._freed: List[int] = []
        self.opened = 0
        self.closed = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fd: int) -> bool:
        return fd in self.entries

    def alloc(self, obj: Any) -> int:
        """Install ``obj`` under the lowest unused descriptor."""
        if self._freed:
            fd = heapq.heappop(self._freed)
        else:
            fd = self._high
            self._high = fd + 1
        self.entries[fd] = obj
        self.opened += 1
        return fd

    def get(self, fd: int) -> Optional[Any]:
        """The object servicing ``fd`` (None when unmapped)."""
        return self.entries.get(fd)

    def close(self, fd: int) -> Optional[Any]:
        """Unmap ``fd``; returns the evicted object (None if unmapped).

        Freed descriptors are reused lowest-first, the POSIX rule
        (``open`` returns the lowest available descriptor).
        """
        obj = self.entries.pop(fd, None)
        if obj is not None:
            self.closed += 1
            heapq.heappush(self._freed, fd)
        return obj

    def fds(self):
        """Live descriptors (ascending)."""
        return sorted(self.entries)

    def __repr__(self) -> str:
        return "FdTable(open=%d)" % len(self.entries)
