"""A thread-safe stdio layer: the paper's reentrancy future-work item.

"A major obstacle to the use of threads is to make C libraries
reentrant for threads.  Several library calls use global state
information, some interfaces are non-reentrant ... This issue has not
been addressed yet to supplement our implementation with a thread-safe
C library."  This module addresses it for the canonical offender,
stdio: every stream carries a mutex (flockfile-style), writes are
line-buffered in per-stream state, and an unlocked variant is kept so
tests can demonstrate the interleaving corruption the locked API
prevents.

Usage (from thread code)::

    stdio = yield pt.lib_raw("stdio_open", "log")
    yield pt.call(stdio_puts, stdio, "hello from %s" % name)
    ...
    lines = stdio.drain()
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.core.attr import MutexAttr
from repro.core.libbase import LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs

_stream_ids = itertools.count(1)


class Stream:
    """A buffered output stream with a flockfile-style mutex."""

    def __init__(self, runtime, name: Optional[str] = None) -> None:
        self.stream_id = next(_stream_ids)
        self.name = name or "stream-%d" % self.stream_id
        self.mutex = runtime.mutex_ops.lib_mutex_init(
            None, MutexAttr(name="%s.flock" % self.name)
        )
        #: The character buffer for the line being assembled (the
        #: "global state information" that makes naive stdio
        #: non-reentrant).
        self.partial: List[str] = []
        self.lines: List[str] = []
        #: Simulated cycles per character (tunable so tests can place
        #: preemption points inside a line).
        self.char_cost = 5

    def drain(self) -> List[str]:
        out = self.lines
        self.lines = []
        return out

    def __repr__(self) -> str:
        return "Stream(%s, %d lines buffered)" % (
            self.name, len(self.lines),
        )


class StdioOps(LibraryOps):
    """Stream creation entry point."""

    ENTRIES = {"stdio_open": "lib_stdio_open"}

    def lib_stdio_open(self, tcb: Tcb, name: Optional[str] = None) -> Stream:
        del tcb
        self.rt.world.spend(costs.SEM_OVERHEAD)
        return Stream(self.rt, name)


def stdio_puts(pt, stream: Stream, text: str):
    """Thread-safe ``fputs``: the whole line appears atomically."""
    yield pt.mutex_lock(stream.mutex)
    yield from _emit_chars(pt, stream, text)
    yield pt.mutex_unlock(stream.mutex)
    return len(text)


def stdio_puts_unlocked(pt, stream: Stream, text: str):
    """``fputs_unlocked``: fast, but corrupts output under concurrency
    (kept to demonstrate *why* the locking layer exists)."""
    yield from _emit_chars(pt, stream, text)
    return len(text)


def _emit_chars(pt, stream: Stream, text: str):
    """Character-at-a-time emission into the shared line buffer --
    preemptible between characters, exactly like real stdio's buffer
    manipulation is preemptible at instruction granularity.  Without
    the stream mutex, concurrent writers interleave characters and
    steal each other's partially assembled lines."""
    for char in text:
        stream.partial.append(char)
        yield pt.work(stream.char_cost)  # preemption point per char
    stream.lines.append("".join(stream.partial))
    stream.partial = []
