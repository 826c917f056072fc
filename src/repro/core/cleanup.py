"""Cleanup handlers.

The paper argues against the standard's suggested macro implementation
(``pthread_cleanup_push``/``pop`` as a macro pair opening a lexical
scope) because it cannot cross a language-independent interface, and
deliberately implements them as ordinary functions, "trading the
overhead of function calls ... for the generality and language-
independence of the interface".  We follow the paper: push and pop are
plain entry points over a per-thread stack of ``(handler, arg)``.

Handlers are generator functions ``handler(pt, arg)``: they run as
simulated frames on the dying (or popping) thread.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import EINVAL, OK
from repro.core.libbase import LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs


class CleanupOps(LibraryOps):
    """Entry points for cleanup handlers."""

    ENTRIES = {
        "cleanup_push": "lib_cleanup_push",
        "cleanup_pop": "lib_cleanup_pop",
    }

    def lib_cleanup_push(self, tcb: Tcb, handler: Any, arg: Any = None) -> int:
        """Push ``handler(pt, arg)`` onto the calling thread's stack."""
        if not callable(handler):
            return EINVAL
        self.rt.world.spend(costs.CLEANUP_OP)
        tcb.cleanup_stack.append((handler, arg))
        return OK

    def lib_cleanup_pop(self, tcb: Tcb, execute: bool = False) -> int:
        """Pop the most recent handler, running it if ``execute``."""
        rt = self.rt
        rt.world.spend(costs.CLEANUP_OP)
        if not tcb.cleanup_stack:
            return EINVAL
        handler, arg = tcb.cleanup_stack.pop()
        if execute:
            # The handler runs before this call "returns": its frame
            # goes on top; the pop's result is already pending below.
            rt.push_frame(
                tcb, handler, (arg,), kind="user", deliver_to_caller=False
            )
        return OK
