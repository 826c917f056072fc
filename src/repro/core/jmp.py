"""``setjmp`` / ``longjmp`` over simulated frames.

On SunOS, ``setjmp`` performs the same ``ST_FLUSH_WINDOWS`` trap a
context switch does -- which is why the paper uses a setjmp/longjmp
pair as the lower bound on context-switch cost (Table 2).  Both costs
are charged here through the register-window model.

Python generators cannot re-deliver a second return from the same call
site, so the C idiom ``if (setjmp(buf)) ... else ...`` is expressed as
a *structured block*::

    buf = yield pt.jmp_buf()
    jumped, value = yield pt.setjmp_block(buf, body_fn, *args)

``body_fn`` runs as a nested frame; a ``pt.longjmp(buf, v)`` anywhere
below it unwinds back to the block, which then returns ``(True, v)``.
Normal completion returns ``(False, body_result)``.  DESIGN.md section
1 documents this as the one semantic substitution in the reproduction.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.core.errors import EINVAL
from repro.core.libbase import BLOCKED, LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs

_buf_ids = itertools.count(1)


class JmpBuf:
    """A jump buffer: identifies one active ``setjmp_block`` frame."""

    def __init__(self) -> None:
        self.bid = next(_buf_ids)
        self.thread: Optional[Tcb] = None
        self.depth = -1  # frame-stack depth of the block's body frame
        self.armed = False

    def __repr__(self) -> str:
        return "JmpBuf(#%d, armed=%s)" % (self.bid, self.armed)


class JmpOps(LibraryOps):
    """Entry points for the jump machinery."""

    ENTRIES = {
        "jmp_buf_new": "lib_jmp_buf_new",
        "setjmp_block": "lib_setjmp_block",
        "longjmp": "lib_longjmp",
    }

    def lib_jmp_buf_new(self, tcb: Tcb) -> JmpBuf:
        del tcb
        self.rt.world.spend(costs.INSN)
        return JmpBuf()

    def lib_setjmp_block(
        self, tcb: Tcb, buf: JmpBuf, fn: Any, *args: Any
    ) -> object:
        """Arm ``buf`` and run ``fn(pt, *args)`` as a nested frame."""
        rt = self.rt
        # setjmp saves the register state: flush windows + store.
        rt.world.windows.flush()
        rt.world.spend(costs.SETJMP_SAVE)
        buf.thread = tcb
        buf.armed = True
        rt.push_frame(
            tcb,
            fn,
            args,
            kind="user",
            on_pop=lambda value: self._disarm(buf),
            deliver_to_caller=False,
        )
        buf.depth = tcb.frames.depth()
        # Normal completion: the block returns (False, body_result).
        # (The body frame's on_pop disarms; we intercept the value by
        # delivering it ourselves.)
        frames = list(tcb.frames)
        body_frame = frames[-1]
        caller_frame = frames[-2]
        original_on_pop = body_frame.on_pop

        def _on_pop(value: Any) -> None:
            original_on_pop(value)
            caller_frame.pending_value = (False, value)

        body_frame.on_pop = _on_pop
        return BLOCKED  # the block's result arrives via _on_pop/longjmp

    def _disarm(self, buf: JmpBuf) -> None:
        buf.armed = False

    def lib_longjmp(self, tcb: Tcb, buf: JmpBuf, value: Any = 1) -> object:
        """Unwind to ``buf``'s block; it returns ``(True, value)``."""
        rt = self.rt
        if not buf.armed or buf.thread is not tcb:
            return EINVAL  # jumping across threads / into a dead block
        if buf.depth > tcb.frames.depth():
            buf.armed = False
            return EINVAL
        rt.world.spend(costs.LONGJMP_RESTORE)
        # Unwind every frame above and including the block's body.
        dropped = tcb.frames.unwind_to(buf.depth - 1)
        if tcb.stack is not None:
            for frame in dropped:
                tcb.stack.pop(frame.frame_bytes)
        buf.armed = False
        # Reloading the target frame takes the underflow trap.
        rt.world.windows.switch_in()
        tcb.frames.top.pending_value = (True, value)
        rt.world.emit("longjmp", thread=tcb.name, buf=buf.bid)
        return BLOCKED
