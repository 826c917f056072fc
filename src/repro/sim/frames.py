"""Simulated stack frames over Python generators.

A thread's stack is a :class:`FrameStack` of :class:`Frame` objects.
The bottom frame runs the thread's start routine; nested frames are
pushed by :class:`~repro.sim.ops.Invoke` ops (simulated function calls)
and by *fake calls* (the paper's mechanism for running user signal
handlers on a thread's own stack, Figure 3).

Python generators cannot be rewound, so a frame suspended mid-``Work``
records the remaining cycles (``remaining_work``) and the executor
finishes the burst before resuming the generator -- this is what makes
preemption land "between two instructions" of a compute burst.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple


class ProgramCrash(Exception):
    """A simulated program raised an unhandled Python exception."""

    def __init__(self, frame_name: str, original: BaseException) -> None:
        super().__init__(
            "program crashed in frame %r: %r" % (frame_name, original)
        )
        self.frame_name = frame_name
        self.original = original


class SimException(Exception):
    """An exception *inside* the simulated machine.

    Unlike arbitrary Python exceptions (which are bugs in simulated
    code and crash the run as :class:`ProgramCrash`), a
    ``SimException`` raised by a frame propagates to the caller frame
    -- thrown into its generator at the suspended ``yield`` -- so
    simulated programs can use ordinary ``try``/``except`` across
    simulated call boundaries.  The Ada runtime's exception semantics
    are built on this.
    """


class Frame:
    """One simulated stack frame.

    Attributes
    ----------
    gen:
        The generator executing this frame's code.
    name:
        Diagnostic name (usually the function name).
    kind:
        ``"user"`` for ordinary frames, ``"wrapper"`` for fake-call
        wrapper frames, ``"unix-interrupt"`` for the frame UNIX pushes
        when delivering a signal.
    frame_bytes:
        Simulated stack space consumed by this frame.
    pending_value / pending_exc:
        What to deliver into the generator on next resume.
    remaining_work:
        Cycles left of a preempted ``Work`` op.
    on_pop:
        Optional callback ``on_pop(return_value) -> Optional[Any]``
        invoked when the frame returns; its result (if not None)
        replaces the value delivered to the frame below.  Fake-call
        wrappers use this to restore signal masks and redirect control.
    meta:
        Free-form per-frame metadata (fake-call records and the like).
    seg_table:
        The segment compiler's location table for ``gen``'s code object
        (:meth:`repro.sim.segments.SegmentSpace.table_for`): the
        ``f_lasti`` where the generator stopped -> that location's
        segments, keyed by the op it yielded there, or its blacklist
        mark.  Resolved the first time the frame steps with segments on;
        None before.  A generator never changes code object, so the
        executor's per-step guard reads this slot instead of hashing the
        code.
    """

    __slots__ = (
        "gen",
        "name",
        "kind",
        "frame_bytes",
        "pending_value",
        "pending_exc",
        "remaining_work",
        "on_pop",
        "deliver_to_caller",
        "meta",
        "seg_table",
    )

    def __init__(
        self,
        gen: Generator[Any, Any, Any],
        name: str,
        kind: str = "user",
        frame_bytes: int = 96,
        on_pop: Optional[Callable[[Any], Optional[Any]]] = None,
        deliver_to_caller: bool = True,
    ) -> None:
        self.gen = gen
        self.name = name
        self.kind = kind
        self.frame_bytes = frame_bytes
        self.pending_value: Any = None
        self.pending_exc: Optional[BaseException] = None
        self.remaining_work = 0
        self.on_pop = on_pop
        # Ordinary calls return a value to the frame below; a fake-call
        # wrapper must NOT disturb the interrupted frame's pending state.
        self.deliver_to_caller = deliver_to_caller
        self.meta: Dict[str, Any] = {}
        self.seg_table: Optional[Dict[int, Any]] = None

    def resume(self) -> Tuple[str, Any]:
        """Advance the generator one step.

        Returns ``("op", op)`` when the frame yields its next op,
        ``("return", value)`` when it finishes, or ``("raise", exc)``
        when it lets a :class:`SimException` escape (to be rethrown in
        the caller frame).  Any other exception in simulated code
        surfaces as :class:`ProgramCrash`.
        """
        try:
            if self.pending_exc is not None:
                exc = self.pending_exc
                self.pending_exc = None
                op = self.gen.throw(exc)
            else:
                value = self.pending_value
                self.pending_value = None
                op = self.gen.send(value)
        except StopIteration as stop:
            return ("return", stop.value)
        except SimException as exc:
            return ("raise", exc)
        except ProgramCrash:
            raise
        except BaseException as exc:  # noqa: BLE001 - report simulated fault
            raise ProgramCrash(self.name, exc) from exc
        return ("op", op)

    def close(self) -> None:
        """Force-unwind the frame (GeneratorExit into the program)."""
        self.gen.close()

    def __repr__(self) -> str:
        return "Frame(%s, kind=%s)" % (self.name, self.kind)


class FrameStack:
    """A thread's stack of simulated frames (bottom first)."""

    __slots__ = ("_frames", "_special")

    def __init__(self) -> None:
        self._frames: List[Frame] = []
        # Count of wrapper/redirect frames on the stack, maintained at
        # push/pop so "is a signal handler running?" is O(1) for the
        # executor instead of a scan per Invoke.
        self._special = 0

    def __len__(self) -> int:
        return len(self._frames)

    def __bool__(self) -> bool:
        return bool(self._frames)

    def __iter__(self):
        return iter(self._frames)

    @property
    def top(self) -> Frame:
        if not self._frames:
            raise IndexError("frame stack is empty")
        return self._frames[-1]

    def push(self, frame: Frame) -> None:
        self._frames.append(frame)
        if frame.kind in ("wrapper", "redirect"):
            self._special += 1

    def pop(self) -> Frame:
        if not self._frames:
            raise IndexError("pop from empty frame stack")
        frame = self._frames.pop()
        if self._special and frame.kind in ("wrapper", "redirect"):
            self._special -= 1
        return frame

    def unwind_to(self, depth: int) -> List[Frame]:
        """Close and drop frames above ``depth``; returns them (top first)."""
        if depth < 0 or depth > len(self._frames):
            raise ValueError(
                "bad unwind depth %d (stack has %d)" % (depth, len(self._frames))
            )
        dropped: List[Frame] = []
        while len(self._frames) > depth:
            frame = self._frames.pop()
            if self._special and frame.kind in ("wrapper", "redirect"):
                self._special -= 1
            frame.close()
            dropped.append(frame)
        return dropped

    def unwind_all(self) -> List[Frame]:
        """Close every frame (thread exit / cancellation)."""
        return self.unwind_to(0)

    def depth(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        return "FrameStack(%s)" % ", ".join(f.name for f in self._frames)
