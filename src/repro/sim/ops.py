"""Operations yielded by simulated programs.

A simulated program is a Python generator; each ``yield`` hands the
executor one *op* and suspends the program at that instruction boundary.
The executor charges virtual time, performs the op, and resumes the
program with the op's result.

Ops are plain immutable descriptors.  The executor dispatches them by
exact class, so these four classes are the whole op set: an instance
of a subclass is rejected as a bad op.  User code never constructs
them directly -- the :class:`repro.core.api.PT` facade builds them,
e.g.::

    def body(pt):
        yield pt.work(500)              # Work: 500 cycles of computation
        err = yield pt.mutex_lock(m)    # LibCall into the Pthreads library
        pid = yield pt.unix.getpid()    # SysCall into the UNIX kernel
        v = yield pt.call(helper, 3)    # Invoke: nested simulated frame
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

# Ops are allocated once per executor step; plain __slots__ classes
# keep them cheap (a frozen dataclass pays object.__setattr__ per
# field).  Treat instances as immutable.


class Work:
    """Burn ``cycles`` of CPU time.  Preemptible: an asynchronous event
    due mid-burst splits the burst at the event's virtual instant."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("work cycles must be >= 0: %r" % (cycles,))
        self.cycles = cycles

    def __repr__(self) -> str:
        return "Work(cycles=%r)" % (self.cycles,)


class LibCall:
    """Call a Pthreads library entry point by name.

    The result sent back into the program is whatever the library call
    returns (an error number for most POSIX calls, a value for
    ``pthread_self`` and friends).
    """

    __slots__ = ("name", "args", "kwargs")

    def __init__(
        self,
        name: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.args = args
        self.kwargs = kwargs or None  # the executor tests ``if op.kwargs``

    def __repr__(self) -> str:
        return "LibCall(%r, args=%r)" % (self.name, self.args)


class SysCall:
    """Call the simulated UNIX kernel directly (bypassing the library).

    Used by benchmarks (``getpid`` timing) and by programs that want raw
    UNIX behaviour for comparison.
    """

    __slots__ = ("name", "args", "kwargs")

    def __init__(
        self,
        name: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.args = args
        self.kwargs = kwargs or None  # the executor tests ``if op.kwargs``

    def __repr__(self) -> str:
        return "SysCall(%r, args=%r)" % (self.name, self.args)


class Invoke:
    """Push a nested simulated frame running ``fn(pt, *args)``.

    Models a function call on the simulated stack: charges a register-
    window ``save`` and ``frame_bytes`` of stack, and sends the callee's
    return value back when it returns.
    """

    __slots__ = ("fn", "args", "kwargs", "frame_bytes")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        frame_bytes: int = 96,
    ) -> None:
        self.fn = fn
        self.args = args
        self.kwargs = {} if kwargs is None else kwargs
        self.frame_bytes = frame_bytes

    def __repr__(self) -> str:
        return "Invoke(%s)" % getattr(self.fn, "__name__", self.fn)


Op = (Work, LibCall, SysCall, Invoke)
