"""Base plumbing shared by the library's entry-point modules.

Each subsystem (threads, mutexes, condition variables, ...) is an
``*Ops`` class holding its entry points; :data:`BLOCKED` is the
sentinel an entry point returns after parking the calling thread (the
call's real result is delivered through the wait record when the
thread wakes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime


class _Blocked:
    """Sentinel: the entry point blocked the caller."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<BLOCKED>"


BLOCKED = _Blocked()


class LibraryOps:
    """A bundle of library entry points.

    Subclasses set :attr:`ENTRIES` mapping public call names (the names
    :class:`~repro.core.api.PT` ops carry) to method names; the runtime
    binds them into its call registry.
    """

    ENTRIES: Dict[str, str] = {}

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self.rt = runtime
