"""Thread-specific data.

Keys are process-wide; values live in each TCB.  Destructors (generator
functions ``destructor(pt, value)``) run at thread exit, in repeated
passes up to ``PTHREAD_DESTRUCTOR_ITERATIONS``, because a destructor
may set other keys (POSIX semantics).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core import config as cfg
from repro.core.errors import EINVAL, ENOMEM, OK
from repro.core.libbase import LibraryOps
from repro.core.tcb import Tcb
from repro.hw import costs


class TsdOps(LibraryOps):
    """Entry points for thread-specific data."""

    ENTRIES = {
        "key_create": "lib_key_create",
        "key_delete": "lib_key_delete",
        "setspecific": "lib_setspecific",
        "getspecific": "lib_getspecific",
    }

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        self._destructors: Dict[int, Optional[Any]] = {}
        self._next_key = 1

    def lib_key_create(
        self, tcb: Tcb, destructor: Optional[Any] = None
    ) -> Tuple[int, int]:
        """Create a key; returns ``(err, key)``."""
        del tcb
        self.rt.world.spend(costs.TSD_OP)
        if len(self._destructors) >= cfg.PTHREAD_KEYS_MAX:
            return (ENOMEM, -1)
        key = self._next_key
        self._next_key += 1
        self._destructors[key] = destructor
        return (OK, key)

    def lib_key_delete(self, tcb: Tcb, key: int) -> int:
        del tcb
        self.rt.world.spend(costs.TSD_OP)
        if key not in self._destructors:
            return EINVAL
        del self._destructors[key]
        return OK

    def lib_setspecific(self, tcb: Tcb, key: int, value: Any) -> int:
        self.rt.world.spend(costs.TSD_OP)
        if key not in self._destructors:
            return EINVAL
        tcb.tsd[key] = value
        return OK

    def lib_getspecific(self, tcb: Tcb, key: int) -> Any:
        self.rt.world.spend(costs.TSD_OP)
        return tcb.tsd.get(key)

    # -- exit-time destructor support ------------------------------------------------

    def has_live_destructors(self, tcb: Tcb) -> bool:
        return any(
            tcb.tsd.get(key) is not None and dtor is not None
            for key, dtor in self._destructors.items()
        )

    def take_destructor_pass(self, tcb: Tcb) -> List[Tuple[Any, Any]]:
        """One destructor pass: collect (destructor, value) pairs and
        null the slots (POSIX: value is set to NULL before the call)."""
        pairs: List[Tuple[Any, Any]] = []
        for key, dtor in list(self._destructors.items()):
            value = tcb.tsd.get(key)
            if value is not None and dtor is not None:
                tcb.tsd[key] = None
                pairs.append((dtor, value))
        return pairs
