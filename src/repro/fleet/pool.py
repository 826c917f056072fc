"""Ordered process-pool fan-out for independent simulation tasks.

:class:`FleetPool` runs ``fn(payload)`` for a sequence of payloads and
yields the results **in payload order**, regardless of which worker
finished first.  That ordering is the whole determinism contract: a
consumer that reads the iterator sees exactly the sequence a plain
``for`` loop would have produced, so a parallel sweep's report is
byte-identical to the sequential one.

The pool uses the ``fork`` start method and passes ``fn`` to workers by
*inheritance* (a module global captured at fork time), not by pickling
-- the sweeps' task functions are closures over workload factories that
pickle refuses.  Only payloads and results cross process boundaries,
and both are plain data.

Anything that prevents real processes -- ``jobs <= 1``, a platform
without ``fork``, a failing ``Pool`` construction -- degrades to an
in-process sequential loop with identical output.  A task that dies in
a worker is rerun in-process (and counted in
:attr:`~repro.fleet.FleetStats.fallbacks`), so one bad fork never loses
a sweep.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Callable, Iterable, Iterator, Optional

#: The task function workers inherit at fork time.  A module global
#: (rather than a Pool argument) because closures are not picklable;
#: set by the parent immediately before the fork that creates the
#: workers, so every worker sees the right function.
_WORKER_FN: Optional[Callable[[Any], Any]] = None


def _invoke(payload: Any) -> Any:
    try:
        return ("ok", _WORKER_FN(payload))
    except BaseException:
        return ("err", traceback.format_exc())


class FleetPool:
    """Run ``fn`` over payloads on up to ``jobs`` worker processes.

    Parameters
    ----------
    fn:
        The task function.  Must be pure with respect to the parent's
        mutable state: workers run forked copies, so writes they make
        are invisible to the parent (and to each other).
    jobs:
        Requested worker-process count; ``<= 1`` means run in-process.
        The effective count is capped at the host's core count: extra
        workers on a saturated host cannot run concurrently, so they
        only add fork and IPC overhead (on a single-core host a
        ``jobs=4`` sweep was *slower* than sequential).  When the cap
        leaves one worker, the pool degrades to the in-process loop --
        same results, no fork tax.
    stats:
        Optional :class:`~repro.fleet.FleetStats` to fill in.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        jobs: int = 1,
        stats: Optional[Any] = None,
        oversubscribe: bool = False,
    ) -> None:
        self.fn = fn
        self.jobs = max(1, jobs)
        if not oversubscribe:
            # ``oversubscribe=True`` is for tests that must exercise
            # the worker machinery regardless of the host's shape.
            self.jobs = min(self.jobs, multiprocessing.cpu_count())
        self.stats = stats
        self._pool = None
        if self.jobs > 1:
            self._pool = self._make_pool()
        if stats is not None:
            stats.backend = "pool" if self._pool is not None else "inproc"
            stats.jobs = self.jobs if self._pool is not None else 1

    def _make_pool(self):
        global _WORKER_FN
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            return None
        _WORKER_FN = self.fn
        try:
            return ctx.Pool(processes=self.jobs)
        except OSError:  # pragma: no cover - fork refused at runtime
            return None

    def imap(self, payloads: Iterable[Any]) -> Iterator[Any]:
        """Yield ``fn(payload)`` results in payload order (lazily)."""
        stats = self.stats
        if self._pool is None:
            for payload in payloads:
                if stats is not None:
                    stats.tasks += 1
                yield self.fn(payload)
            return
        payloads = list(payloads)
        # Batch the IPC: one pickle round-trip per chunk instead of per
        # cell.  Four chunks per worker keeps load balancing while
        # cutting the per-task transport that dominated short cells.
        chunksize = max(1, len(payloads) // (self.jobs * 4))
        for payload, outcome in zip(
            payloads, self._pool.imap(_invoke, payloads, chunksize)
        ):
            if stats is not None:
                stats.tasks += 1
            if outcome[0] == "ok":
                yield outcome[1]
            else:
                # The worker died on this payload; the task function is
                # pure, so running it here gives the identical result.
                if stats is not None:
                    stats.fallbacks += 1
                yield self.fn(payload)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "FleetPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
