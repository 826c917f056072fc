"""Shrinking a failing schedule to a minimal reproducer.

A failing decision vector found by DFS or a random walk usually
contains many decisions that have nothing to do with the bug.  The
reducer greedily replaces decisions with the default (0) and strips
the defaulted tail, keeping a change only when the re-run fails the
*same* way (same kind and rule) -- the standard delta-debugging
criterion, specialised for the fact that 0 is always a legal decision
and that a vector is equivalent to itself minus trailing zeros.

The minimized result's schedule (its ``dispatch`` trace) is the thing
to stare at: it is typically a handful of forced switches around the
exact window the bug needs.
"""

from __future__ import annotations

from typing import List

from repro.check.explore import Explorer, RunResult


def _strip(vector: List[int]) -> List[int]:
    """Trailing zeros are the default anyway: drop them."""
    end = len(vector)
    while end and vector[end - 1] == 0:
        end -= 1
    return vector[:end]


class Reducer:
    """Shrinks failing decision vectors against an :class:`Explorer`."""

    def __init__(self, explorer: Explorer, max_attempts: int = 200) -> None:
        self.explorer = explorer
        self.max_attempts = max_attempts
        self.attempts = 0

    def shrink(self, result: RunResult) -> RunResult:
        """Minimize ``result``'s decision vector; returns the best run.

        The returned :class:`RunResult` re-ran under the minimized
        vector and still exhibits the same failure; its ``decisions``
        are the minimal schedule and its ``schedule`` the dispatch
        sequence to publish.  Trials run untraced; a winning trial's
        schedule comes from one traced replay
        (:meth:`Explorer.schedule_of`).
        """
        failure = result.failure
        if failure is None:
            raise ValueError("cannot shrink a passing run")
        self.attempts = 0
        best = result
        vector = _strip(list(result.vector))
        if len(vector) < len(result.vector):
            candidate = self._try(vector, best)
            if candidate is not None:
                best = candidate
        improved = True
        while improved and self.attempts < self.max_attempts:
            improved = False
            # Zero decisions from the back: late forced switches are
            # the likeliest to be incidental.
            for index in reversed(range(len(vector))):
                # A kept trial strips its new zero tail: indices past
                # the end are defaults already.
                if index >= len(vector) or vector[index] == 0:
                    continue
                trial = _strip(vector[:index] + [0] + vector[index + 1:])
                candidate = self._try(trial, best)
                if candidate is not None:
                    vector = trial
                    best = candidate
                    improved = True
                if self.attempts >= self.max_attempts:
                    break
        if best is not result:
            best.schedule = self.explorer.schedule_of(best)
        return best

    def _try(self, vector: List[int], best: RunResult):
        self.attempts += 1
        run = self.explorer.run_once(vector, extract=False)
        if run.failure is not None and run.failure.same_as(best.failure):
            run.decisions = list(vector)
            return run
        return None
