"""Atomic instructions and restartable atomic sequences.

The paper's mutex fast path (Figure 4) is a seven-instruction sequence:
an ``ldstub`` test-and-set followed by recording the owner, wrapped in a
*restartable atomic sequence* so that a signal arriving between the
test-and-set and the owner store restarts the whole sequence -- which
guarantees every locked mutex has an owner at every instant (the
property priority inheritance depends on).

This module provides:

- :func:`ldstub` / :func:`compare_and_swap` on :class:`AtomicCell`;
- :class:`RestartableSequence`, which registers the sequence with the
  signal-delivery machinery so interruption mid-sequence causes a
  restart (observable through ``restarts`` and exercised by fault-
  injection tests).
"""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

from repro.hw import costs
from repro.hw.clock import VirtualClock
from repro.hw.costs import CostModel
from repro.hw.memory import CacheDirectory, CacheLine

T = TypeVar("T")


class AtomicCell:
    """One word of memory accessed with atomic instructions."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def __repr__(self) -> str:
        return "AtomicCell(%r)" % (self.value,)


class SharedCell(AtomicCell):
    """An :class:`AtomicCell` that lives on a named cache line.

    Multiprocessor accessors (the ``smp_*`` functions below and
    :class:`repro.sim.smp.Cpu`) consult the line's directory entry to
    price coherence traffic; the single-CPU paths never look at it, so
    a ``SharedCell`` behaves exactly like an ``AtomicCell`` there.
    """

    __slots__ = ("line",)

    def __init__(self, line: CacheLine, value: int = 0) -> None:
        super().__init__(value)
        self.line = line

    def __repr__(self) -> str:
        return "SharedCell(%r, line=%s)" % (self.value, self.line.name)


def ldstub(clock: VirtualClock, model: CostModel, cell: AtomicCell) -> int:
    """Atomic load-store-unsigned-byte: return old value, store 0xFF."""
    clock.advance(model.cost(costs.LDSTUB), costs.LDSTUB)
    old = cell.value
    cell.value = 0xFF
    return old


def compare_and_swap(
    clock: VirtualClock,
    model: CostModel,
    cell: AtomicCell,
    expected: int,
    new: int,
) -> bool:
    """The compare-and-swap the paper argues SPARC should have had.

    Atomically: if the cell holds ``expected``, store ``new`` and
    return True; otherwise leave it and return False.  Costs two more
    cycles than ``ldstub`` (the comparison), per the paper's analysis.
    """
    clock.advance(model.cost(costs.CAS), costs.CAS)
    if cell.value == expected:
        cell.value = new
        return True
    return False


# ---------------------------------------------------------------------------
# Multiprocessor atomics: the same instructions, priced for contention.
#
# Each op takes the accessing CPU's *own* clock plus the shared cache
# directory.  The directory returns the coherence surcharge -- zero on
# a cache hit, a (possibly queued) line transfer otherwise -- so an
# ldstub on a line that just bounced to another CPU automatically
# costs a full transfer window, which is the physical mechanism behind
# test-and-set's collapse under contention.  Atomicity needs no extra
# machinery: the simulator executes one op at a time, and the
# directory's busy-window serialization decides who pays what.
# ---------------------------------------------------------------------------


def smp_load(
    clock: VirtualClock,
    table: dict,
    directory: CacheDirectory,
    cpu: int,
    cell: SharedCell,
) -> int:
    """Ordinary load of a shared word on ``cpu``."""
    extra = directory.read(cpu, cell.line, clock.cycles)
    clock.advance(table[costs.INSN] + extra)
    return cell.value


def smp_store(
    clock: VirtualClock,
    table: dict,
    directory: CacheDirectory,
    cpu: int,
    cell: SharedCell,
    value: int,
) -> None:
    """Ordinary store to a shared word on ``cpu``."""
    extra = directory.write(cpu, cell.line, clock.cycles)
    clock.advance(table[costs.INSN] + extra)
    cell.value = value


def smp_ldstub(
    clock: VirtualClock,
    table: dict,
    directory: CacheDirectory,
    cpu: int,
    cell: SharedCell,
) -> int:
    """Test-and-set on a shared byte: old value out, 0xFF stored.

    Always a write for coherence purposes -- even a failing probe
    yanks the line exclusive, which is why pure spin-on-ldstub
    saturates the fabric.
    """
    extra = directory.write(cpu, cell.line, clock.cycles)
    clock.advance(table[costs.LDSTUB] + extra)
    old = cell.value
    cell.value = 0xFF
    return old


def smp_compare_and_swap(
    clock: VirtualClock,
    table: dict,
    directory: CacheDirectory,
    cpu: int,
    cell: SharedCell,
    expected: int,
    new: int,
) -> bool:
    """Compare-and-swap on a shared word (coherence-priced)."""
    extra = directory.write(cpu, cell.line, clock.cycles)
    clock.advance(table[costs.CAS] + extra)
    if cell.value == expected:
        cell.value = new
        return True
    return False


def smp_swap(
    clock: VirtualClock,
    table: dict,
    directory: CacheDirectory,
    cpu: int,
    cell: SharedCell,
    value: int,
) -> int:
    """Atomic exchange (MCS tail updates); priced like a CAS."""
    extra = directory.write(cpu, cell.line, clock.cycles)
    clock.advance(table[costs.CAS] + extra)
    old = cell.value
    cell.value = value
    return old


def smp_fetch_add(
    clock: VirtualClock,
    table: dict,
    directory: CacheDirectory,
    cpu: int,
    cell: SharedCell,
    delta: int,
) -> int:
    """Atomic fetch-and-add (ticket-lock arrivals); priced like a CAS."""
    extra = directory.write(cpu, cell.line, clock.cycles)
    clock.advance(table[costs.CAS] + extra)
    old = cell.value
    cell.value = old + delta
    return old


class RestartableSequence:
    """A short instruction sequence that restarts if interrupted.

    Restartable atomic sequences are made atomic *by the signal
    handler*: if the interrupted program counter lies inside a
    registered sequence, the handler rewinds it to the sequence start.
    In the simulator the sequence body is a Python callable executed
    step-wise; an injected interruption callback (installed by tests or
    by the signal machinery) can fire between steps, triggering the
    restart exactly as the augmented handler would.

    Parameters
    ----------
    clock, model:
        Charge one instruction per step.
    name:
        Diagnostic label.
    """

    def __init__(
        self, clock: VirtualClock, model: CostModel, name: str = "ras"
    ) -> None:
        self._clock = clock
        #: One-instruction charge, resolved once (the mutex fast path
        #: charges seven of them per uncontended lock).
        self._insn = model.cost(costs.INSN)
        self.name = name
        self.restarts = 0
        self.roll_forwards = 0
        self.runs = 0
        #: Test/fault-injection hook: called before every step with
        #: ``(run_index, step_index)``; returning True interrupts the
        #: sequence there.
        self.interrupt_hook: Optional[Callable[[int, int], bool]] = None

    def run(
        self,
        steps: List[Callable[[], Optional[T]]],
        commit_index: Optional[int] = None,
    ) -> Optional[T]:
        """Execute ``steps`` atomically against interruption.

        Each step is charged one instruction; the final step's return
        value is the sequence's result.  An interruption before
        ``commit_index`` restarts from step 0 (the augmented handler
        rewinds the PC -- steps there must be side-effect free).  An
        interruption at or past ``commit_index`` *rolls forward*: the
        handler completes the remaining stores on the thread's behalf.
        This is how Figure 4's sequence guarantees "an owner associated
        with every locked mutex at any given time" even though the
        ``ldstub`` itself is irreversible: everything after the
        test-and-set is completed, never re-executed.  ``None`` means
        every step is restartable (pure reads until the last store).
        """
        if not steps:
            raise ValueError("restartable sequence needs at least one step")
        attempt = 0
        while True:
            self.runs += 1
            result: Optional[T] = None
            interrupted = False
            for index, step in enumerate(steps):
                hook = self.interrupt_hook
                if hook is not None and hook(attempt, index):
                    if commit_index is not None and index >= commit_index:
                        # Roll forward: finish the sequence, then let
                        # the signal be handled.
                        self.roll_forwards += 1
                    else:
                        self.restarts += 1
                        interrupted = True
                        break
                self._clock.advance(self._insn, costs.INSN)
                result = step()
            if not interrupted:
                return result
            attempt += 1

    def __repr__(self) -> str:
        return "RestartableSequence(%r, runs=%d, restarts=%d)" % (
            self.name,
            self.runs,
            self.restarts,
        )
