"""Unit tests for atomic instructions and restartable sequences."""

import pytest

from repro.hw.atomic import (
    AtomicCell,
    RestartableSequence,
    compare_and_swap,
    ldstub,
)
from repro.hw.clock import VirtualClock
from repro.hw.costs import SPARC_IPX


def test_ldstub_returns_old_and_sets():
    clock = VirtualClock()
    cell = AtomicCell(0)
    assert ldstub(clock, SPARC_IPX, cell) == 0
    assert cell.value == 0xFF
    assert ldstub(clock, SPARC_IPX, cell) == 0xFF


def test_ldstub_charges_cycles():
    clock = VirtualClock()
    ldstub(clock, SPARC_IPX, AtomicCell())
    assert clock.cycles == SPARC_IPX.cost("ldstub")


def test_cas_success():
    clock = VirtualClock()
    cell = AtomicCell(0)
    assert compare_and_swap(clock, SPARC_IPX, cell, 0, 7)
    assert cell.value == 7


def test_cas_failure_leaves_cell():
    clock = VirtualClock()
    cell = AtomicCell(3)
    assert not compare_and_swap(clock, SPARC_IPX, cell, 0, 7)
    assert cell.value == 3


def test_cas_costs_more_than_ldstub():
    """The paper: compare-and-swap needs two more cycles."""
    assert SPARC_IPX.cost("cas") == SPARC_IPX.cost("ldstub") + 2


def test_sequence_runs_steps_in_order():
    clock = VirtualClock()
    seq = RestartableSequence(clock, SPARC_IPX)
    out = []
    seq.run([lambda: out.append(1), lambda: out.append(2) or "done"])
    assert out == [1, 2]


def test_sequence_returns_last_step_value():
    clock = VirtualClock()
    seq = RestartableSequence(clock, SPARC_IPX)
    assert seq.run([lambda: None, lambda: 42]) == 42


def test_empty_sequence_rejected():
    clock = VirtualClock()
    seq = RestartableSequence(clock, SPARC_IPX)
    with pytest.raises(ValueError):
        seq.run([])


def test_interrupted_sequence_restarts_from_step_zero():
    clock = VirtualClock()
    seq = RestartableSequence(clock, SPARC_IPX)
    trace = []
    # Interrupt once, between steps 0 and 1 of the first attempt.
    seq.interrupt_hook = lambda attempt, step: attempt == 0 and step == 1

    result = seq.run(
        [lambda: trace.append("a"), lambda: trace.append("b") or "ok"]
    )
    assert result == "ok"
    assert trace == ["a", "a", "b"]  # step 0 re-executed
    assert seq.restarts == 1
    assert seq.runs == 2


def test_sequence_charges_one_insn_per_executed_step():
    clock = VirtualClock()
    seq = RestartableSequence(clock, SPARC_IPX)
    seq.run([lambda: None] * 7)
    assert clock.cycles == 7 * SPARC_IPX.cost("insn")


# -- SMP (coherence-priced) atomics ------------------------------------------


def _smp_parts():
    """CPU 1 of a 2-CPU Niagara machine (its own clock) and one shared
    cell; each access is measured as that clock's delta."""
    from repro.hw import costs
    from repro.sim.world import World

    smp = World(model="niagara-t3", seed=7, ncpus=2).smp
    cell = smp.cell("w", 0)
    return costs, smp.table, smp.directory, cell, smp.cpus[1]


def _charged(cpu, op, *args):
    before = cpu.clock.cycles
    op(*args)
    return cpu.clock.cycles - before


def test_smp_cas_charges_more_than_smp_ldstub():
    """Satellite of the SMP PR: the relative pricing must come from
    the cost table, never a literal -- a recalibration that narrows
    the gap must not silently break the comparison."""
    costs, table, directory, cell, cpu = _smp_parts()
    directory.write(1, cell.line, 0)  # pre-own: isolate the base cost
    ldstub_cycles = _charged(cpu, cpu.ldstub, cell)
    cell.value = 0xFF
    cas_cycles = _charged(cpu, cpu.compare_and_swap, cell, 0xFF, 0)
    assert ldstub_cycles == table[costs.LDSTUB]
    assert cas_cycles == table[costs.CAS]
    assert cas_cycles > ldstub_cycles


def test_smp_atomics_add_coherence_cost_on_remote_line():
    costs, table, directory, cell, cpu = _smp_parts()
    directory.write(0, cell.line, 0)  # CPU 0 owns the line
    assert _charged(cpu, cpu.ldstub, cell) > table[costs.LDSTUB]


def test_swap_and_fetch_add_priced_as_cas():
    costs, table, directory, cell, cpu = _smp_parts()
    directory.write(1, cell.line, 0)
    assert _charged(cpu, cpu.swap, cell, 5) == table[costs.CAS]
    assert _charged(cpu, cpu.fetch_add, cell, 1) == table[costs.CAS]
