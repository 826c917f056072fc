"""Unit tests for the CPU cost models."""

import pytest

from repro.hw import costs
from repro.hw.costs import (
    SPARC_1PLUS,
    SPARC_IPX,
    CostModel,
    all_cost_keys,
    cost_model,
)


def test_lookup_by_name():
    assert cost_model("sparc-ipx") is SPARC_IPX
    assert cost_model("sparc-1+") is SPARC_1PLUS


def test_lookup_aliases():
    assert cost_model("ipx") is SPARC_IPX
    assert cost_model("SPARC1+") is SPARC_1PLUS


def test_unknown_model_rejected():
    with pytest.raises(KeyError):
        cost_model("vax-11/780")


def test_clock_rates_match_the_machines():
    assert SPARC_1PLUS.mhz == 25.0
    assert SPARC_IPX.mhz == 40.0


def test_us_conversion():
    assert SPARC_IPX.us(40) == 1.0
    assert SPARC_1PLUS.us(25) == 1.0


def test_cycles_for_us_roundtrip():
    assert SPARC_IPX.cycles_for_us(2.5) == 100
    assert SPARC_1PLUS.cycles_for_us(4.0) == 100


def test_overrides_take_precedence():
    model = CostModel("test", 1.0, overrides={costs.INSN: 99})
    assert model.cost(costs.INSN) == 99
    assert model.cost(costs.CALL) == all_cost_keys()[costs.CALL]


def test_unknown_cost_key_fails_loudly():
    with pytest.raises(KeyError):
        SPARC_IPX.cost("no-such-primitive")


def test_every_default_key_resolves_on_both_models():
    for key in all_cost_keys():
        assert SPARC_IPX.cost(key) >= 0
        assert SPARC_1PLUS.cost(key) >= 0


def test_kernel_enter_exit_is_far_cheaper_than_syscall():
    """The paper's headline: library kernel << UNIX kernel."""
    for model in (SPARC_IPX, SPARC_1PLUS):
        lib = model.cost(costs.ENTER_KERNEL) + model.cost(costs.LEAVE_KERNEL)
        unix = model.cost(costs.SYSCALL)
        assert unix > 10 * lib


def test_flush_dominates_light_traps():
    for model in (SPARC_IPX, SPARC_1PLUS):
        assert model.cost(costs.FLUSH_WINDOWS_TRAP) > 3 * model.cost(
            costs.WINDOW_FILL_TRAP
        )


def test_niagara_t3_model_registered():
    model = costs.cost_model("niagara-t3")
    assert model is costs.NIAGARA_T3
    assert costs.cost_model("t3") is model
    assert model.mhz == 1650.0


def test_niagara_t3_atomics_and_smp_keys():
    table = costs.NIAGARA_T3.table()
    # The T3 characterization: CAS dearer than LDSTUB, both dearer
    # than a plain instruction; cross-chip traffic dearer than
    # within-chip; IPIs dominated by their delivery latency.
    assert table[costs.CAS] > table[costs.LDSTUB] > table[costs.INSN]
    assert table[costs.LINE_TRANSFER_FAR] > table[costs.LINE_TRANSFER_NEAR]
    assert table[costs.LINE_SHARED_JOIN] < table[costs.LINE_TRANSFER_NEAR]
    assert table[costs.IPI_LATENCY] > table[costs.IPI_RECEIVE]
    assert table[costs.IPI_LATENCY] > table[costs.IPI_SEND]


def test_smp_keys_resolve_on_every_model():
    for name in ("sparc-1+", "sparc-ipx", "niagara-t3"):
        table = costs.cost_model(name).table()
        for key in (
            costs.LINE_TRANSFER_NEAR,
            costs.LINE_TRANSFER_FAR,
            costs.LINE_SHARED_JOIN,
            costs.SPIN_READ,
            costs.IPI_SEND,
            costs.IPI_RECEIVE,
            costs.IPI_LATENCY,
            costs.SMP_MIGRATE,
            costs.SMP_DISPATCH,
        ):
            assert table[key] > 0


# -- cost paths (one charge for a fixed run of primitives) -----------------


def _syscall_override_model():
    return CostModel(
        "slow-trap", 10.0, overrides={costs.SYSCALL: 1234, costs.RECV_WORK: 7}
    )


@pytest.mark.parametrize(
    "model", [SPARC_IPX, SPARC_1PLUS, _syscall_override_model()],
    ids=lambda m: m.name,
)
def test_every_path_is_the_sum_of_its_parts(model):
    table = model.table()
    assert costs.PATHS
    for path, parts in costs.PATHS.items():
        assert table[path] == sum(table[part] for part in parts)
        assert model.cost(path) == table[path]


def test_overrides_carry_through_paths():
    model = _syscall_override_model()
    assert model.cost(costs.SYS_RECV) == 1234 + 7
    assert model.cost(costs.SYS_GETPID) == 1234 + model.cost(
        costs.GETPID_WORK
    )


def test_every_syscall_path_is_syscall_plus_one_work_key():
    for path, parts in costs.PATHS.items():
        assert parts[0] == costs.SYSCALL and len(parts) == 2, path


def test_all_cost_keys_lists_the_paths():
    keys = all_cost_keys()
    for path, parts in costs.PATHS.items():
        assert keys[path] == sum(keys[part] for part in parts)


def test_a_path_cannot_be_overridden():
    with pytest.raises(ValueError):
        CostModel("bad", 1.0, overrides={costs.SYS_RECV: 1})


def test_a_path_spanning_two_categories_is_rejected(monkeypatch):
    from repro.obs.profile import CATEGORY_OF_KEY, SYSCALLS, path_category

    assert path_category(costs.SYS_RECV, CATEGORY_OF_KEY) == SYSCALLS
    mixed = "syscall+mutex_fast_lock"
    monkeypatch.setitem(
        costs.PATHS, mixed, (costs.SYSCALL, costs.MUTEX_FAST_LOCK)
    )
    with pytest.raises(ValueError, match="spans categories"):
        path_category(mixed, CATEGORY_OF_KEY)
