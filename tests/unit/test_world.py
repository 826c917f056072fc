"""Unit tests for the World container (time, events, atomic sections)."""

import pytest

from repro.hw.costs import SPARC_IPX
from repro.sim.world import DeadlockError, World


def test_model_by_name_and_object():
    assert World("sparc-ipx").model is SPARC_IPX
    assert World(SPARC_IPX).model is SPARC_IPX


def test_now_us_conversion():
    world = World("sparc-ipx")
    world.spend_cycles(400)
    assert world.now_us == 10.0


def test_spend_charges_model_cost():
    world = World("sparc-ipx")
    world.spend("enter_kernel", times=3)
    assert world.now == 3 * SPARC_IPX.cost("enter_kernel")


def test_schedule_in_and_fire_on_spend():
    world = World("sparc-ipx")
    hits = []
    world.schedule_in(100, lambda: hits.append(world.now))
    world.spend_cycles(99)
    assert not hits
    world.spend_cycles(1)
    assert hits == [100]


def test_spend_only_charges_a_due_event_fires_at_the_next_fire_due():
    world = World("sparc-ipx")
    hits = []
    cost = SPARC_IPX.cost("enter_kernel")
    world.schedule_in(cost - 1, lambda: hits.append(world.now))
    world.spend("enter_kernel")  # the event becomes due inside the charge
    assert hits == []
    assert world.next_event_time() == cost - 1  # still pending
    assert world.fire_due() == 1
    assert hits == [cost]  # fired at the post-charge clock


def test_spend_cycles_still_fires():
    world = World("sparc-ipx")
    hits = []
    world.schedule_in(10, lambda: hits.append(world.now))
    world.spend_cycles(25)
    assert hits == [25]


def test_schedule_in_negative_rejected():
    world = World("sparc-ipx")
    with pytest.raises(ValueError):
        world.schedule_in(-1, lambda: None)


def test_schedule_at_past_clamps_to_now():
    world = World("sparc-ipx")
    world.spend_cycles(50)
    hits = []
    world.schedule_at(10, lambda: hits.append(1))  # already past
    world.fire_due()
    assert hits == [1]


def test_atomic_section_defers_events():
    world = World("sparc-ipx")
    hits = []
    world.schedule_in(10, lambda: hits.append("fired"))
    with world.atomic():
        world.spend_cycles(100)  # due inside, must not fire
        assert hits == []
    world.fire_due()
    assert hits == ["fired"]


def test_atomic_sections_nest():
    world = World("sparc-ipx")
    hits = []
    world.schedule_in(1, lambda: hits.append(1))
    with world.atomic():
        with world.atomic():
            world.spend_cycles(10)
        world.spend_cycles(10)
        assert hits == []
    world.fire_due()
    assert hits == [1]


def test_fire_due_is_not_reentrant():
    """An event whose handler makes more events due must not recurse;
    the outer drain loop picks them up."""
    world = World("sparc-ipx")
    order = []

    def first():
        order.append("first")
        world.schedule_at(world.now, lambda: order.append("second"))
        world.spend_cycles(5)  # would re-enter fire_due; must no-op

    world.schedule_in(10, first)
    world.spend_cycles(10)
    assert order == ["first", "second"]


def test_advance_to_next_event_fires_it():
    world = World("sparc-ipx")
    hits = []
    world.schedule_in(1_000, lambda: hits.append(world.now))
    world.advance_to_next_event()
    assert hits == [1_000]


def test_advance_with_no_events_is_deadlock():
    world = World("sparc-ipx")
    with pytest.raises(DeadlockError):
        world.advance_to_next_event()


def test_rng_is_seeded_per_world():
    a = World("sparc-ipx", seed=5)
    b = World("sparc-ipx", seed=5)
    assert [a.rng.coin() for _ in range(10)] == [
        b.rng.coin() for _ in range(10)
    ]


def test_emit_without_tracer_is_noop():
    World("sparc-ipx").emit("anything", x=1)  # must not raise
