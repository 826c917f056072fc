"""Segment replay, pinned exactly.

The equivalence properties (``tests/properties/
test_prop_segment_equivalence.py``) hold replay to interpretation, but
only bound how much replays (``> 0``, ``>= 1``): a change to the segment
cache that replayed fewer steps, recorded more often or split a loop
differently would still pass them.  This pins the whole
``exec.segment.*`` block, the step count and the simulated time of
every host-suite workload at a small scale, of a pipeline whose stages
compile and replay nearly every step, and of two shapes under a slicer,
whose replays the event horizon cuts short.

The tables are keyed by code object, whose hash depends on string
hashing, so CI runs this under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import pytest

from repro.bench import workloads
from repro.bench.suites import standard_workloads

_HOST = standard_workloads(2)

#: name -> (factory, priority, timeslice_us)
SHAPES = {
    **{
        name: (spec["factory"], spec["priority"], None)
        for name, spec in _HOST.items()
    },
    "pipeline(4, 3000, 500)": (
        lambda: workloads.pipeline(4, 3000, 500), 100, None,
    ),
    "pipeline(4, 3000, 546), 2 ms slices": (
        lambda: workloads.pipeline(4, 3000, 546), 100, 2000.0,
    ),
    "lock_storm(8, 200), 500 us slices": (
        lambda: workloads.lock_storm(threads=8, iterations=200), 100, 500.0,
    ),
}

#: name -> (steps, elapsed_us, compiled, hits, misses, steps_replayed,
#: cycles_replayed, invalidations, recordings, record_failures)
PINNED = {
    "lock_storm": (1626, 5651.05, 1, 8, 0, 1568, 112504, 0, 1, 0),
    "signal_storm": (1626, 35268.35, 0, 0, 0, 0, 0, 0, 6, 6),
    "pipeline": (1239, 5927.9, 5, 6, 0, 1123, 122244, 0, 5, 0),
    "create_join_churn": (769, 21340.4, 0, 0, 0, 0, 0, 0, 3, 3),
    "pipeline(4, 3000, 500)": (
        72039, 197677.9, 5, 6, 0, 71923, 7792244, 0, 5, 0,
    ),
    "pipeline(4, 3000, 546), 2 ms slices": (
        72039, 238227.6, 8, 136, 289, 71364, 8265639, 0, 37, 29,
    ),
    "lock_storm(8, 200), 500 us slices": (
        6426, 24118.0, 2, 50, 61, 6236, 447111, 0, 10, 8,
    ),
}

_COUNTERS = (
    "compiled", "hits", "misses", "steps_replayed", "cycles_replayed",
    "invalidations", "recordings", "record_failures",
)


def test_pins_cover_every_host_workload():
    assert set(_HOST) <= set(PINNED) == set(SHAPES)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_segment_counters_steps_and_time_are_pinned(name):
    factory, priority, timeslice_us = SHAPES[name]
    stats = workloads.run_workload(
        factory(), priority=priority, timeslice_us=timeslice_us
    )
    rt = stats["runtime"]
    counters = rt._segments.counters()
    assert set(counters) == {"exec.segment." + c for c in _COUNTERS}
    got = (rt.steps, stats["elapsed_us"]) + tuple(
        counters["exec.segment." + c] for c in _COUNTERS
    )
    assert got == PINNED[name]
