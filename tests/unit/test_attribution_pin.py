"""Exact cycle attribution on small fixed workloads.

The other profiler tests check that categories are populated; these pin
every figure.  Each workload runs twice, with and without the cycle
profiler, and the tests assert:

- ``CycleProfiler.by_category``, ``CycleProfiler.by_thread`` and the
  final clock equal the values below, exactly;
- the library's own counters (mutex contentions, context switches,
  kernel entries) and the final clock are identical with and without
  the profiler, so profiling changes no executed path;
- the category total equals the clock span.

A cost charged through a different path, a charge split or merged
across categories, or a charge moved to another thread changes one of
these numbers.
"""

import pytest

from repro.bench.workloads import (
    create_join_churn,
    lock_storm,
    pipeline,
    run_workload,
    signal_storm,
)
from repro.net.scenario import run_scenario
from repro.obs import Observability


def _library_run(main_fn, **kwargs):
    def run(obs):
        extra = {} if obs is None else {"obs": obs}
        return run_workload(main_fn(), **kwargs, **extra)["runtime"]

    return run


def _pool_sigio(obs):
    # Without the profiler the facade still hands back the runtime, but
    # attaches no clock watcher.
    obs = obs if obs is not None else Observability(profile=False)
    report = run_scenario(
        arch="pool", clients=12, requests_per_client=2, workers=4,
        seed=7, first_class=False, obs=obs,
    )
    assert report.completions_sigio == 24
    return obs.runtime


WORKLOADS = {
    # Two bursts of 80 against the 64-pair TCB/stack pool: pool misses,
    # heap frees and sbrk growth, which the other workloads never reach.
    "create_join_churn": _library_run(
        lambda: create_join_churn(rounds=2, burst=80)
    ),
    "lock_storm": _library_run(
        lambda: lock_storm(
            4, 60, section_cycles=3000, spread_priorities=False
        ),
        timeslice_us=500.0,
    ),
    "pipeline": _library_run(lambda: pipeline(3, 60)),
    "signal_storm": _library_run(lambda: signal_storm(3, 30)),
    "pool_sigio": _pool_sigio,
}


def _churn_threads():
    """``create_join_churn(rounds=2, burst=80)``'s children: 516 cycles
    each, except the last 16 of each burst, which find the 64-pair pool
    full at exit and free their TCB and stack (2 x ``HEAP_FREE``, 360)
    instead of pushing them back (``POOL_PUSH``, 16): 860."""
    return {
        "thread-%d" % i: 860 if (i - 2) % 80 >= 64 else 516
        for i in range(2, 162)
    }


#: name -> (by_category, by_thread, final clock in cycles)
EXPECTED = {
    "create_join_churn": (
        {
            "compute": 32322,
            "library-misc": 56260,
            "memory": 420598,
            "scheduling": 153184,
            "syscalls": 25340,
            "window-traps": 346220,
        },
        {
            "<kernel>": 465766,
            "<world>": 89340,
            "main": 385250,
            **_churn_threads(),
        },
        1033924,
    ),
    "lock_storm": (
        {
            "compute": 733690,
            "library-misc": 1670,
            "memory": 65514,
            "scheduling": 32010,
            "signal-delivery": 506480,
            "synchronization": 7200,
            "syscalls": 124584,
            "window-traps": 9260,
        },
        {
            "<kernel>": 21136,
            "<world>": 90120,
            "ls-0": 332480,
            "ls-1": 350848,
            "ls-2": 341664,
            "ls-3": 341664,
            "main": 2496,
        },
        1480408,
    ),
    "pipeline": (
        {
            "compute": 92570,
            "library-misc": 1360,
            "memory": 65208,
            "scheduling": 6648,
            "synchronization": 21960,
            "syscalls": 25340,
            "window-traps": 7100,
        },
        {
            "<kernel>": 10466,
            "<world>": 89340,
            "main": 8875,
            "stage-0": 39466,
            "stage-1": 39466,
            "stage-2": 32573,
        },
        220186,
    ),
    "signal_storm": (
        {
            "compute": 63794,
            "library-misc": 2270,
            "memory": 65208,
            "scheduling": 3936,
            "signal-delivery": 11294,
            "syscalls": 25340,
            "window-traps": 8300,
        },
        {
            "<kernel>": 7566,
            "<world>": 89340,
            "main": 74088,
            "storm-0": 3080,
            "storm-1": 3034,
            "storm-2": 3034,
        },
        180142,
    ),
    "pool_sigio": (
        {
            "compute": 9887,
            "library-misc": 2030,
            "memory": 65820,
            "scheduling": 27058,
            "signal-delivery": 178280,
            "synchronization": 1590,
            "syscalls": 120352,
            "window-traps": 35300,
        },
        {
            "<kernel>": 59147,
            "<world>": 90120,
            "main": 4168,
            "pool-server": 14641,
            "worker-0": 71068,
            "worker-1": 40093,
            "worker-2": 92896,
            "worker-3": 68184,
        },
        440317,
    ),
}


def _counters(rt):
    return (
        rt.mutex_ops.contentions,
        rt.dispatcher.context_switches,
        rt.kern.enters,
        rt.world.clock.cycles,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_attribution_is_pinned_exactly(name):
    obs = Observability()
    rt = WORKLOADS[name](obs)
    profiler = obs.profiler
    by_category = {c: n for c, n in profiler.by_category.items() if n}
    categories, threads, clock = EXPECTED[name]
    assert by_category == categories
    assert profiler.by_thread == threads
    assert rt.world.clock.cycles == clock
    assert profiler.total_cycles == profiler.attributed_span() == clock


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_profiler_changes_no_counter(name):
    profiled = WORKLOADS[name](Observability())
    bare = WORKLOADS[name](None)
    assert bare.world.clock._watcher is None
    assert _counters(profiled) == _counters(bare)
