"""A reclaimed thread leaves the runtime.

``PthreadsRuntime.threads`` holds exactly the threads the library can
still name: live threads and zombies (terminated, not yet joined, still
holding their stack).  A joined or detached thread is reclaimed and
leaves the table, and nothing else keeps its TCB: with the cyclic
collector off, reference counting alone frees it.  So a
thread-per-connection server retains what a worker pool does, not one
TCB per connection served.
"""

import gc
import tracemalloc
import weakref

from perfbench.workloads import NET_CHURN
from repro.core.attr import ThreadAttr
from repro.core.config import PTHREAD_CREATE_DETACHED
from repro.net import scenario
from tests.conftest import run_program

#: perconn / pool bytes retained at run end, churn shape, after a
#: warm-up run.  With every exited TCB kept in the table it read 8.75
#: (6.02 / 0.69 MB); with reclaimed threads gone it reads 2.36 (1.59 /
#: 0.67 MB).  Of the 0.92 MB above pool, 0.61 MB is the simulated
#: heap's block map and free lists, grown to the 4,000 zombie stacks
#: the perconn server holds until its final joins; 0.15 MB is the
#: thread table's hash table at that peak (a dict does not shrink when
#: entries leave), and 0.16 MB the interpreter's free list of the
#: threads' argument tuples.  None of it grows with threads created.
MAX_PERCONN_OVER_POOL = 2.5


def test_table_holds_only_unjoined_threads():
    refs = {}
    out = {}

    def child(pt):
        yield pt.work(10)

    def main(pt):
        joined = yield pt.create(child, name="joined")
        detached = yield pt.create(child, name="detached")
        born_detached = yield pt.create(
            child,
            name="born-detached",
            attr=ThreadAttr(detach_state=PTHREAD_CREATE_DETACHED),
        )
        zombie = yield pt.create(child, name="zombie")
        yield pt.detach(detached)
        yield pt.join(joined)
        yield pt.delay_us(200)  # every child has terminated
        for t in (joined, detached, born_detached):
            refs[t.name] = weakref.ref(t)
        out["tids"] = [(yield pt.self_id()).tid, zombie.tid]

    gc.collect()
    gc.disable()
    try:
        rt = run_program(main)
        alive = {name: ref() is not None for name, ref in refs.items()}
    finally:
        gc.enable()
    assert list(rt.threads) == out["tids"]  # main and the unjoined child
    assert alive == dict.fromkeys(refs, False)


def test_thread_whose_body_ends_inside_replay_is_freed():
    """A body that returns inside a replayed loop hands its
    ``StopIteration`` to the executor through the segment cache; the
    exception's traceback holds the replay's frames, so a reference
    kept to it there would keep each joined thread in a cycle only the
    collector frees."""
    refs = []

    def child(pt):
        m = yield pt.mutex_init()
        lock = pt.mutex_lock(m)
        unlock = pt.mutex_unlock(m)
        burn = pt.work(40)
        for _ in range(200):
            yield lock
            yield burn
            yield unlock

    def main(pt):
        for i in range(20):
            t = yield pt.create(child, name="child-%d" % i)
            refs.append(weakref.ref(t))
            yield pt.join(t)

    gc.collect()
    gc.disable()
    try:
        rt = run_program(main)
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert rt._segments.steps_replayed > 0
    assert alive == 0


def _retained_at_run_end(arch, monkeypatch):
    """Traced bytes still allocated when ``run`` returns, collector off."""
    box = {}
    run = scenario.PthreadsRuntime.run

    def measured(rt, *args, **kwargs):
        result = run(rt, *args, **kwargs)
        box["retained"] = tracemalloc.get_traced_memory()[0] - box["base"]
        return result

    monkeypatch.setattr(scenario.PthreadsRuntime, "run", measured)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        box["base"] = tracemalloc.get_traced_memory()[0]
        report = scenario.run_scenario(seed=1, **dict(NET_CHURN, arch=arch))
    finally:
        tracemalloc.stop()
        gc.enable()
        monkeypatch.undo()
    assert report.replies == NET_CHURN["clients"]
    return box["retained"]


def test_perconn_retains_what_pool_retains(monkeypatch):
    # Pay one-time costs (lazy imports, free lists) before measuring.
    for arch in ("pool", "perconn"):
        scenario.run_scenario(seed=1, **dict(NET_CHURN, arch=arch, clients=50))
    pool = _retained_at_run_end("pool", monkeypatch)
    perconn = _retained_at_run_end("perconn", monkeypatch)
    assert perconn <= MAX_PERCONN_OVER_POOL * pool, (perconn, pool)
