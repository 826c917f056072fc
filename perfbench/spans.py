"""Host-time spans around calls into each layer of the simulator.

The traced pass wraps the entry points listed in :data:`LAYERS` with a
span that records the wall time spent inside the call.  Spans nest: a
net-stack call made from inside an event-horizon action is a child of
that action's span.  A layer's *self time* is the sum over its spans of
each span's duration minus the time covered by its direct children, so
every host second inside a span is counted once, in the innermost layer
that was running.

No clock watcher is attached and no simulated state is touched, so the
segment compiler and every simulated result behave exactly as in the
untraced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from types import FunctionType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Everything in a class body that is a plain function and not a dunder.
ALL = None

#: layer -> [(module, class, method names or ALL)].  Code a layer calls
#: that is not wrapped (``repro.hw``, the library kernel monitor, the
#: simulated programs' own thread bodies) is charged to the caller.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Sequence[str]]]]] = {
    "core.runtime": [
        ("repro.core.runtime", "PthreadsRuntime",
         ("run", "block_current", "_universal_handler")),
        ("repro.core.dispatcher", "Dispatcher", ("run",)),
        ("repro.core.scheduler", "Scheduler",
         ("make_ready", "take", "pop_next", "yield_current",
          "preempt_current", "slice_current", "pervert_current_to_lowest",
          "preempt_current_for_dispatch", "priority_changed")),
    ],
    "sim.events": [
        ("repro.sim.world", "World",
         ("fire_due", "advance_to_next_event", "schedule_at", "schedule_in")),
        ("repro.sim.events", "Event", ("cancel",)),
    ],
    "sim.segments": [
        ("repro.sim.segments", "SegmentSpace", ("try_step",)),
    ],
    "unix.kernel": [
        ("repro.unix.kernel", "UnixKernel", ALL),
        ("repro.unix.signals", "ProcessSignals", ALL),
        ("repro.core.sigdeliver", "SignalDelivery", ALL),
    ],
    "unix.net": [
        ("repro.unix.net", "NetStack", ALL),
        ("repro.unix.net", "ResidentClient", ALL),
        ("repro.unix.net", "ResidentClientEngine", ALL),
    ],
    "core.lib": [
        ("repro.core.mutex", "MutexOps", ALL),
        ("repro.core.cond", "CondOps", ALL),
        ("repro.core.netlib", "NetOps", ALL),
        ("repro.core.threads", "ThreadOps", ALL),
        ("repro.core.pool", "ThreadPool", ALL),
    ],
    "net.loadgen": [
        ("repro.net.loadgen", "LoadGenerator", ("start",)),
    ],
    "check": [
        ("repro.check.explore", "Explorer", ("run_once",)),
        ("repro.check.invariants", "CheckContext", ALL),
        ("repro.check.schedule", "ScriptedChoices", ALL),
    ],
}


class SpanRecorder:
    """Aggregates nested spans into per-layer self time as they close.

    Spans are folded into totals on exit rather than kept as a list: the
    largest workload opens millions of them, and the totals are all the
    benchmark reports.  ``clock`` is injectable so tests can drive a
    synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer -> seconds spent in the layer's own code
        self.self_s: Dict[str, float] = {}
        #: layer -> spans closed
        self.calls: Dict[str, int] = {}
        #: seconds covered by outermost spans
        self.root_s = 0.0
        self._open: List[list] = []  # [layer, start, seconds in children]

    def reset(self) -> None:
        """Start the window over: drop totals; open spans count from now."""
        now = self.clock()
        self.self_s.clear()
        self.calls.clear()
        self.root_s = 0.0
        for span in self._open:
            span[1] = now
            span[2] = 0.0

    def enter(self, layer: str) -> None:
        self._open.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._open.pop()
        duration = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._open:
            self._open[-1][2] += duration
        else:
            self.root_s += duration


def _span(fn: FunctionType, layer: str, recorder: SpanRecorder):
    enter = recorder.enter
    leave = recorder.exit

    @functools.wraps(fn)
    def span(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return span


def _targets(cls: type, names: Optional[Sequence[str]]) -> List[str]:
    if names is None:
        names = [
            n for n, v in vars(cls).items()
            if isinstance(v, FunctionType) and not n.startswith("__")
        ]
    out = []
    for name in names:
        fn = vars(cls).get(name)
        if not isinstance(fn, FunctionType):
            raise TypeError("%s.%s is not a plain method" % (cls.__name__, name))
        if not inspect.isgeneratorfunction(fn):  # a span would time creation only
            out.append(name)
    return out


@contextmanager
def instrumented(
    recorder: SpanRecorder, layers: Dict[str, list] = LAYERS
) -> Iterator[SpanRecorder]:
    """Wrap every listed entry point for the duration of the block.

    Install before the simulator builds its objects: some entry points
    are bound once at construction (the library call registry).
    """
    saved = []
    try:
        for layer, entries in layers.items():
            for module, cls_name, names in entries:
                cls = getattr(importlib.import_module(module), cls_name)
                for name in _targets(cls, names):
                    fn = vars(cls)[name]
                    saved.append((cls, name, fn))
                    setattr(cls, name, _span(fn, layer, recorder))
        yield recorder
    finally:
        for cls, name, fn in reversed(saved):
            setattr(cls, name, fn)
