"""Self-time subtraction, and that tracing leaves the simulation alone."""

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_on_a_nested_tree():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)

    def at(t, action, layer=None):
        clock.now = t
        rec.enter(layer) if action == "enter" else rec.exit()

    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> b [5, 9];  then a lone c [12, 13]
    at(0, "enter", "a")
    at(1, "enter", "b")
    at(2, "enter", "c")
    at(3, "exit")
    at(4, "exit")
    at(5, "enter", "b")
    at(9, "exit")
    at(10, "exit")
    at(12, "enter", "c")
    at(13, "exit")

    assert rec.self_s == {"a": 3.0, "b": 6.0, "c": 2.0}
    assert rec.calls == {"a": 1, "b": 2, "c": 2}
    assert rec.root_s == 11.0
    assert sum(rec.self_s.values()) == rec.root_s


def test_reset_restarts_open_spans_at_the_reset():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    rec.enter("a")
    clock.now = 5.0
    rec.enter("b")
    clock.now = 6.0
    rec.exit()
    clock.now = 8.0
    rec.reset()  # the window opens here, inside a
    clock.now = 9.0
    rec.enter("b")
    clock.now = 9.5
    rec.exit()
    clock.now = 10.0
    rec.exit()
    assert rec.self_s == {"a": 1.5, "b": 0.5}
    assert rec.root_s == 2.0


class Toy:
    def plain(self, x):
        return x + 1

    def boom(self):
        raise KeyError("boom")

    def gen(self):
        yield 1


def test_instrumented_wraps_and_restores_plain_methods_only():
    originals = dict(vars(Toy))
    rec = spans.SpanRecorder()
    with spans.instrumented(rec, {"toy": [(__name__, "Toy", spans.ALL)]}):
        assert Toy.plain is not originals["plain"]
        assert Toy.gen is originals["gen"]  # a span would time creation only
        assert Toy().plain(1) == 2
        with pytest.raises(KeyError):
            Toy().boom()  # the span still closes
        assert list(Toy().gen()) == [1]
    assert rec.calls == {"toy": 2}
    assert rec._open == []
    assert dict(vars(Toy)) == originals


def test_every_listed_entry_point_exists_and_is_restored():
    import importlib

    classes = {
        (module, cls) for entries in spans.LAYERS.values() for module, cls, _ in entries
    }
    before = {
        key: dict(vars(getattr(importlib.import_module(key[0]), key[1])))
        for key in classes
    }
    with spans.instrumented(spans.SpanRecorder()):
        pass
    for (module, cls), attrs in before.items():
        assert dict(vars(getattr(importlib.import_module(module), cls))) == attrs


def _pipeline_run():
    from repro.bench.workloads import pipeline
    from repro.core.config import RuntimeConfig
    from repro.core.runtime import PthreadsRuntime

    rt = PthreadsRuntime(config=RuntimeConfig(pool_size=64))
    rt.main(pipeline(stages=3, items=300), priority=100)
    rt.run()
    return rt.world.now_us, rt.steps, rt._segments.counters()


def test_tracing_keeps_the_segment_compiler_and_simulated_results():
    untraced = _pipeline_run()
    rec = spans.SpanRecorder()
    with spans.instrumented(rec):
        traced = _pipeline_run()
    assert traced == untraced
    assert untraced[2]["exec.segment.steps_replayed"] > 0
    assert rec.self_s["sim.segments"] > 0 and rec.self_s["core.lib"] > 0
