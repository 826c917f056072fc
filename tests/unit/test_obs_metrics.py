"""Unit tests for the metrics registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_set(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set(2)
        assert c.value == 2


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_observe_buckets(self):
        h = Histogram("h", buckets=(0, 1, 2, 4))
        for v in (0, 1, 1, 3, 100):
            h.observe(v)
        assert h.count == 5
        assert h.total == 105
        assert h.max == 100
        assert h.mean == pytest.approx(21.0)

    def test_overflow_slot(self):
        h = Histogram("h", buckets=(0, 1))
        h.observe(50)
        # Overflow counts live past the last configured bucket.
        assert h.counts[-1] == 1

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("c", help="a counter").inc(3)
        reg.gauge("g").set(2)
        reg.histogram("h").observe(7)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 2
        assert snap["h"]["count"] == 1
        # Round-trips through JSON (the export path's requirement).
        import json

        json.dumps(snap)

    def test_render_contains_names_and_help(self):
        reg = MetricsRegistry()
        reg.counter("sched.switches", help="context switches").inc()
        text = reg.render()
        assert "sched.switches" in text
        assert "context switches" in text

