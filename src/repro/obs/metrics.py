"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's evaluation is built from counted events (context switches,
signals, kernel entries) and measured intervals; this module gives the
reproduction a first-class home for those numbers.  Instrumentation
sites obtain an instrument once (``registry.counter("...")``) and call
``inc``/``set``/``observe`` on the hot path.

Disabled observability is no :class:`~repro.obs.Observability` at
all (``obs=None``): instrumented sites guard on ``runtime.obs is
None``, mirroring the ``world.trace is not None`` guards, so the
disabled cost is that one test.

Nothing in this module touches the virtual clock: metrics observe the
simulation, they never advance it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram buckets (upper bounds); chosen for queue depths
#: and small event counts.  Callers time cycle-scale quantities with
#: explicit buckets instead.
DEFAULT_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count (used when harvesting an existing
        subsystem counter into the registry at snapshot time)."""
        self.value = value

    def __repr__(self) -> str:
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A value that goes up and down (queue depth, live threads)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return "Gauge(%s=%r)" % (self.name, self.value)


class Histogram:
    """A fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are upper bounds in ascending order; observations above
    the last bound land in the implicit overflow bucket.
    """

    __slots__ = ("name", "help", "buckets", "counts", "count", "total", "max")

    def __init__(
        self,
        name: str,
        buckets: Sequence[Number] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must ascend: %r" % (bounds,))
        self.name = name
        self.help = help
        self.buckets = bounds
        #: Per-bucket counts; one extra slot for the overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total: Number = 0
        self.max: Number = 0

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%.2f, max=%r)" % (
            self.name, self.count, self.mean, self.max,
        )


class MetricsRegistry:
    """Named instruments, created on first request."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[Number] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = Histogram(
                name, buckets=buckets, help=help
            )
        elif not isinstance(existing, Histogram):
            raise TypeError(
                "metric %r already registered as %s"
                % (name, type(existing).__name__)
            )
        return existing

    def _get(self, name: str, cls: type, help: str = "") -> object:
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = cls(name, help=help)
        elif not isinstance(existing, cls):
            raise TypeError(
                "metric %r already registered as %s"
                % (name, type(existing).__name__)
            )
        return existing

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __iter__(self) -> Iterable[object]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every instrument (JSON-serialisable)."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "total": metric.total,
                    "mean": round(metric.mean, 3),
                    "max": metric.max,
                    "buckets": {
                        ("<=%g" % bound): metric.counts[i]
                        for i, bound in enumerate(metric.buckets)
                    },
                    "overflow": metric.counts[-1],
                }
            else:
                out[name] = metric.value  # type: ignore[union-attr]
        return out

    def render(self) -> str:
        """Aligned text table, one instrument per row."""
        if not self._metrics:
            return "(no metrics)"
        rows = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                value = "n=%d mean=%.2f max=%g" % (
                    metric.count, metric.mean, metric.max,
                )
            else:
                value = "%g" % metric.value  # type: ignore[union-attr]
            rows.append((name, value, getattr(metric, "help", "")))
        width = max(len(name) for name, _, _ in rows)
        vwidth = max(len(value) for _, value, _ in rows)
        lines = []
        for name, value, help in rows:
            lines.append(
                "%-*s  %*s%s"
                % (width, name, vwidth, value, ("  # " + help) if help else "")
            )
        return "\n".join(lines)
