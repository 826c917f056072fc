"""Observability: metrics, cycle attribution, trace export, run reports.

The paper's entire evaluation is observability -- Table 2 is a latency
breakdown and Figure 5 a who-ran-when timeline.  This package makes
that kind of evidence first-class for any run of the reproduction:

- :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms
  with zero-cost no-op stubs when disabled;
- :mod:`repro.obs.profile` -- attributes every virtual cycle to a
  category and a thread (the "where did the cycles go" breakdown);
- :mod:`repro.obs.export` -- Chrome/Perfetto trace JSON, JSONL
  streaming, ASCII timelines;
- :mod:`repro.obs.core` -- the :class:`Observability` facade the
  runtime accepts via ``PthreadsRuntime(obs=...)``;
- ``python -m repro.obs`` -- the run-report CLI.

Everything is off by default and nothing in this package ever advances
the virtual clock: simulated time is bit-identical with observability
on or off (enforced by the golden Table 2 snapshot test).
"""

from repro.obs.core import Observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import CATEGORIES, CycleProfiler
from repro.obs.export import (
    JsonlSink,
    ascii_timeline,
    chrome_trace,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CATEGORIES",
    "CycleProfiler",
    "JsonlSink",
    "ascii_timeline",
    "chrome_trace",
    "jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
]
