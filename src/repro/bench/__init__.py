"""The measurement harness for the paper's evaluation.

Paper methodology (Table 2):

- :mod:`repro.bench.dualloop` -- dual-loop timing over the virtual
  clock (the paper's methodology).
- :mod:`repro.bench.metrics` -- one measurement routine per Table 2
  row, each building a fresh runtime and exercising the real code
  path.
- :mod:`repro.bench.table2` -- the paper's reported numbers and the
  row schema.
- :mod:`repro.bench.reporting` -- the formatter that prints the
  paper-vs-measured table.

Production evaluation harness (``python -m repro.bench``):

- :mod:`repro.bench.schema` -- the versioned :class:`BenchRecord` /
  :class:`SuiteResult` record schema shared by all five suites.
- :mod:`repro.bench.suites` -- the host/net/check/fleet/smp suite
  runners, each returning its schema records (including the
  ``repro.obs`` counter harvest).
- :mod:`repro.bench.archive` -- per-commit history under
  ``benchmarks/history/<commit>/<suite>.json``.
- :mod:`repro.bench.compare` -- tolerance-band diff + gate semantics.
- :mod:`repro.bench.trend` -- ASCII/HTML reports over the history.
- :mod:`repro.bench.cli` -- the ``run|compare|gate|trend`` CLI.
"""

from repro.bench.dualloop import DualLoopTimer
from repro.bench.metrics import MEASUREMENTS, measure_all, measure_row
from repro.bench.reporting import format_table2
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchRecord,
    EnvFingerprint,
    SchemaError,
    SuiteResult,
)
from repro.bench.table2 import PAPER_TABLE2, Table2Row

__all__ = [
    "BenchRecord",
    "DualLoopTimer",
    "EnvFingerprint",
    "MEASUREMENTS",
    "PAPER_TABLE2",
    "SCHEMA_VERSION",
    "SchemaError",
    "SuiteResult",
    "Table2Row",
    "format_table2",
    "measure_all",
    "measure_row",
]
