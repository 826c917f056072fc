"""Every shipped example must run clean (they are the user's first
contact with the library, and several double as experiment scripts),
and print exactly its golden stdout: every example reports simulated
results only, so its output is byte-identical from run to run and under
any ``PYTHONHASHSEED``.  An intended change to an example's output
refreshes its golden, from the repo root:

    PYTHONPATH=src python examples/NAME.py \
        > tests/data/examples/NAME.stdout
"""

import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "data" / "examples"

EXAMPLES = sorted(
    p.name for p in pathlib.Path("examples").glob("*.py")
)

#: Examples that re-measure Table 2 on both machines are slow-ish; all
#: others must finish fast.
TIMEOUTS = {"table2_report.py": 300}


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean(example):
    result = subprocess.run(
        [sys.executable, "examples/%s" % example],
        capture_output=True,
        text=True,
        timeout=TIMEOUTS.get(example, 120),
        cwd=str(pathlib.Path("examples").resolve().parent),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()  # every example narrates something
    golden = (GOLDEN / example).with_suffix(".stdout").read_text()
    assert result.stdout == golden


def test_example_inventory_is_complete():
    """The README promises these examples; keep them in sync."""
    promised = {
        "quickstart.py",
        "table2_report.py",
        "priority_inversion.py",
        "perverted_debugging.py",
        "ada_dining_philosophers.py",
        "io_server.py",
        "thread_debugger.py",
        "rate_monotonic.py",
    }
    assert promised.issubset(set(EXAMPLES))
