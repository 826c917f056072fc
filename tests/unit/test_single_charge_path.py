"""One way to charge a cost: library code never branches on the watcher.

How a charge reaches the clock is decided in ``World.spend`` and
``VirtualClock.advance`` alone, so a profiled run executes the same
library code as an unprofiled one.  The only other reader of the
clock's watcher slot is the segment compiler, which bypasses itself
when the clock is watched.  This scan keeps per-site watcher forks from
coming back.
"""

import pathlib
import re

import repro

ALLOWED = {"hw/clock.py", "sim/world.py", "sim/segments.py"}

_WATCHER = re.compile(r"\._watcher\b")


def test_watchers_read_only_by_the_charge_path():
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _WATCHER.search(line):
                offenders.append("%s:%d: %s" % (rel, lineno, line.strip()))
    assert not offenders, "\n".join(offenders)


def test_no_precomputed_charge_constants_in_the_library():
    core = pathlib.Path(repro.__file__).parent / "core"
    offenders = [
        "%s: %s" % (path.name, match.group(0))
        for path in sorted(core.glob("*.py"))
        for match in re.finditer(r"self\._c_\w+", path.read_text())
    ]
    assert not offenders, "\n".join(offenders)
