"""Every benchmark runs in some CI job.

``benchmarks/`` lies outside tier-1's ``testpaths``, and each CI job
selects its benchmarks by a marker expression or a path.  A benchmark
that no job selects never runs: the TCB/stack pool claim failed
unnoticed for many changes that way.  This test reads the pytest
invocations from the CI workflow and each benchmark's markers from its
module's source, and fails if some benchmark matches no invocation.
Invocations narrowed with ``-k`` (the opt-in sf100 row) count for
nothing.
"""

import ast
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: The markers registered in pyproject.toml.
MARKERS = ("host", "check", "net", "fleet", "smp")


def _mark_names(node):
    """Registered marker names a ``pytest.mark.NAME`` expression uses."""
    names = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr in MARKERS
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "mark"
        ):
            names.add(sub.attr)
    return names


def benchmark_tests():
    """``(module path, test name, markers)`` for every benchmark."""
    found = []
    for path in sorted((ROOT / "benchmarks").rglob("test_*.py")):
        tree = ast.parse(path.read_text())
        module_marks = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "pytestmark"
                for t in node.targets
            ):
                module_marks |= _mark_names(node.value)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                "test"
            ):
                marks = set(module_marks)
                for decorator in node.decorator_list:
                    marks |= _mark_names(decorator)
                found.append(
                    (path.relative_to(ROOT).as_posix(), node.name, marks)
                )
    return found


def _commands(text):
    """The workflow's lines, each folded (``run: >``) block joined
    into one line."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.rstrip().endswith("run: >"):
            yield line
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        while index < len(lines) and (
            len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            block.append(lines[index].strip())
            index += 1
        yield " ".join(block)


def ci_selections(text):
    """``(paths, marker expression or None)`` of every benchmark run."""
    runs = []
    for line in _commands(text):
        if "-m pytest" not in line:
            continue
        args = shlex.split(line.split("-m pytest", 1)[1])
        paths = [a for a in args if a.startswith("benchmarks")]
        if not paths or "-k" in args:
            continue
        expr = args[args.index("-m") + 1] if "-m" in args else None
        runs.append((paths, expr))
    return runs


def _selects(run, module, marks):
    paths, expr = run
    if not any(module == p or module.startswith(p.rstrip("/") + "/")
               for p in paths):
        return False
    if expr is None:
        return True
    names = {m: m in marks for m in MARKERS}
    return bool(eval(expr, {"__builtins__": {}}, names))


def unselected(runs):
    return [
        "%s::%s" % (module, name)
        for module, name, marks in benchmark_tests()
        if not any(_selects(run, module, marks) for run in runs)
    ]


def test_every_benchmark_runs_in_some_ci_job():
    assert unselected(ci_selections(WORKFLOW.read_text())) == []


def test_an_unmarked_benchmark_without_its_job_is_caught():
    """Drop the run that selects the unmarked benchmarks: the paper's
    own claims would then run nowhere, and the check says so."""
    runs = ci_selections(WORKFLOW.read_text())
    marked_only = [run for run in runs if not (run[1] or "").startswith("not ")]
    assert len(marked_only) == len(runs) - 1
    missing = unselected(marked_only)
    assert "benchmarks/test_ablation_pool.py::test_pool_ablation" in missing
    assert all("/host/" not in name for name in missing)
