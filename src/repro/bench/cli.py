"""The evaluation-harness CLI: ``python -m repro.bench <command>``.

::

    python -m repro.bench run     --suite host --out records/host.json
    python -m repro.bench run     --suite all --archive
    python -m repro.bench compare baseline.json current.json
    python -m repro.bench gate    --suite host            # re-measure
    python -m repro.bench gate    --suite net --current records/net.json
    python -m repro.bench gate    --all --current-dir records/
    python -m repro.bench trend   [--suite host] [--format html --out t.html]
    python -m repro.bench list

``run`` executes a suite and writes its schema records
(``--archive`` files them under ``benchmarks/history/<commit>/``).
``compare`` diffs two record files with per-metric tolerance bands.
``gate`` compares a current run (measured on the spot when
``--current`` is omitted) against the newest archived baseline and
exits nonzero on any out-of-band regression, missing metric, or
simulated-time divergence.  ``trend`` renders the archived history as
an ASCII table or an HTML page.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.bench.archive import (
    DEFAULT_HISTORY,
    latest_result,
    list_commits,
    save_result,
)
from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    compare_results,
    failures,
    render_findings,
)
from repro.bench.schema import SchemaError, SuiteResult
from repro.bench.suites import SUITES, SUITE_RUNNERS
from repro.bench.trend import trend_ascii, trend_html


def _run_suite_now(suite: str, config: Optional[dict] = None,
                   scale: Optional[int] = None) -> SuiteResult:
    """Measure one suite, optionally replaying an archived config."""
    runner = SUITE_RUNNERS[suite]
    kwargs = dict(config or {})
    # Archived configs may carry descriptive keys the runner does not
    # take (e.g. the fleet workload name); keep only real parameters.
    import inspect

    accepted = set(inspect.signature(runner).parameters)
    kwargs = {k: v for k, v in kwargs.items()
              if k in accepted and v is not None}
    if scale is not None and "scale" in accepted:
        kwargs["scale"] = scale
    return runner(**kwargs)


def _load_result(path) -> SuiteResult:
    return SuiteResult.load(path)


def cmd_run(args: argparse.Namespace) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    status = 0
    for suite in suites:
        print("running suite %r..." % suite)
        result = _run_suite_now(suite, scale=args.scale)
        print(
            "  %d records from %d workloads (commit %s)"
            % (
                len(result.records),
                len({r.workload for r in result.records}),
                result.env.commit,
            )
        )
        if args.out and len(suites) == 1:
            result.save(args.out)
            print("  wrote %s" % args.out)
        elif args.out:
            target = Path(args.out) / ("%s.json" % suite)
            result.save(target)
            print("  wrote %s" % target)
        if args.archive:
            path = save_result(result, args.history)
            print("  archived %s" % path)
    return status


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = _load_result(args.baseline)
    current = _load_result(args.current)
    findings = compare_results(baseline, current, tolerance=args.tolerance)
    print(render_findings(findings, verbose=args.verbose))
    failed = failures(findings)
    if failed:
        print(
            "\n%d of %d gated metrics failed" % (len(failed), len(findings)),
            file=sys.stderr,
        )
        return 1
    print("\nall %d gated metrics within band" % len(findings))
    return 0


def _gate_one(
    suite: str,
    args: argparse.Namespace,
    current_path: Optional[str],
) -> int:
    baseline = None
    if args.baseline:
        baseline = _load_result(args.baseline)
    else:
        baseline = latest_result(args.history, suite)
    if baseline is None:
        print(
            "gate[%s]: no archived baseline under %s -- run "
            "`python -m repro.bench run --suite %s --archive` first"
            % (suite, args.history, suite),
            file=sys.stderr,
        )
        return 1
    if current_path:
        current = _load_result(current_path)
    else:
        print(
            "gate[%s]: measuring now with the baseline's config %r..."
            % (suite, baseline.config)
        )
        current = _run_suite_now(suite, config=baseline.config)
        if args.save_current:
            current.save(args.save_current)
            print("gate[%s]: wrote %s" % (suite, args.save_current))
    findings = compare_results(baseline, current, tolerance=args.tolerance)
    print(render_findings(findings, verbose=args.verbose))
    failed = failures(findings)
    if failed:
        print("\ngate[%s] FAILED (baseline commit %s):"
              % (suite, baseline.env.commit), file=sys.stderr)
        for finding in failed:
            print("  - %s: %s" % (finding.label(), finding.message),
                  file=sys.stderr)
        return 1
    print(
        "gate[%s] passed: %d metrics vs baseline commit %s "
        "(tolerance %.0f%%)"
        % (suite, len(findings), baseline.env.commit,
           args.tolerance * 100.0)
    )
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    if args.current_dir:
        directory = Path(args.current_dir)
        pairs = []
        for suite in SUITES:
            path = directory / ("%s.json" % suite)
            if path.exists():
                pairs.append((suite, str(path)))
        if not pairs:
            print("no <suite>.json records under %s" % directory,
                  file=sys.stderr)
            return 1
        worst = 0
        for suite, path in pairs:
            worst = max(worst, _gate_one(suite, args, path))
        return worst
    if args.all:
        worst = 0
        for suite in SUITES:
            if latest_result(args.history, suite) is None:
                print("gate[%s]: skipped (no baseline archived)" % suite)
                continue
            worst = max(worst, _gate_one(suite, args, None))
        return worst
    if not args.suite:
        print("gate: pass --suite, --all, or --current-dir",
              file=sys.stderr)
        return 2
    return _gate_one(args.suite, args, args.current)


def cmd_trend(args: argparse.Namespace) -> int:
    if args.format == "html":
        page = trend_html(
            args.history, suite=args.suite, metric_filter=args.metric
        )
        if args.out:
            Path(args.out).write_text(page)
            print("wrote %s" % args.out)
        else:
            print(page)
        return 0
    table = trend_ascii(
        args.history,
        suite=args.suite,
        metric_filter=args.metric,
        gated_only=args.gated_only,
    )
    if args.out:
        Path(args.out).write_text(table + "\n")
        print("wrote %s" % args.out)
    else:
        print(table)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("suites: %s" % ", ".join(SUITES))
    commits = list_commits(args.history)
    if commits:
        print("history (%s): %d entries, oldest first:"
              % (args.history, len(commits)))
        for commit in commits:
            entry = Path(args.history) / commit
            suites = sorted(
                p.stem for p in entry.glob("*.json")
            ) if entry.is_dir() else []
            print("  %s  (%s)" % (commit, ", ".join(suites) or "empty"))
    else:
        print("history (%s): empty" % args.history)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--history",
        default=str(DEFAULT_HISTORY),
        help="archive directory (default benchmarks/history)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="measure a suite, emit schema records")
    run.add_argument("--suite", choices=SUITES + ("all",), required=True)
    run.add_argument("--scale", type=int, default=None,
                     help="override the suite's default scale")
    run.add_argument("--out", default=None,
                     help="output file (or directory with --suite all)")
    run.add_argument("--archive", action="store_true",
                     help="also file under benchmarks/history/<commit>/")
    run.set_defaults(fn=cmd_run)

    comp = subs.add_parser("compare", help="diff two record files")
    comp.add_argument("baseline")
    comp.add_argument("current")
    comp.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    comp.add_argument("--verbose", action="store_true",
                      help="show in-band metrics too")
    comp.set_defaults(fn=cmd_compare)

    gate = subs.add_parser(
        "gate", help="fail on out-of-band regressions vs the baseline"
    )
    gate.add_argument("--suite", choices=SUITES, default=None)
    gate.add_argument("--all", action="store_true",
                      help="gate every suite with an archived baseline")
    gate.add_argument("--baseline", default=None,
                      help="explicit baseline records file "
                      "(default: newest archived entry)")
    gate.add_argument("--current", default=None,
                      help="records file from a prior measurement; "
                      "omitted = measure now at the baseline's config")
    gate.add_argument("--current-dir", default=None,
                      help="directory of <suite>.json records; gates "
                      "each against its archived baseline")
    gate.add_argument("--save-current", default=None,
                      help="write the freshly measured records here")
    gate.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    gate.add_argument("--verbose", action="store_true")
    gate.set_defaults(fn=cmd_gate)

    trend = subs.add_parser("trend", help="history table (ASCII or HTML)")
    trend.add_argument("--suite", choices=SUITES, default=None)
    trend.add_argument("--metric", default=None,
                       help="substring filter on metric names")
    trend.add_argument("--format", choices=("ascii", "html"),
                       default="ascii")
    trend.add_argument("--gated-only", action="store_true",
                       help="hide info-direction series")
    trend.add_argument("--out", default=None)
    trend.set_defaults(fn=cmd_trend)

    lst = subs.add_parser("list", help="suites and archived history")
    lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # e.g. `trend | head`; the reader closed early, nothing failed.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
