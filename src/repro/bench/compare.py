"""Tolerance-band comparison between two suite results.

This generalizes the old host-only ``check_regression.py`` contract
across every suite:

- ``exact`` metrics (virtual-clock outputs) must match bit for bit --
  any difference is a **divergence**: the simulation's semantics
  changed and the baseline must be regenerated deliberately, which is
  a different problem from a slow host path and is reported as such;
- ``higher``/``lower`` metrics fail only outside their tolerance band
  (the record's own ``tolerance`` or the gate-wide default, 20% as
  before); improvements beyond the band are reported but never fail;
- ``info`` metrics are skipped;
- a metric present in the baseline but missing from the current run
  fails (silently dropping a measurement is itself a regression);
- mismatched suite names or runner configs make the results
  **incomparable**, which also fails, as does a record whose unit or
  direction differs from its baseline's (a moved declaration must not
  drift silently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.schema import NONCOMPARABLE_CONFIG, SuiteResult

#: The historical host-gate band, now the default for every suite.
DEFAULT_TOLERANCE = 0.20

#: Finding statuses that make the gate exit nonzero.
FAIL_STATUSES = frozenset({"regressed", "diverged", "missing", "incomparable"})


@dataclass
class Finding:
    """One compared metric (or one structural problem)."""

    status: str  # ok | improved | regressed | diverged | missing | incomparable
    workload: str
    metric: str
    message: str
    baseline_value: Optional[float] = None
    current_value: Optional[float] = None
    params: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        return self.status in FAIL_STATUSES

    def label(self) -> str:
        extras = ""
        if self.params:
            extras = "[%s]" % ",".join(
                "%s=%s" % (k, v) for k, v in sorted(self.params.items())
                if k != "sweep" or v != "cold"
            )
        return "%s/%s%s" % (self.workload, self.metric, extras)


def _comparable_config(config: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: value
        for key, value in config.items()
        if key not in NONCOMPARABLE_CONFIG
    }


def compare_results(
    baseline: SuiteResult,
    current: SuiteResult,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Finding]:
    """Compare every gated baseline metric against the current run."""
    findings: List[Finding] = []
    if baseline.suite != current.suite:
        return [
            Finding(
                status="incomparable",
                workload="-",
                metric="suite",
                message="suite mismatch: baseline is %r, current is %r"
                % (baseline.suite, current.suite),
            )
        ]
    base_cfg = _comparable_config(baseline.config)
    cur_cfg = _comparable_config(current.config)
    if base_cfg != cur_cfg:
        differing = sorted(
            key
            for key in set(base_cfg) | set(cur_cfg)
            if base_cfg.get(key) != cur_cfg.get(key)
        )
        return [
            Finding(
                status="incomparable",
                workload="-",
                metric="config",
                message="config mismatch on %s: baseline %r vs current %r "
                "-- results are not comparable"
                % (
                    differing,
                    {k: base_cfg.get(k) for k in differing},
                    {k: cur_cfg.get(k) for k in differing},
                ),
            )
        ]

    current_by_key = current.by_key()
    for record in baseline.records:
        if record.direction == "info":
            continue
        cur = current_by_key.get(record.key())
        common = dict(
            workload=record.workload,
            metric=record.metric,
            params=dict(record.params),
            baseline_value=record.value,
        )
        if cur is None:
            findings.append(
                Finding(
                    status="missing",
                    message="metric missing from the current run "
                    "(baseline %g %s)" % (record.value, record.unit),
                    **common,
                )
            )
            continue
        common["current_value"] = cur.value
        if (cur.unit, cur.direction) != (record.unit, record.direction):
            findings.append(
                Finding(
                    status="incomparable",
                    message="declaration changed: baseline %s/%s, current "
                    "%s/%s -- regenerate the baseline deliberately"
                    % (record.unit, record.direction, cur.unit,
                       cur.direction),
                    **common,
                )
            )
            continue
        if record.direction == "exact":
            if cur.value != record.value:
                findings.append(
                    Finding(
                        status="diverged",
                        message="deterministic output diverged "
                        "(%r -> %r %s) -- semantics changed; regenerate "
                        "the baseline deliberately"
                        % (record.value, cur.value, record.unit),
                        **common,
                    )
                )
            else:
                findings.append(
                    Finding(status="ok", message="exact match", **common)
                )
            continue

        band = record.tolerance if record.tolerance is not None else tolerance
        if record.value == 0:
            # A zero baseline has no relative band: any move is out of
            # band, and its sign against the direction decides which way.
            if cur.value == 0:
                status = "ok"
            elif (cur.value > 0) == (record.direction == "higher"):
                status = "improved"
            else:
                status = "regressed"
            findings.append(
                Finding(
                    status=status,
                    message="baseline is zero; recorded %g %s"
                    % (cur.value, record.unit),
                    **common,
                )
            )
            continue
        ratio = cur.value / record.value
        if record.direction == "higher":
            regressed = ratio < (1.0 - band)
            improved = ratio > (1.0 + band)
        else:  # lower
            regressed = ratio > (1.0 + band)
            improved = ratio < (1.0 - band)
        if regressed:
            findings.append(
                Finding(
                    status="regressed",
                    message="%g %s is %.1f%% %s the baseline %g "
                    "(band %.0f%%)"
                    % (
                        cur.value,
                        record.unit,
                        abs(1.0 - ratio) * 100.0,
                        "below" if record.direction == "higher" else "above",
                        record.value,
                        band * 100.0,
                    ),
                    **common,
                )
            )
        elif improved:
            findings.append(
                Finding(
                    status="improved",
                    message="%g %s beats the baseline %g by %.1f%%"
                    % (
                        cur.value,
                        record.unit,
                        record.value,
                        abs(1.0 - ratio) * 100.0,
                    ),
                    **common,
                )
            )
        else:
            findings.append(
                Finding(
                    status="ok",
                    message="within the %.0f%% band (ratio %.2f)"
                    % (band * 100.0, ratio),
                    **common,
                )
            )
    return findings


def failures(findings: List[Finding]) -> List[Finding]:
    return [finding for finding in findings if finding.failed]


def render_findings(
    findings: List[Finding], verbose: bool = False
) -> str:
    """An aligned comparison table; quiet rows collapse unless verbose."""
    shown = [
        f for f in findings
        if verbose or f.status not in ("ok",)
    ]
    ok_count = sum(1 for f in findings if f.status == "ok")
    lines: List[str] = []
    if shown:
        width = max(len(f.label()) for f in shown)
        swidth = max(len(f.status) for f in shown)
        for finding in shown:
            lines.append(
                "%-*s  %-*s  %s"
                % (width, finding.label(), swidth, finding.status,
                   finding.message)
            )
    if not verbose and ok_count:
        lines.append("(%d metrics in band, not shown)" % ok_count)
    if not findings:
        lines.append("(nothing gated: baseline has no comparable metrics)")
    return "\n".join(lines)
