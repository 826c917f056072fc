"""The versioned benchmark-record schema shared by all five suites.

Every benchmark runner (host throughput, net load sweeps, check
exploration, fleet scaling, the SMP lock zoo) produces the same thing:
named metrics with a unit, measured for one workload under explicit
parameters, on a fingerprinted environment.  This module is the one
definition of that shape; the runners in :mod:`repro.bench.suites`
emit it directly, and the compare/gate/trend machinery consumes
nothing else.

A :class:`BenchRecord` carries its own comparison semantics in
``direction``:

``higher``
    Bigger is better (throughput).  The gate fails when the current
    value falls below ``baseline * (1 - tolerance)``.
``lower``
    Smaller is better (latency).  The gate fails when the current
    value rises above ``baseline * (1 + tolerance)``.
``exact``
    Deterministic simulation output (simulated microseconds, step
    counts).  *Any* difference is a divergence: the simulation's
    semantics changed and the baseline must be regenerated
    deliberately -- a different problem from a slow host path, and
    reported as such.
``info``
    Context only (raw wall times, counter harvests); recorded for the
    trend history, never gated.

Records may carry a per-metric ``tolerance`` overriding the gate-wide
default -- wall-clock ratios measured on shared CI runners (the fleet
speedups) get wider bands than virtual-time throughput.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

#: Bump when the record shape changes incompatibly; ``from_dict``
#: refuses payloads from a different major version.
SCHEMA_VERSION = 1

DIRECTIONS = ("higher", "lower", "exact", "info")

#: Config keys that change measurement fidelity (best-of-N repeats)
#: but not what is measured; two results whose configs differ only
#: here are still comparable.
NONCOMPARABLE_CONFIG = frozenset({"repeat", "grid_repeat"})

Number = Union[int, float]


class SchemaError(ValueError):
    """A payload does not satisfy the benchmark-record schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


@dataclass
class BenchRecord:
    """One measured metric: the atom of the benchmark history."""

    suite: str
    workload: str
    metric: str
    value: Number
    unit: str
    direction: str = "info"
    params: Dict[str, Any] = field(default_factory=dict)
    tolerance: Optional[float] = None

    def validate(self) -> "BenchRecord":
        for name in ("suite", "workload", "metric", "unit"):
            attr = getattr(self, name)
            _require(
                isinstance(attr, str) and attr != "",
                "record %s must be a non-empty string, got %r" % (name, attr),
            )
        _require(
            self.direction in DIRECTIONS,
            "record %s/%s: direction %r not one of %s"
            % (self.workload, self.metric, self.direction, list(DIRECTIONS)),
        )
        _require(
            isinstance(self.value, (int, float))
            and not isinstance(self.value, bool),
            "record %s/%s: value must be a number, got %r"
            % (self.workload, self.metric, self.value),
        )
        if self.tolerance is not None:
            _require(
                isinstance(self.tolerance, (int, float))
                and 0.0 < self.tolerance < 1.0,
                "record %s/%s: tolerance must be in (0, 1), got %r"
                % (self.workload, self.metric, self.tolerance),
            )
            _require(
                self.direction in ("higher", "lower"),
                "record %s/%s: tolerance is meaningless for direction %r"
                % (self.workload, self.metric, self.direction),
            )
        _require(
            isinstance(self.params, dict),
            "record %s/%s: params must be a dict" % (self.workload, self.metric),
        )
        for key, value in self.params.items():
            _require(
                isinstance(key, str),
                "record %s/%s: param keys must be strings, got %r"
                % (self.workload, self.metric, key),
            )
            _require(
                value is None or isinstance(value, (str, int, float, bool)),
                "record %s/%s: param %r must be a scalar, got %r"
                % (self.workload, self.metric, key, value),
            )
        return self

    def key(self) -> Tuple[str, str, str]:
        """Identity within a suite: same workload, metric, and params."""
        return (
            self.workload,
            self.metric,
            json.dumps(self.params, sort_keys=True),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "suite": self.suite,
            "workload": self.workload,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
        }
        if self.params:
            out["params"] = dict(self.params)
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchRecord":
        _require(isinstance(payload, dict), "record must be an object")
        unknown = set(payload) - {
            "suite", "workload", "metric", "value", "unit",
            "direction", "params", "tolerance",
        }
        _require(not unknown, "record has unknown fields: %s" % sorted(unknown))
        try:
            record = cls(
                suite=payload["suite"],
                workload=payload["workload"],
                metric=payload["metric"],
                value=payload["value"],
                unit=payload["unit"],
                direction=payload.get("direction", "info"),
                params=dict(payload.get("params", {})),
                tolerance=payload.get("tolerance"),
            )
        except KeyError as exc:
            raise SchemaError("record missing field %s" % exc) from exc
        return record.validate()


@dataclass
class EnvFingerprint:
    """Where a suite result came from (enough to judge comparability)."""

    commit: str = "unknown"
    python: str = "unknown"
    cores: int = 0
    platform: str = "unknown"
    scale: Optional[int] = None

    def validate(self) -> "EnvFingerprint":
        _require(
            isinstance(self.commit, str) and self.commit != "",
            "env commit must be a non-empty string",
        )
        _require(isinstance(self.python, str), "env python must be a string")
        _require(
            isinstance(self.cores, int) and self.cores >= 0,
            "env cores must be a non-negative int",
        )
        if self.scale is not None:
            _require(
                isinstance(self.scale, int) and self.scale > 0,
                "env scale must be a positive int",
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "commit": self.commit,
            "python": self.python,
            "cores": self.cores,
            "platform": self.platform,
        }
        if self.scale is not None:
            out["scale"] = self.scale
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EnvFingerprint":
        _require(isinstance(payload, dict), "env must be an object")
        env = cls(
            commit=payload.get("commit", "unknown"),
            python=payload.get("python", "unknown"),
            cores=payload.get("cores", 0),
            platform=payload.get("platform", "unknown"),
            scale=payload.get("scale"),
        )
        return env.validate()


@dataclass
class SuiteResult:
    """One suite's records from one run, plus the knobs that shaped it.

    ``config`` captures the runner arguments (scale, sweep grid, load
    parameters): two results are only comparable when their configs
    match -- except for keys in :data:`NONCOMPARABLE_CONFIG`, which
    affect measurement fidelity but not what was measured.
    """

    suite: str
    env: EnvFingerprint = field(default_factory=EnvFingerprint)
    config: Dict[str, Any] = field(default_factory=dict)
    records: List[BenchRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def validate(self) -> "SuiteResult":
        _require(
            isinstance(self.suite, str) and self.suite != "",
            "suite name must be a non-empty string",
        )
        _require(
            self.schema_version == SCHEMA_VERSION,
            "unsupported schema version %r (this build reads %d)"
            % (self.schema_version, SCHEMA_VERSION),
        )
        self.env.validate()
        seen: Dict[Tuple[str, str, str], BenchRecord] = {}
        for record in self.records:
            record.validate()
            _require(
                record.suite == self.suite,
                "record %s/%s belongs to suite %r, not %r"
                % (record.workload, record.metric, record.suite, self.suite),
            )
            key = record.key()
            _require(
                key not in seen,
                "duplicate record %s/%s %s"
                % (record.workload, record.metric, key[2]),
            )
            seen[key] = record
        return self

    def by_key(self) -> Dict[Tuple[str, str, str], BenchRecord]:
        return {record.key(): record for record in self.records}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "env": self.env.to_dict(),
            "config": dict(self.config),
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SuiteResult":
        _require(isinstance(payload, dict), "suite result must be an object")
        _require("suite" in payload, "suite result missing 'suite'")
        _require("records" in payload, "suite result missing 'records'")
        result = cls(
            suite=payload["suite"],
            env=EnvFingerprint.from_dict(payload.get("env", {})),
            config=dict(payload.get("config", {})),
            records=[
                BenchRecord.from_dict(item) for item in payload["records"]
            ],
            schema_version=payload.get("schema_version", SCHEMA_VERSION),
        )
        return result.validate()

    # -- file I/O ----------------------------------------------------------

    def save(self, path) -> None:
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SuiteResult":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError("%s: not JSON (%s)" % (path, exc)) from exc
        try:
            return cls.from_dict(payload)
        except SchemaError as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc
