"""Shared benchmark helpers.

Every benchmark here reports *simulated* microseconds (the quantity the
paper's Table 2 reports) through ``benchmark.extra_info``; the
wall-clock numbers pytest-benchmark prints are merely how long the
simulator took to run the scenario.  Each benchmark also asserts the
paper's *shape*: who wins, by roughly what factor.
"""

from __future__ import annotations

import json

import pytest


def approx_ratio(measured: float, paper: float, tolerance: float = 0.35):
    """Assert measured is within ``tolerance`` (relative) of paper."""
    assert paper > 0
    ratio = measured / paper
    assert (1 - tolerance) <= ratio <= (1 + tolerance), (
        "measured %.2f vs paper %.2f (ratio %.2f)" % (measured, paper, ratio)
    )


def record_row(result, workload: str, **params):
    """``{metric: value}`` for one workload and params of a suite
    result, read through its record keys (``SuiteResult.by_key``)."""
    wanted = json.dumps(params, sort_keys=True)
    row = {
        metric: record.value
        for (name, metric, key), record in result.by_key().items()
        if name == workload and key == wanted
    }
    assert row, "no %s records for %s" % (workload, wanted)
    return row


@pytest.fixture
def sim_bench(benchmark):
    """Run a simulation once under pytest-benchmark and attach the
    simulated result to the report."""

    def _run(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        if isinstance(result, (int, float)):
            benchmark.extra_info["simulated_us"] = round(float(result), 2)
        elif isinstance(result, dict):
            for key, value in result.items():
                if isinstance(value, (int, float)):
                    benchmark.extra_info[key] = (
                        round(float(value), 3)
                        if isinstance(value, float)
                        else value
                    )
        return result

    return _run
