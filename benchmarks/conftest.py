"""Benchmark-suite configuration.

Each ``bench_*.py`` regenerates one of the paper's evaluation artifacts
(tables and figures) inside a pytest-benchmark measurement, prints the
paper-style table, and asserts the *shape* claims the paper makes (who
wins, by roughly what factor, where crossovers fall).  Absolute simulated
times are calibration-dependent and are recorded, not asserted.

Set ``REPRO_BENCH_QUICK=1`` to shrink sweeps for a fast smoke run.
"""

import os

import pytest

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="session")
def quick() -> bool:
    return QUICK


def run_and_print(benchmark, name: str, quick: bool):
    """Run one registry experiment under the benchmark fixture."""
    from repro.config import RunConfig
    from repro.experiments.runner import run_experiment

    out = benchmark.pedantic(
        run_experiment, args=(name, RunConfig(quick=quick)),
        rounds=1, iterations=1,
    )
    print("\n" + out.text)
    benchmark.extra_info["experiment"] = name
    return out
