"""Tests for the overcommit experiment: frontier shape + determinism."""

from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.fleet.economics.experiment import (
    overcommit_specs,
    run_overcommit_scenario,
)

RATIOS = [1.0, 1.5, 2.0]


@pytest.fixture(scope="module")
def sweep():
    return [run_overcommit_scenario(r, quick=True) for r in RATIOS]


def test_specs_leave_guest_frame_float():
    for quick in (False, True):
        for s in overcommit_specs(4, seed=1, quick=quick):
            assert s.mem_pages - s.workload_pages >= s.writes_per_round
            assert s.hot_fraction < 1.0  # cold tail exists to reclaim


def test_ratio_one_is_the_idle_control(sweep):
    base = sweep[0]
    assert base.ratio == 1.0
    assert base.reclaimed_pages == 0
    assert base.refault_pages == 0
    assert base.pressure_events == 0
    assert base.rejected > 0  # the offered load genuinely oversubscribes


def test_frontier_monotone_non_decreasing(sweep):
    admitted = [r.admitted for r in sweep]
    rates = [r.refaults_per_1k_accesses for r in sweep]
    assert admitted == sorted(admitted)
    assert rates == sorted(rates)
    assert rates[-1] > 0.0


def test_overcommit_admits_more_than_physical(sweep):
    over = sweep[-1]
    assert sum(over.nominal_pages.values()) > over.capacity_pages
    assert over.admitted > sweep[0].admitted


def test_latency_follows_refaults(sweep):
    assert sweep[-1].mean_round_us > sweep[0].mean_round_us


def test_scenario_deterministic():
    a = asdict(run_overcommit_scenario(1.5, quick=True))
    b = asdict(run_overcommit_scenario(1.5, quick=True))
    assert a == b


def test_admission_ramp_opens_with_sampling(sweep):
    """Early waves admit on pessimistic whole-workload estimates; once
    sampling shrinks the residents' histories, later waves fit more."""
    over = sweep[-1]
    ramp = over.admitted_by_epoch
    assert ramp[-1] > ramp[0]
    assert ramp == sorted(ramp)


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        run_overcommit_scenario(0.5, quick=True)


def test_registered_in_runner():
    from repro.experiments.runner import EXPERIMENT_FAMILIES, EXPERIMENTS

    assert "overcommit" in EXPERIMENTS
    assert ["overcommit"] in EXPERIMENT_FAMILIES


def test_exp_overcommit_renders_frontier():
    from repro.config import RunConfig
    from repro.fleet.economics.experiment import exp_overcommit

    out = exp_overcommit(RunConfig(quick=True, overcommit_ratios=(1.0, 2.0)))
    assert out.experiment == "overcommit"
    assert [row[0] for row in out.rows] == ["1.0", "2.0"]
    assert "refault/1k" in out.headers
    rates = out.extra["refaults_per_1k"]
    assert rates["1.0"] == 0.0
    assert rates["2.0"] > 0.0
