"""Golden metrics: every counter and histogram, frozen per scenario.

Each scenario's ``session.metrics.snapshot()`` must serialize to the
checked-in ``golden/<scenario>.metrics.json`` byte for byte.  The
scenarios are the five golden-trace runs (see :mod:`tests.obs.golden_runs`)
plus five quick experiments that between them name every metric
``runner all --quick --metrics`` prints.

Counters must not depend on what the trace keeps, so each scenario runs
twice: once under a detailed unbounded session, and once under a
one-event, ``detail=False`` session, where all but the first event are
dropped and no per-page payload is built.  Both must match the same file.

Regenerating after an intentional change::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_metrics.py

then review the golden-file diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.experiments.runner import run_experiment
from repro.obs import trace as otr

from .golden_runs import GOLDEN_SMP_TECHNIQUES, GOLDEN_TECHNIQUES, canonical_run

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Scenario name -> (technique, n_vcpus) for the golden-trace runs.
TRACE_SCENARIOS = {
    **{t: (t, 1) for t in GOLDEN_TECHNIQUES},
    **{f"{t}-smp2": (t, 2) for t in GOLDEN_SMP_TECHNIQUES},
}
EXPERIMENT_SCENARIOS = ("fault_matrix", "fleet", "overcommit", "serverless", "table6")

#: (capacity, detail) of the session each scenario runs under.
SESSION_CONFIGS = [(None, True), (1, False)]


def _run(scenario: str, session: otr.TraceSession) -> None:
    if scenario in TRACE_SCENARIOS:
        technique, n_vcpus = TRACE_SCENARIOS[scenario]
        canonical_run(technique, n_vcpus=n_vcpus, session=session)
        return
    # A memo-cache hit would skip the simulation and emit nothing.
    EXPERIMENT_CACHE.clear()
    with session.active():
        run_experiment(scenario, RunConfig(quick=True))


@pytest.mark.parametrize("capacity,detail", SESSION_CONFIGS)
@pytest.mark.parametrize("scenario", [*TRACE_SCENARIOS, *EXPERIMENT_SCENARIOS])
def test_metrics_match_golden(scenario, capacity, detail, monkeypatch):
    # Experiment stacks take their vCPU count from the environment.
    monkeypatch.setenv("REPRO_VCPUS", "1")
    session = otr.TraceSession(capacity=capacity, detail=detail)
    _run(scenario, session)
    got = json.dumps(session.metrics.snapshot(), indent=1, sort_keys=True) + "\n"
    path = GOLDEN_DIR / f"{scenario}.metrics.json"
    if os.environ.get("REPRO_REGOLDEN") == "1":
        path.write_text(got)
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden metrics {path}; regenerate with REPRO_REGOLDEN=1"
    )
    assert got == path.read_text()
