"""Golden fleet outputs: the drain scenario and the overcommit sweep.

Every scenario records what a caller can observe: every field of the
returned result (each migration report with its pre-copy and post-copy
halves, each overcommit frontier point) plus the scenario's simulated
clock and its event counts.  The record must equal the checked-in
``golden/fleet.json`` exactly, floats included, so any restructuring of
the fleet, economics, network or migration code is held to the simulated
behaviour it replaces.  Together the runs cover pre-copy and post-copy
migrations, auto-converge throttling and balloon refaults.

Regenerating after an intentional change::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/fleet/test_fleet_golden.py

then review the golden-file diff like any other code change.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro.fleet.economics.experiment as economics_experiment
import repro.fleet.experiment as fleet_experiment
from repro.core.clock import SimClock

GOLDEN = Path(__file__).parent / "golden" / "fleet.json"
OVERCOMMIT_RATIOS = (1.0, 1.5, 2.0, 2.5)


def _plain(obj):
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj, dtype=np.int64).tobytes()
        return {"size": int(obj.size),
                "sha256": hashlib.sha256(data).hexdigest()}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot record {type(obj).__name__}")


def _run(monkeypatch, module, fn, *args, **kwargs) -> dict:
    """Run one scenario and record its result and the clock it built."""
    clocks: list[SimClock] = []

    def recording_clock() -> SimClock:
        clock = SimClock()
        clocks.append(clock)
        return clock

    with monkeypatch.context() as m:
        m.setattr(module, "SimClock", recording_clock)
        result = fn(*args, **kwargs)
    (clock,) = clocks
    return {
        "result": dataclasses.asdict(result),
        "clock": {"now_us": clock.now_us,
                  "events": dict(sorted(clock.events().items()))},
    }


def record(monkeypatch) -> dict:
    fleet = fleet_experiment.run_fleet_scenario
    overcommit = economics_experiment.run_overcommit_scenario
    out = {
        "fleet": {
            "3x6/quick": _run(monkeypatch, fleet_experiment, fleet, 3, 6,
                              quick=True),
            "4x24": _run(monkeypatch, fleet_experiment, fleet, 4, 24),
        },
        "overcommit": {
            f"{r}": _run(monkeypatch, economics_experiment, overcommit, r)
            for r in OVERCOMMIT_RATIOS
        },
    }
    out["overcommit"]["3.0/quick"] = _run(
        monkeypatch, economics_experiment, overcommit, 3.0, quick=True
    )
    return out


def test_fleet_outputs_match_golden(monkeypatch):
    got = json.loads(json.dumps(record(monkeypatch), default=_plain))
    if os.environ.get("REPRO_REGOLDEN") == "1":
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.is_file(), f"missing {GOLDEN}; regenerate with REPRO_REGOLDEN=1"
    want = json.loads(GOLDEN.read_text())
    for section in want:
        for key in want[section]:
            assert got[section][key] == want[section][key], (section, key)
    assert got == want
