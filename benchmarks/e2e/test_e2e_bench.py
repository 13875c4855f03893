"""Self-test of the end-to-end benchmark on its smallest workload.

Runs ``run.py --workloads fleet-drain --reps 1 --trace`` at full size
(about ten seconds) and checks what the benchmark promises: every metric
``BENCHMARK.json`` declares is printed with its unit, spans nest (no span
has negative self time), layer self times fit inside the traced wall
time, and the exact per-layer counts equal the committed baseline's.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD = "fleet-drain"
SEED = 1234
BASELINE = HERE / "baseline" / "set-1234-a.json"


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workloads", WORKLOAD,
         "--seed", str(SEED), "--reps", "1", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1]), json.loads(out.read_text())


def test_every_declared_metric_is_printed_with_its_unit(bench):
    table, last, _ = bench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for m in declared["end_to_end"]:
        assert any(
            line.split()[:2] == [WORKLOAD, m["name"]]
            and line.split()[3] == m["unit"]
            for line in table
        ), m["name"]
    assert set(last["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_no_span_has_negative_self_time(bench):
    spans = {}
    child_s = defaultdict(float)
    with open(HERE / "out" / f"spans-{WORKLOAD}-{SEED}.jsonl") as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
            if s["parent"] >= 0:
                child_s[s["parent"]] += s["end"] - s["start"]
    assert spans
    for sid, s in spans.items():
        assert s["end"] - s["start"] - child_s[sid] >= 0, s


def test_layer_self_time_fits_in_traced_wall(bench):
    _, _, result = bench
    traced = result["workloads"][WORKLOAD]["traced"]
    layers = traced["layers"]
    self_total = sum(v for k, v in layers.items()
                     if k.endswith(".self_s") and k != "other.self_s")
    assert 0 < self_total <= traced["wall_s"]
    assert layers["other.self_s"] >= 0


def test_counts_equal_committed_baseline(bench):
    _, _, result = bench
    got = result["workloads"][WORKLOAD]["traced"]["layers"]
    want = json.loads(BASELINE.read_text())["workloads"][WORKLOAD]["traced"]["layers"]
    # Everything but times: calls, work counts and ratios of counts.
    exact = [k for k in want if not k.endswith(("_s", "_ms", ".overhead"))]
    assert exact
    assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
