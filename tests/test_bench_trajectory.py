"""The committed benchmark trajectory: every ``BENCH_*.json`` at the repo
root is a well-formed record of one change's paired e2e measurements.

Each file carries its provenance (commits, Python/numpy, nproc, workload
parameters), per-series end-to-end medians and quartiles for parent and
change, the traced per-layer counts, and the operation digests.  Its
seed-1234 digests must equal the committed reference, which this test
only reads: a recorded speed-up is only worth keeping if the simulated
output it was measured on is the reproduced one.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "benchmarks" / "e2e" / "expected_digests.json"
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SUMMARY_KEYS = {"median", "q1", "q3", "n"}


@pytest.fixture(params=BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def bench(request) -> dict:
    return json.loads(request.param.read_text())


def test_carries_provenance(bench):
    prov = bench["provenance"]
    assert {"python", "numpy", "nproc", "params", "recipe"} <= set(prov)
    for side in ("parent", "change"):
        assert {"git_rev", "src_dirty"} <= set(prov[side])
    assert prov["parent"]["git_rev"]


def test_series_hold_paired_summaries(bench):
    assert bench["series"]
    for series in bench["series"]:
        assert isinstance(series["seed"], int)
        for workload, metrics in series["end_to_end"].items():
            assert workload in bench["provenance"]["params"]
            for m in metrics.values():
                assert 0 <= m["change_wins"] <= m["pairs"]
                for side in ("parent", "change"):
                    assert SUMMARY_KEYS <= set(m[side])
                    assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]


def test_traced_counts_recorded(bench):
    traced = bench["traced"]
    assert traced["counts"]
    for counts in traced["counts"].values():
        assert counts and all(isinstance(v, (int, float)) for v in counts.values())


def test_seed_1234_digests_equal_reference(bench):
    expected = json.loads(EXPECTED.read_text())
    assert expected["seed"] == 1234
    got = bench["digests"]["1234"]
    assert got == expected["digests"]
