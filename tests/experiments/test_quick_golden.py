"""The paper's output, pinned: uncached ``runner all --quick`` stdout must
equal ``results/quick.txt`` byte for byte.

Host-side changes (caches, vectorisation, deleted paths) must not move a
simulated figure.  A change that means to move one regenerates the file
in the same commit, so the diff is the reviewable claim::

    REPRO_EXPERIMENT_CACHE=0 REPRO_VCPUS=1 PYTHONPATH=src \\
        python -m repro.experiments.runner all --quick > results/quick.txt
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "results" / "quick.txt"


def test_runner_all_quick_matches_golden():
    env = dict(os.environ)
    # Memoization off so every experiment really runs; one vCPU because
    # the golden is the single-vCPU configuration (the SMP CI leg exports
    # REPRO_VCPUS=4, which legitimately moves a serverless cell).
    env["REPRO_EXPERIMENT_CACHE"] = "0"
    env["REPRO_VCPUS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "all", "--quick"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == GOLDEN.read_text()
