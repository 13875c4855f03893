"""The paper's output, pinned: uncached ``runner all --quick`` stdout must
equal ``results/quick.txt`` byte for byte.

Host-side changes (caches, vectorisation, deleted paths) must not move a
simulated figure.  A change that means to move one regenerates the file
in the same commit, so the diff is the reviewable claim::

    REPRO_EXPERIMENT_CACHE=0 REPRO_VCPUS=1 PYTHONPATH=src \\
        python -m repro.experiments.runner all --quick > results/quick.txt

The same run's peak RSS is bounded: stacks the sweep has dropped must not
stay resident.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "results" / "quick.txt"
#: Peak RSS allowed to the uncached quick sweep's process.
MAX_RSS_MB = 200


def test_runner_all_quick_matches_golden(tmp_path):
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
    # Popen + wait4 rather than subprocess.run: wait4 also returns the
    # child's own resource usage, whose peak RSS is the second check.
    with open(tmp_path / "stderr.txt", "w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "all", "--quick"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert child.returncode == 0, err.read()
    assert out == GOLDEN.read_text()
    # A dropped stack is freed by reference counting, so the sweep's peak
    # RSS follows the largest live stack (~90 MB), not the number built
    # (about 520 MB when every stack waited for the cyclic collector).
    # The bound holds under REPRO_TRACE=1 too: that process-wide session
    # keeps no per-page payloads.
    peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
    assert peak_mb < MAX_RSS_MB, f"runner child peaked at {peak_mb:.0f} MB"
