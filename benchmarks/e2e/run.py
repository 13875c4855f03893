"""End-to-end host-time benchmark of the simulator.

Runs each workload (``workloads.py``) in fresh child processes
(``child.py``), one at a time, single-threaded: a closed loop with one
client, operations issued back to back, memo-cache empty at start.
Rounds visit the workloads in turn, reversing the order every round, until
at least ``--reps`` rounds have run and ``--seconds`` have passed.  With
``--trace 1`` one traced child per workload follows and gives the
per-layer metrics (``layers.py``).

Every operation's result is digested and must equal the committed
reference (``expected_digests.json``), repeat across the runs, and keep
its workload's invariants; any other outcome counts as a failed operation.

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` (per-layer ones with
``--trace 1``).  Exits 1 if an operation failed, 2 if a child could not
run at all (then without the JSON line).

    python3 benchmarks/e2e/run.py --workload fleet-drain --seed 1234 \\
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, PARAMS, SEED_INDEPENDENT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected_digests.json"
OUT = HERE / "out"
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """The parent's environment without ``REPRO_*`` knobs, with one BLAS
    thread, no bytecode writes into the tree, a fixed hash seed, and only
    this checkout's ``src`` on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(workload: str, seed: int, trace: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{workload}: child killed after {e.timeout} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload}: child exited {proc.returncode}\n"
                          f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of ``values``."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def failures(workload: str, seed: int, runs: list[dict],
             expected: dict) -> dict[str, list[str]]:
    """Op label -> reasons it failed, over every run of one workload.

    An operation fails if it raised or broke an invariant in any run, if
    its digest differs from the committed reference (known for every seed
    of a seed-independent workload, and for the reference seed), or if
    its digest is not the same in every run."""
    ref = None
    if workload in SEED_INDEPENDENT or seed == expected["seed"]:
        ref = expected["digests"].get(workload, {})
    out: dict[str, list[str]] = {}
    for label in runs[0]["labels"]:
        reasons = [r["errors"][label] for r in runs if label in r["errors"]]
        seen = {r["digests"][label] for r in runs if label in r["digests"]}
        if len(seen) > 1:
            reasons.append(f"digest differs between runs: {sorted(seen)}")
        if ref is not None and seen and seen != {ref.get(label)}:
            reasons.append(f"digest {sorted(seen)} != reference {ref.get(label)}")
        if reasons:
            out[label] = reasons
    return out


def unit(metric: str) -> str:
    """The unit a metric's name implies."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_frac", ".overhead")):
        return "ratio"
    return "count"


def git_state() -> tuple[str | None, bool | None]:
    """HEAD, and whether the program under test (``src/``) differs from it."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, text=True, capture_output=True,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return rev, dirty


def summarize(workload: str, seed: int, untraced: list[dict],
              traced: dict | None, expected: dict) -> dict:
    """One workload's metrics, failures, digests and raw run values."""
    every = untraced + ([traced] if traced is not None else [])
    bad = failures(workload, seed, every, expected)
    attempted = len(every[0]["labels"]) * len(every)
    failed = sum(label in bad for r in every for label in r["labels"])
    entry = {
        "seed_independent": workload in SEED_INDEPENDENT,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": bad,
        "end_to_end": {m: spread([r[m] for r in untraced])
                       for m in ("wall_s", "setup_s", "peak_rss_mb")},
        "proc.cpu_s": spread([r["cpu_s"] for r in untraced]),
        "op_s": {label: statistics.median(r["op_s"][label] for r in untraced)
                 for label in untraced[0]["labels"]},
        "digests": untraced[0]["digests"],
        "runs": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                 for r in untraced],
    }
    if traced is not None:
        layers = dict(traced["layers"])
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        layers["other.self_s"] = traced["wall_s"] - self_total
        layers["proc.cpu_s"] = entry["proc.cpu_s"]["median"]
        layers["trace.overhead"] = (traced["wall_s"]
                                    / entry["end_to_end"]["wall_s"]["median"])
        entry["traced"] = {"wall_s": traced["wall_s"], "layers": layers}
    return entry


def print_table(workload: str, entry: dict) -> None:
    for name, s in entry["end_to_end"].items():
        print(f"{workload:15s} {name:16s} {s['median']:12.6g} {unit(name)}  "
              f"(q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, min {s['min']:.4g}, "
              f"max {s['max']:.4g}, n {s['n']})")
    print(f"{workload:15s} {'ops_failed_frac':16s} "
          f"{entry['ops_failed_frac']:12.6g} ratio  "
          f"({entry['failed']} of {entry['attempted']})")
    for label, reasons in entry["failures"].items():
        print(f"{workload:15s} FAILED {label}: {reasons[0].splitlines()[-1]}")
    for name, v in entry.get("traced", {}).get("layers", {}).items():
        if v:  # layers this workload never enters are left out
            print(f"{workload:15s} {name:44s} {v:14.6g} {unit(name)}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", "--workloads", default=",".join(PARAMS),
                    help="comma-separated workloads (default: all five)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep adding untraced rounds until this much time "
                         "has passed")
    ap.add_argument("--reps", type=int, default=5,
                    help="least number of untraced rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0, help="add one traced run per workload and "
                                    "report per-layer metrics")
    ap.add_argument("--out", type=Path, help="write the full result here")
    args = ap.parse_args()
    names = [w for w in args.workload.split(",") if w]
    if not names or set(names) - set(PARAMS) or args.reps < 1:
        ap.error(f"need --reps >= 1 and workloads from {sorted(PARAMS)}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(EXPECTED.read_text())
    runs: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, dict] = {}
    t_start = time.perf_counter()
    rounds = 0
    try:
        while rounds < args.reps or time.perf_counter() - t_start < args.seconds:
            for w in names if rounds % 2 == 0 else names[::-1]:
                runs[w].append(run_child(w, args.seed))
            rounds += 1
        if args.trace:
            OUT.mkdir(exist_ok=True)
            for w in names:
                traced[w] = run_child(
                    w, args.seed, trace=OUT / f"spans-{w}-{args.seed}.jsonl")
    except ChildFailed as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 2

    rev, dirty = git_state()
    result = {
        "provenance": {
            "git_rev": rev, "src_dirty": dirty,
            "python": platform.python_version(),
            "numpy": runs[names[0]][0]["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "reps": rounds, "seconds": args.seconds,
            "trace": args.trace,
            "params": {w: PARAMS[w] for w in names},
        },
        "workloads": {w: summarize(w, args.seed, runs[w], traced.get(w), expected)
                      for w in names},
    }
    for w, entry in result["workloads"].items():
        print_table(w, entry)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    metrics = {}
    for w, entry in result["workloads"].items():
        values = (entry["traced"]["layers"] if args.trace else
                  {k: s["median"] for k, s in entry["end_to_end"].items()})
        for m in declared["per_layer" if args.trace else "end_to_end"]:
            key = m["name"] if len(names) == 1 else f"{w}/{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": unit(m["name"])}
    failed = sum(e["failed"] for e in result["workloads"].values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(e["attempted"] for e in result["workloads"].values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
