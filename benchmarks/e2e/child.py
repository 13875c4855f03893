"""One benchmark run: set up one workload, run each operation once, report.

Started by ``run.py`` as a fresh process, so the experiment memo-cache
starts empty, as it does for a user's ``runner`` invocation.  Prints one
JSON object on its last stdout line: set-up and operation times, peak
RSS, CPU time, a digest of every operation's result, and the operations
that raised or broke a workload invariant.  With ``--trace FILE`` it also
records per-layer spans (``layers.py``), writes them to FILE as JSONL and
adds the per-layer metrics to its report.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from the child's first statement

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"


def canonical(obj):
    """A JSON-ready form of a result: dataclasses by field, enums by value,
    floats by ``repr``, numpy arrays by dtype, shape and a sha256 of their
    bytes, dict keys sorted."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "sha256": hashlib.sha256(data).hexdigest()}
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: canonical(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=Path, help="write spans here as JSONL")
    args = ap.parse_args()

    ops, invariants = workloads.build(args.workload, args.seed)
    import repro
    from repro.experiments.cache import EXPERIMENT_CACHE

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace is not None:
        tracer = layers.Tracer()
        layers.install(tracer)

    setup_s = perf_counter() - T0
    cpu0 = cpu_s()
    results, errors, op_s = {}, {}, {}
    w0 = perf_counter()
    for label, op in ops.items():
        if tracer is not None:
            tracer.current_op = label
        t = perf_counter()
        try:
            results[label] = op()
        except Exception:  # a failed operation is counted, not fatal
            errors[label] = traceback.format_exc(limit=-2)
        op_s[label] = perf_counter() - t
    wall_s = perf_counter() - w0
    cpu = cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for label, reason in invariants(results).items():
        errors.setdefault(label, reason)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "labels": list(ops),
        "digests": {label: digest(r) for label, r in results.items()},
        "errors": errors,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        lookups = EXPERIMENT_CACHE.hits + EXPERIMENT_CACHE.misses
        report["layers"] = {
            **tracer.metrics(),
            "experiments.cache.hit_ratio":
                EXPERIMENT_CACHE.hits / lookups if lookups else 0.0,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
