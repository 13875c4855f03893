"""Serverless snapshot/restore workload family (DESIGN.md §13).

The highest-churn consumer of OoH-style dirty tracking is serverless
snapshotting: thousands of short-lived function instances restore from a
shared snapshot, run, and merge their dirty diffs back.  This package
provides the faabric-style facade and workload driver:

* :mod:`~repro.serverless.snapshot` — :class:`Snapshot` /
  :class:`SnapshotDiff`: shared base images, byte-exact diffs,
  last-writer-wins merge, re-snapshot lifecycle;
* :mod:`~repro.serverless.tracker` — :class:`UnifiedDirtyTracker`: one
  mode-selected facade over every registered tracking technique, with
  copy-on-write region mapping and byte-exact diff extraction;
* :mod:`~repro.serverless.instance` — :class:`FunctionInstance`: the
  restore → execute → diff → exit lifecycle of one invocation;
* :mod:`~repro.serverless.driver` — seeded bursty multi-tenant traffic
  and the :func:`~repro.serverless.driver.run_serverless` loop.
"""

from repro.serverless.driver import (
    Invocation,
    ServerlessConfig,
    ServerlessRunResult,
    TrafficGenerator,
    run_serverless,
)
from repro.serverless.instance import FunctionInstance
from repro.serverless.snapshot import (
    Snapshot,
    SnapshotDiff,
    output_tokens,
    stable_token,
)
from repro.serverless.tracker import MappedRegion, UnifiedDirtyTracker

__all__ = [
    "FunctionInstance",
    "Invocation",
    "MappedRegion",
    "ServerlessConfig",
    "ServerlessRunResult",
    "Snapshot",
    "SnapshotDiff",
    "TrafficGenerator",
    "UnifiedDirtyTracker",
    "output_tokens",
    "run_serverless",
    "stable_token",
]
