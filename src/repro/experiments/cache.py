"""Keyed memo-cache for deterministic experiment runs.

Every harness runner (:func:`repro.experiments.harness.run_microbench`,
``run_criu``, ``run_boehm``) is a pure function of its arguments: stacks
are built fresh per run and workload RNGs are seeded from the workload
name, so identical configurations produce bit-identical results.  The
experiment registry exploits that heavily — table1, table5, table6, fig3
and fig4 all sweep the same (technique, size) microbench grid — so one
shared cache keyed on the full argument tuple dedups the work for
``runner all`` and the benchmark suite alike.

Results are deep-copied on both store and hit so callers can mutate what
they get back (e.g. ``run_boehm`` patches ``ideal_us``) without
corrupting the cache.  Set ``REPRO_EXPERIMENT_CACHE=0`` to disable
caching, e.g. when benchmarking cold-run wall-clock.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Hashable

from repro.config import env_flag

__all__ = ["MemoCache", "EXPERIMENT_CACHE"]


class MemoCache:
    """Map from hashable key to deep-copied result, with hit accounting."""

    def __init__(self, enabled: bool | None = None) -> None:
        self._store: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self._enabled = enabled

    @property
    def enabled(self) -> bool:
        # Re-read the environment unless explicitly pinned, so tests and
        # benchmarks can toggle caching without rebuilding the cache.
        if self._enabled is not None:
            return self._enabled
        return env_flag("REPRO_EXPERIMENT_CACHE", True)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get_or_run(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """Return the cached result for ``key``, running ``fn`` on a miss.

        The store keeps a private deep copy, and hits hand out fresh deep
        copies, so no two callers ever share a mutable result object.
        """
        if not self.enabled:
            return fn()
        if key in self._store:
            self.hits += 1
            return copy.deepcopy(self._store[key])
        self.misses += 1
        value = fn()
        self._store[key] = copy.deepcopy(value)
        return value

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache shared by the harness runners and the experiment
#: registry (one mechanism, per the repo's "no parallel cache dicts" rule).
EXPERIMENT_CACHE = MemoCache()
