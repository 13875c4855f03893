"""Memo-cache for deterministic experiment runs, keyed by signature.

Every memoized runner (:func:`repro.experiments.harness.run_microbench`,
``run_criu``, ``run_boehm``, ``serverless_result``, and the fleet and
overcommit scenarios at their registry calls) is a pure function of its
arguments: stacks are built fresh per run and workload RNGs are seeded
from the workload name, so identical arguments produce bit-identical
results.  The experiment registry exploits that heavily — table1,
table5, table6, fig3 and fig4 all sweep the same (technique, size)
microbench grid — so one shared cache dedups the work for ``runner all``
and the benchmark suite alike.

:func:`memoized` is the one place a key is built: the function's
qualified name, every bound argument with defaults applied (enums by
value) and the ``REPRO_VCPUS`` count.  Results are deep-copied on both
store and hit so callers can mutate what they get back without
corrupting the cache.  Set ``REPRO_EXPERIMENT_CACHE=0`` to disable
caching, e.g. when benchmarking cold-run wall-clock.
"""

from __future__ import annotations

import copy
import enum
import functools
import inspect
from typing import Any, Callable, Hashable, TypeVar

from repro.config import default_n_vcpus, env_flag

__all__ = ["MemoCache", "EXPERIMENT_CACHE", "memoized"]

F = TypeVar("F", bound=Callable[..., Any])


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


#: Process-wide cache shared by every memoized runner (one mechanism,
#: per the repo's "no parallel cache dicts" rule).
EXPERIMENT_CACHE = MemoCache()


def memoized(fn: F) -> F:
    """``fn`` with its results kept in :data:`EXPERIMENT_CACHE`.

    Two calls share a result exactly when they bind the same arguments
    (defaults applied, enums by value, so ``"proc"`` and
    ``Technique.PROC`` are one run) under the same ``REPRO_VCPUS``.
    ``__wrapped__`` is ``fn`` itself, uncached.
    """
    signature = inspect.signature(fn)
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (name, default_n_vcpus(), *(
            (arg, value.value if isinstance(value, enum.Enum) else value)
            for arg, value in bound.arguments.items()
        ))
        return EXPERIMENT_CACHE.get_or_run(key, lambda: fn(*args, **kwargs))

    return wrapper  # type: ignore[return-value]
