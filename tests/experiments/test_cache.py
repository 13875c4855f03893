"""Tests for the shared experiment memo-cache."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import EXPERIMENT_CACHE, MemoCache
from repro.experiments.harness import run_boehm, run_criu, run_microbench


def test_memocache_hit_miss_accounting():
    cache = MemoCache(enabled=True)
    calls = []

    def fn():
        calls.append(1)
        return {"x": [1, 2]}

    a = cache.get_or_run("k", fn)
    b = cache.get_or_run("k", fn)
    assert len(calls) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert a == b
    assert len(cache) == 1 and "k" in cache


def test_memocache_deepcopy_isolation():
    cache = MemoCache(enabled=True)
    first = cache.get_or_run("k", lambda: {"arr": np.arange(3)})
    first["arr"][0] = 99  # mutating the first return must not leak
    second = cache.get_or_run("k", lambda: None)
    assert second["arr"][0] == 0
    second["arr"][1] = 77  # nor mutating a hit
    third = cache.get_or_run("k", lambda: None)
    assert third["arr"][1] == 1


def test_memocache_disabled_runs_every_time():
    cache = MemoCache(enabled=False)
    calls = []
    for _ in range(3):
        cache.get_or_run("k", lambda: calls.append(1))
    assert len(calls) == 3
    assert len(cache) == 0


def test_memocache_env_toggle(monkeypatch):
    cache = MemoCache()
    monkeypatch.setenv("REPRO_EXPERIMENT_CACHE", "0")
    assert not cache.enabled
    monkeypatch.delenv("REPRO_EXPERIMENT_CACHE")
    assert cache.enabled
    for raw, expected in [("False", False), (" No ", False), ("YES", True),
                          ("true", True), ("", True)]:
        monkeypatch.setenv("REPRO_EXPERIMENT_CACHE", raw)
        assert cache.enabled is expected, raw
    # A value no switch spells must not silently leave the cache on.
    for raw in ("off", "disabled", "2"):
        monkeypatch.setenv("REPRO_EXPERIMENT_CACHE", raw)
        with pytest.raises(ConfigurationError, match="REPRO_EXPERIMENT_CACHE"):
            cache.enabled


def test_memocache_clear():
    cache = MemoCache(enabled=True)
    cache.get_or_run("k", lambda: 1)
    cache.get_or_run("k", lambda: 1)
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


def test_run_microbench_memoized():
    hits0 = EXPERIMENT_CACHE.hits
    a = run_microbench("proc", mem_mb=1)
    b = run_microbench("proc", mem_mb=1)
    assert EXPERIMENT_CACHE.hits > hits0
    assert a is not b  # deep copies, never the same object
    assert (a.tracked_us, a.tracker_us, a.events) == (
        b.tracked_us, b.tracker_us, b.events
    )


def test_run_criu_memoized_and_baseline_shared():
    a = run_criu("baby", "large", "proc", scale=0.002)
    before = EXPERIMENT_CACHE.misses
    b = run_criu("baby", "large", "spml", scale=0.002)
    # The spml run reuses the (app, config, scale) ideal baseline: only
    # the technique run itself is a miss.
    assert EXPERIMENT_CACHE.misses == before + 1
    assert a.ideal_us == b.ideal_us
    c = run_criu("baby", "large", "spml", scale=0.002)
    assert (c.tracked_us, c.tracker_us) == (b.tracked_us, b.tracker_us)


def test_run_boehm_memoized_with_oracle_baseline():
    a = run_boehm("gcbench", "small", "proc", scale=0.002)
    b = run_boehm("gcbench", "small", "oracle", scale=0.002)
    # proc's ideal baseline IS the oracle run's tracked time.
    assert a.ideal_us == b.tracked_us == b.ideal_us
    c = run_boehm("gcbench", "small", "proc", scale=0.002)
    assert (c.tracked_us, c.ideal_us) == (a.tracked_us, a.ideal_us)
