"""Tests for the per-VM working-set time series (WssHistory)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.economics.wss_history import ALPHA, WINDOW, WssHistory


def test_config_validation():
    with pytest.raises(ConfigurationError):
        WssHistory(initial_pages=0)


def test_starts_pessimistic_at_initial_pages():
    h = WssHistory(initial_pages=512)
    assert h.planning_pages == 512
    assert h.ewma_pages == 512
    assert h.percentile_pages == 512
    assert h.target_pages == 512
    assert list(h.samples) == []


def test_record_updates_estimators():
    h = WssHistory(initial_pages=1000)
    h.record(100)
    assert h.ewma_pages == 100  # first sample seeds the EWMA
    h.record(200)
    assert h.ewma_pages == int(np.ceil(ALPHA * 200 + (1.0 - ALPHA) * 100))
    assert h.percentile_pages == int(np.ceil(np.percentile([100, 200], 90)))
    with pytest.raises(ConfigurationError):
        h.record(-1)


def test_refresh_planning_matches_estimator_arithmetic():
    """ceil(mean of last k samples): the fleet placement value."""
    h = WssHistory(initial_pages=512)
    samples = [3, 4, 10, 7]
    for s in samples:
        h.record(s)
    for k in (1, 2, 4):
        want = int(np.ceil(float(np.mean(samples[-k:]))))
        assert h.refresh_planning(k) == want
    with pytest.raises(ConfigurationError):
        h.refresh_planning(0)


def test_refresh_planning_without_samples_keeps_planning():
    h = WssHistory(initial_pages=512)
    assert h.refresh_planning(3) == 512


def test_target_hysteresis_gates_small_moves():
    h = WssHistory(initial_pages=100)
    h.record(100)
    assert h.target_pages == 100
    # Small dips move the candidate (max of EWMA and p90) by ~1%: the
    # target must not flap on them.
    h.record(95)
    h.record(90)
    assert h.target_pages == 100
    # A large rise (>15% relative) moves it: p90 of the window is ~170.
    h.record(200)
    assert 150 < h.target_pages <= 200


def test_target_tracks_large_shrink():
    h = WssHistory(initial_pages=1536)
    h.record(90)
    h.record(96)
    # Candidate collapsed from 1536 to ~96 — far past the gate.
    assert h.target_pages <= 100
    assert h.target_pages >= 1


def test_window_bounds_samples():
    h = WssHistory(initial_pages=10)
    for i in range(WINDOW + 4):
        h.record(i)
    assert list(h.samples) == list(range(4, WINDOW + 4))


def test_bookkeeping_is_pure():
    """No clock, no RNG: recording samples is free and repeatable —
    required for the ratio-1.0 bit-identity guarantee."""
    a = WssHistory(initial_pages=64)
    b = WssHistory(initial_pages=64)
    for s in (10, 20, 15):
        a.record(s)
        b.record(s)
    assert a.planning_pages == b.planning_pages
    assert a.target_pages == b.target_pages
    assert a.ewma_pages == b.ewma_pages
