"""Shared retry rule: classification, backoff charging, exhaustion."""

import pytest

from repro.core.clock import SimClock, World
from repro.errors import HypercallError, TransientError
from repro.retry import (
    EV_RETRY_BACKOFF,
    MAX_ATTEMPTS,
    Retrier,
    backoff_us,
    is_transient,
)


def test_hypercall_error_code_attribute():
    e = HypercallError("boom")
    assert e.code == "EINVAL" and not e.transient
    assert HypercallError("busy", code="EBUSY").transient


def test_is_transient_classification():
    assert is_transient(TransientError("x"))
    assert is_transient(HypercallError("x", code="EAGAIN"))
    assert not is_transient(HypercallError("x"))
    assert not is_transient(ValueError("x"))


def test_backoff_doubles_from_five_us():
    """Five attempts; the four waits between them are 5, 10, 20, 40 us."""
    assert MAX_ATTEMPTS == 5
    assert [backoff_us(k) for k in range(1, MAX_ATTEMPTS)] == [
        5 * 2 ** (k - 1) for k in range(1, MAX_ATTEMPTS)
    ]


def test_retrier_succeeds_and_charges_simulated_backoff():
    clock = SimClock()
    r = Retrier(clock, World.KERNEL)
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransientError("flaky")
        return 42

    assert r.call(flaky) == 42
    assert r.n_retries == 2 and r.n_exhausted == 0
    expected = backoff_us(1) + backoff_us(2)
    assert clock.event_us(EV_RETRY_BACKOFF) == pytest.approx(expected)
    assert clock.world_us(World.KERNEL) == pytest.approx(expected)


def test_retrier_exhausts_and_reraises():
    clock = SimClock()
    r = Retrier(clock)

    def always():
        raise TransientError("always")

    with pytest.raises(TransientError):
        r.call(always)
    assert r.n_exhausted == 1
    assert r.n_retries == MAX_ATTEMPTS - 1


def test_permanent_error_not_retried():
    clock = SimClock()
    r = Retrier(clock)

    def perm():
        raise ValueError("perm")

    with pytest.raises(ValueError):
        r.call(perm)
    assert r.n_retries == 0
    assert clock.now_us == 0.0
