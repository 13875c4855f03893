"""Shared retry rule: exponential backoff for transient failures.

Real PML deployments treat hypercall and allocation failures as transient
until proven otherwise — Xen returns ``-EAGAIN`` for hypercalls racing a
scheduler or grant operation, and the guest retries with backoff.  The
OoH module's hypercalls, guest demand-paging under allocator pressure,
CRIU pre-dump collection and the balloon's deflate allocation all retry
by the one rule defined here: :data:`MAX_ATTEMPTS` attempts, waiting
:func:`backoff_us` before each retry (migration rounds also test
failures with :func:`is_transient`, under their own budget).

Backoff time is *simulated*: each retry charges the wait to the
:class:`~repro.core.clock.SimClock`, so recovery shows up honestly in
tracker/tracked overheads instead of being free.
"""

from __future__ import annotations

from typing import Callable

from repro.core.clock import SimClock, World
from repro.errors import HypercallError, TransientError
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = [
    "EV_RETRY_BACKOFF",
    "MAX_ATTEMPTS",
    "Retrier",
    "backoff_us",
    "is_transient",
]

EV_RETRY_BACKOFF = "retry_backoff"

#: Attempts per call, the first included.
MAX_ATTEMPTS = 5
#: Wait before the first retry; each later wait doubles.
BASE_BACKOFF_US = 5.0
BACKOFF_MULTIPLIER = 2.0


def is_transient(exc: BaseException) -> bool:
    """Retry :class:`TransientError` and transient hypercall codes;
    everything else is permanent."""
    if isinstance(exc, TransientError):
        return True
    if isinstance(exc, HypercallError):
        return exc.transient
    return False


def backoff_us(retry: int) -> float:
    """Simulated wait before retry number ``retry`` (1-based)."""
    return BASE_BACKOFF_US * BACKOFF_MULTIPLIER ** (retry - 1)


class Retrier:
    """Retries transient failures, charging backoff to the clock in ``world``.

    ``n_retries`` / ``n_exhausted`` accumulate across calls so callers can
    surface recovery activity in their stats (delta between two reads).
    """

    def __init__(self, clock: SimClock, world: World = World.KERNEL) -> None:
        self.clock = clock
        self.world = world
        self.n_retries = 0
        self.n_exhausted = 0

    def call(self, fn: Callable[[], object]) -> object:
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as exc:
                if not is_transient(exc):
                    raise
                if attempt >= MAX_ATTEMPTS:
                    self.n_exhausted += 1
                    if otr.ACTIVE is not None:
                        otr.ACTIVE.metrics.inc("retry.exhausted")
                    raise
                self.n_retries += 1
                wait_us = backoff_us(attempt)
                if otr.ACTIVE is not None:
                    otr.ACTIVE.emit(
                        EventKind.RETRY, attempt=attempt, backoff_us=wait_us
                    )
                self.clock.charge(wait_us, self.world, EV_RETRY_BACKOFF)
                attempt += 1
