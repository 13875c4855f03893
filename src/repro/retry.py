"""Shared retry policy: exponential backoff for transient failures.

Real PML deployments treat hypercall and allocation failures as transient
until proven otherwise — Xen returns ``-EAGAIN`` for hypercalls racing a
scheduler or grant operation, and the guest retries with backoff.  Every
recovery path in this repo (OoH module hypercalls, guest demand-paging
under allocator pressure, CRIU pre-dump collection, migration rounds)
shares the one policy object defined here, so chaos experiments sweep a
single knob.

Backoff time is *simulated*: each retry charges the wait to the
:class:`~repro.core.clock.SimClock`, so recovery shows up honestly in
tracker/tracked overheads instead of being free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.clock import SimClock, World
from repro.errors import HypercallError, TransientError
from repro.obs import trace as otr
from repro.obs.events import EventKind

__all__ = [
    "EV_RETRY_BACKOFF",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "Retrier",
    "is_transient",
]

EV_RETRY_BACKOFF = "retry_backoff"


def is_transient(exc: BaseException) -> bool:
    """Default classifier: retry :class:`TransientError` and transient
    hypercall codes; everything else is permanent."""
    if isinstance(exc, TransientError):
        return True
    if isinstance(exc, HypercallError):
        return exc.transient
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff (attempt 1 waits ``base_backoff_us``)."""

    max_attempts: int = 5
    base_backoff_us: float = 5.0
    multiplier: float = 2.0
    max_backoff_us: float = 10_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_backoff_us < 0 or self.multiplier < 1:
            raise ValueError("backoff parameters must be non-negative/>=1")

    def backoff_us(self, retry: int) -> float:
        """Simulated wait before retry number ``retry`` (1-based)."""
        return min(
            self.base_backoff_us * self.multiplier ** (retry - 1),
            self.max_backoff_us,
        )


DEFAULT_RETRY_POLICY = RetryPolicy()


class Retrier:
    """Applies one :class:`RetryPolicy`, charging backoff to the clock.

    ``n_retries`` / ``n_exhausted`` accumulate across calls so callers can
    surface recovery activity in their stats (delta between two reads).
    """

    def __init__(
        self,
        clock: SimClock,
        world: World = World.KERNEL,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        classify: Callable[[BaseException], bool] = is_transient,
    ) -> None:
        self.clock = clock
        self.world = world
        self.policy = policy
        self.classify = classify
        self.n_retries = 0
        self.n_exhausted = 0

    def call(self, fn: Callable[[], object]) -> object:
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as exc:
                if not self.classify(exc):
                    raise
                if attempt >= self.policy.max_attempts:
                    self.n_exhausted += 1
                    if otr.ACTIVE is not None:
                        otr.ACTIVE.metrics.inc("retry.exhausted")
                    raise
                self.n_retries += 1
                backoff_us = self.policy.backoff_us(attempt)
                if otr.ACTIVE is not None:
                    otr.ACTIVE.emit(
                        EventKind.RETRY, attempt=attempt, backoff_us=backoff_us
                    )
                self.clock.charge(backoff_us, self.world, EV_RETRY_BACKOFF)
                attempt += 1
