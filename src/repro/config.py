"""One validated run configuration, and the three environment switches.

The runner CLI builds one :class:`RunConfig` and passes it by argument;
only this module reads the environment (DESIGN.md §15).  A bad value
raises :class:`ConfigurationError` naming the field or variable.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["RunConfig", "env_flag", "env_int"]

_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def env_flag(name: str, default: bool) -> bool:
    """1/0/true/false/yes/no in any case; unset or empty means ``default``."""
    raw = os.environ.get(name, "").strip().lower()
    if raw and raw not in _FLAGS:
        raise ConfigurationError(f"{name}={raw!r}: expected one of {'/'.join(_FLAGS)}")
    return _FLAGS.get(raw, default)


def env_int(name: str, default: int, minimum: int) -> int:
    """An integer >= ``minimum``; unset or empty means ``default``."""
    raw = os.environ.get(name, "").strip()
    if raw and (not re.fullmatch(r"[+-]?[0-9]+", raw) or int(raw) < minimum):
        raise ConfigurationError(f"{name}={raw!r}: expected an integer >= {minimum}")
    return int(raw) if raw else default


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters, each checked once in ``__post_init__``.

    ``serverless_instances=None`` means 80 under ``quick``, else 400.
    ``overcommit_ratios`` also takes the CLI's comma-separated string.
    """

    quick: bool = False
    fleet_hosts: int = 3  # >= 2: a drain needs a migration target
    fleet_vms: int = 6
    serverless_instances: int | None = None
    overcommit_ratios: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)

    def __post_init__(self) -> None:
        if type(self.quick) is not bool:
            raise ConfigurationError(f"quick: {self.quick!r} must be a bool")
        if self.serverless_instances is None:
            object.__setattr__(self, "serverless_instances", 80 if self.quick else 400)
        for field, minimum in (("fleet_hosts", 2), ("fleet_vms", 1),
                               ("serverless_instances", 1)):
            value = getattr(self, field)
            if type(value) is not int or value < minimum:
                raise ConfigurationError(
                    f"{field}: {value!r} must be an integer >= {minimum}")
        raw = self.overcommit_ratios
        tokens = raw.split(",") if isinstance(raw, str) else raw
        try:
            ratios = tuple(float(t) for t in tokens if str(t).strip())
        except (TypeError, ValueError):
            ratios = ()
        if not ratios or not all(math.isfinite(r) and r >= 1.0 for r in ratios):
            raise ConfigurationError(
                f"overcommit_ratios: {raw!r} must be finite ratios >= 1.0")
        object.__setattr__(self, "overcommit_ratios", ratios)
