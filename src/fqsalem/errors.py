"""Shared exception types, and the checks that raise them; `check_budget` charges
the innermost `budget_scope` on its thread, or DEFAULT_BUDGET outside any."""

import threading
from contextlib import contextmanager

import numpy as np


class FqsalemError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(FqsalemError):
    """An enumeration or counting task would exceed the configured work budget."""


class ConfigError(FqsalemError):
    """Invalid configuration or parameters."""


class InvariantViolation(FqsalemError):
    """An identity the computation relies on failed: a defect, never bad input."""


def is_int(value) -> bool:
    """An int or np.integer, and not a bool: a float, string or bool never
    stands for an integer in a config, point or multiplicity."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_int(value) -> int:
    """value as an int; TypeError unless is_int(value)."""
    if not is_int(value):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def config_value(config: dict, key: str, default=None, convert=as_int):
    """convert(config.get(key, default)), by default the integer itself;
    ConfigError if the value is missing or ill-typed."""
    value = config.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"config value {key!r} is missing or ill-typed: {value!r}") from exc


def check_invariant(ok: bool, what: str) -> None:
    """Raise InvariantViolation unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise InvariantViolation(what)


# Full-space scans refuse anything above this outside a budget_scope.
DEFAULT_BUDGET = 1 << 24
_SCOPE = threading.local()  # not a ContextVar: one set slows every numpy call by ~50 ns


@contextmanager
def budget_scope(limit: int):
    """check_budget charges limit inside the block; the outer limit returns on any exit."""
    outer, _SCOPE.limit = getattr(_SCOPE, "limit", None), limit
    try:
        yield
    finally:
        _SCOPE.limit = outer


def check_budget(work: int, what: str) -> None:
    limit = getattr(_SCOPE, "limit", None)
    limit = DEFAULT_BUDGET if limit is None else limit
    if work > limit:
        raise BudgetExceeded(f"{what} needs {work} units, budget is {limit}")
