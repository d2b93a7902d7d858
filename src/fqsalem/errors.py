"""Shared exception types."""


class FqsalemError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(FqsalemError):
    """An enumeration or counting task would exceed the configured work budget."""


class ConfigError(FqsalemError):
    """Invalid configuration or parameters."""


class InvariantViolation(FqsalemError):
    """An identity the computation relies on failed: a defect, never bad input."""


def check_invariant(ok: bool, what: str) -> None:
    """Raise InvariantViolation unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise InvariantViolation(what)


# Full-space scans refuse anything above this unless the caller overrides.
DEFAULT_BUDGET = 1 << 24


def check_budget(work: int, budget: int | None = None, what: str = "enumeration") -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if work > limit:
        raise BudgetExceeded(f"{what} needs {work} units, budget is {limit}")
