"""Exception types shared across the package, and the checks that raise them.

All argument-validation failures derive from DomainError so callers (and the
CLI) can map them to a single exit path. The more specific subclasses exist
where the failure mode is worth distinguishing programmatically.

The domain of a single argument (a count >= 1, an energy > 0, an amount of
information >= 0) is checked only here, by ``require_finite``,
``require_positive`` and ``require_at_least``. They raise
InvalidQuantityError for None, a string, a bool, NaN, +-inf, an integer
beyond the float range, or a value past its bound. Relations between
arguments, and results that overflow, are checked where they arise.
"""

import math

#: Most memory, in bytes, that one simulation, ensemble or sweep may ask for.
#: Each request is checked against it before anything is allocated.
MEMORY_BUDGET = 2 * 2**30


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidQuantityError(DomainError):
    """A physical quantity is non-finite or has an impossible sign."""


class EmptyFileError(DomainError):
    """A byte-level analysis was asked to run on zero bytes."""


class SampleSizeError(DomainError):
    """Not enough data to support the requested estimator honestly."""


class UndefinedTemperatureError(DomainError):
    """A temperature ratio with both numerator and denominator zero."""


class InvalidDistributionError(DomainError):
    """A probability distribution that is not normalized or not a distribution."""


def require_finite(name: str, value):
    """``value`` unchanged if it is a finite real number, else InvalidQuantityError (a bool is no number)."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise InvalidQuantityError(f"{name} must be a finite number, got {value!r}")
    return value


def require_positive(**values: float) -> None:
    """Raise InvalidQuantityError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not require_finite(name, value) > 0:
            raise InvalidQuantityError(f"{name} must be finite and > 0, got {value}")


def require_at_least(minimum: float, **values: float) -> None:
    """Raise InvalidQuantityError naming the first value that is not finite and >= ``minimum``."""
    for name, value in values.items():
        if not require_finite(name, value) >= minimum:
            raise InvalidQuantityError(f"{name} must be finite and >= {minimum}, got {value}")


def require_within_budget(nbytes: int, request: str) -> None:
    """Raise DomainError when ``request`` would need more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        tenths = nbytes * 10 // 2**30  # integer arithmetic: nbytes may exceed any float
        raise DomainError(
            f"{request} needs about {tenths // 10}.{tenths % 10} GiB of memory, "
            f"more than the budget of {MEMORY_BUDGET // 2**30} GiB"
        )
