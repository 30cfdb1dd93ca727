"""Exception types shared across the package.

All argument-validation failures derive from DomainError so callers (and the
CLI) can map them to a single exit path. The more specific subclasses exist
where the failure mode is worth distinguishing programmatically.
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


def require_positive(**values: float) -> None:
    """Raise DomainError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise DomainError(f"{name} must be finite and > 0, got {value}")


def require_within_budget(nbytes: int, request: str) -> None:
    """Raise DomainError when ``request`` would need more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        tenths = nbytes * 10 // 2**30  # integer arithmetic: nbytes may exceed any float
        raise DomainError(
            f"{request} needs about {tenths // 10}.{tenths % 10} GiB of memory, "
            f"more than the budget of {MEMORY_BUDGET // 2**30} GiB"
        )
