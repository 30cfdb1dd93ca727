"""Exception types shared across the package, and the checks that raise them.

All argument-validation failures derive from DomainError so callers (and the
CLI) can map them to a single exit path. The more specific subclasses exist
where the failure mode is worth distinguishing programmatically.

The domain of a single argument is checked only here and raises
InvalidQuantityError: a quantity (an energy > 0, information >= 0) by
``require_finite``, ``require_positive`` or ``require_at_least``, a count,
which must be an integer, by ``require_count``, and a bath temperature, which
may be +inf, by ``require_above``. ``require_result`` raises DomainError for
a result that overflows double precision, and ``require_quotient`` for a
quotient that does, a thermal denominator such as k_B T that underflows to 0
included.
"""

import math
import operator
import sys

#: Most memory, in bytes, that one simulation, ensemble or sweep may ask for.
#: Each request is checked against it before anything is allocated.
MEMORY_BUDGET = 2 * 2**30

#: Most Metropolis steps that one simulation run, or all the runs of one
#: ensemble, may take. A run's memory does not grow with its steps, so this
#: bounds its time instead.
STEP_BUDGET = 2**31


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


def require_count(minimum: int, maximum: float = sys.float_info.max, **values) -> None:
    """Raise InvalidQuantityError naming the first value that is not an integer in [minimum, maximum].

    numpy integers count; a bool, a float (3.0 too) and None do not. The
    default maximum is the float range: every count meets float arithmetic.
    """
    for name, value in values.items():
        try:  # NaN, which fails the range test, stands for a value that is no integer
            count = value if type(value) is int else math.nan if type(value) is bool else operator.index(value)
        except TypeError:
            count = math.nan
        if not minimum <= count <= maximum:
            raise InvalidQuantityError(f"{name} must be an integer in [{minimum}, {maximum}], got {value!r}")


def require_above(bound: float, **temperatures: float) -> None:
    """Raise InvalidQuantityError naming the first temperature that is neither +inf nor finite and > ``bound``."""
    for name, value in temperatures.items():
        if not (value == math.inf or require_finite(name, value) > bound):
            raise InvalidQuantityError(f"{name} must be +inf or finite and > {bound}, got {value}")


def require_result(what: str, value: float, *, zero_underflows: bool = False) -> float:
    """``value`` unchanged, or DomainError when ``what`` overflows (or, if ``zero_underflows``, is 0)."""
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows")
    if zero_underflows and not value:
        raise DomainError(f"{what} underflows to 0")
    return value


def require_quotient(what: str, numerator: float, denominator: float, *, zero_underflows: bool = False) -> float:
    """``numerator / denominator`` through ``require_result``, for a denominator > 0 that may underflow to 0.

    A denominator of 0 stands for one too small for a double, so a nonzero
    numerator over it overflows, and 0 over it is 0.
    """
    quotient = numerator / denominator if denominator else math.inf if numerator else 0.0
    return require_result(what, quotient, zero_underflows=zero_underflows)


def require_within_budget(nbytes: int, request: str) -> None:
    """Raise DomainError when ``request`` would need more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        tenths = nbytes * 10 // 2**30  # integer arithmetic: nbytes may exceed any float
        raise DomainError(
            f"{request} needs about {tenths // 10}.{tenths % 10} GiB of memory, "
            f"more than the budget of {MEMORY_BUDGET // 2**30} GiB"
        )


def require_within_step_budget(steps: int, request: str) -> None:
    """Raise DomainError when ``request`` would take more than STEP_BUDGET steps."""
    if steps > STEP_BUDGET:
        raise DomainError(f"{request} takes more than the budget of {STEP_BUDGET} steps")
