"""Inequality toolkit: Carnot efficiency, Clausius checks, computing bound.

The Clausius checker is a single bookkeeping engine for

    dS >= sum_i dQ_i / T_i + k_B * dI

with signed heat terms (positive into the books, negative out). With one
positive heat term and dI = 0 this is the classical inequality; with a
(+Q, T_cold), (-Q, T_hot) pair it is the two-bath form; with heat terms and
an information term together it is the generalized form, and with no heat
terms at all it reduces to dS >= k_B dI. The verdict tolerance is relative,
scaled to the largest term, because ledgers here span k_B-sized and
macroscopic entropies alike.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, require_above, require_at_least, require_finite, require_positive, require_quotient
from .errors import require_result
from .quantities import K_B, LN2, unit

VERDICT_SATISFIED = "satisfied"
VERDICT_VIOLATED = "violated"
VERDICT_EQUALITY = "equality"

_RELATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class EntropyLedger:
    """A checked Clausius inequality.

    ``slack`` is delta_s minus the heat and information terms; the verdict is
    "equality" when |slack| <= tolerance, "violated" when slack < -tolerance,
    and "satisfied" otherwise.
    """

    delta_s: float = unit("J/K")
    heat_terms: tuple[tuple[float, float], ...] = unit(None)  # (delta_Q in J, T in K) pairs
    info_term: float = unit("nats")
    slack: float = unit("J/K")
    tolerance: float = unit("J/K")
    verdict: str = unit(None)


def carnot_efficiency(t_hot: float, t_cold: float) -> float:
    """Maximum work fraction extractable between two baths: (T_hot - T_cold) / T_hot.

    The difference is exact for T_cold >= T_hot / 2 (Sterbenz), so the
    result is correctly rounded where 1 - T_cold/T_hot would cancel. A hot
    bath at +inf gives 1.
    """
    require_positive(t_cold=t_cold)
    require_above(t_cold, t_hot=t_hot)
    return 1.0 if t_hot == math.inf else (t_hot - t_cold) / t_hot


def _finite_sum(values, name: str) -> float:
    """``math.fsum(values)``, or DomainError when the sum is not finite in double precision."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # intermediate overflow, or inf + -inf
        total = math.nan
    return require_result(name, total)


def clausius_check(
    delta_s: float,
    heat_terms: list[tuple[float, float]] | tuple[tuple[float, float], ...] = (),
    info_term: float = 0.0,
    tolerance: float | None = None,
) -> EntropyLedger:
    """Populate and judge an entropy ledger (see module docstring).

    ``tolerance`` defaults to 1e-12 times the largest of |delta_s|,
    sum |dQ/T| and k_B * info_term. ``delta_s``, ``info_term`` and the heat
    terms are stored as floats; each heat term must be a list or tuple of
    two. A ledger whose sums overflow double precision has no verdict and
    raises DomainError.
    """
    delta_s = float(require_finite("delta_s", delta_s))
    require_at_least(0, info_term=info_term)
    info_term = float(info_term)
    if not (isinstance(heat_terms, (list, tuple))
            and all(isinstance(term, (list, tuple)) and len(term) == 2 for term in heat_terms)):
        raise DomainError(f"heat_terms must be a list of [heat, temperature] pairs, got {heat_terms!r}")
    terms = []
    for heat, temp in heat_terms:
        require_positive(bath_temperature=temp)
        terms.append((float(require_finite("every heat term", heat)), float(temp)))

    heat_over_t = _finite_sum((heat / temp for heat, temp in terms), "the sum of the heat terms dQ/T")
    info_si = K_B * info_term
    slack = require_result("the slack", delta_s - heat_over_t - info_si)
    if tolerance is None:
        scale = max(abs(delta_s), _finite_sum((abs(h) / t for h, t in terms), "the sum of |dQ/T|"), info_si)
        tolerance = _RELATIVE_TOLERANCE * scale
    else:
        require_at_least(0, tolerance=tolerance)

    if abs(slack) <= tolerance:
        verdict = VERDICT_EQUALITY
    elif slack < -tolerance:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_SATISFIED
    return EntropyLedger(
        delta_s=delta_s,
        heat_terms=tuple(terms),
        info_term=info_term,
        slack=slack,
        tolerance=tolerance,
        verdict=verdict,
    )


def max_computing_rate(power: float, noise_temperature: float, margin: float = 10.0) -> float:
    """Upper bound on logical operations per second of a physical device.

    Each elementary act must dissipate at least k_B ln 2 times the operating
    temperature, and the operating temperature must clear the ambient noise
    temperature by ``margin``, so f <= P / (margin k_B ln 2 T_n). A bound
    that overflows double precision, or underflows to 0, raises DomainError.
    """
    require_positive(power=power, noise_temperature=noise_temperature)
    require_at_least(1, margin=margin)
    what = f"the computing rate of {power} W at a noise temperature of {noise_temperature} K and a margin of {margin}"
    return require_quotient(what, power, margin * K_B * LN2 * noise_temperature, zero_underflows=True)
