"""Statistical mechanics of the one-dimensional two-level gas.

The system is a row of ``length`` sites, each either empty ("zero", energy 0)
or excited ("one", energy ``bit_energy``). With ``ones`` excited sites the
number of microstates is the binomial coefficient C(length, ones), so

    entropy (nats)   = ln C(length, ones)
    energy  (J)      = ones * bit_energy
    temperature (K)  = (bit_energy / k_B) / ln((length - ones) / ones)

The temperature follows from dS/dQ with the Stirling form of the entropy.
Occupations above half filling give a *negative* temperature (population
inversion); exactly half filling gives an infinite temperature. Both are
representable, not errors: half filling is the natural state of a random bit
string and inversion is physically meaningful, so results carry flags instead
of refusing.

``transfer_entropy_delta`` books the entropy change when such a gas is moved
from a hot bath to a cold one, charging the full gas energy to both baths
(the full-transfer convention; an energy-conserving alternative lives in
:mod:`infotherm.mcsim`).
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, require_above, require_count, require_positive, require_quotient, require_result
from .quantities import K_B, unit


def _named(count: int) -> str:
    """A count as an error message names it: in all its digits up to 17, else as ``:.6g`` gives it."""
    return f"{count:.6g}" if count >= 10**17 else str(count)


@dataclass(frozen=True)
class GasSpec:
    """A two-level gas: ``length`` sites, ``ones`` excited, each worth ``bit_energy`` joules."""

    length: int
    ones: int
    bit_energy: float

    def __post_init__(self):
        require_count(1, length=self.length)
        require_count(0, self.length, ones=self.ones)
        require_positive(bit_energy=self.bit_energy)

    @property
    def energy(self) -> float:
        """Total gas energy in joules."""
        return require_result(f"the energy of {_named(self.ones)} sites at {self.bit_energy} J",
                              self.ones * self.bit_energy)


@dataclass(frozen=True)
class GasTemperature:
    """Temperature result with its qualitative flags.

    ``kelvin`` is +inf at exactly half filling; negative (with ``inverted``
    set) above half filling.
    """

    kelvin: float = unit("K", "temperature")
    inverted: bool = unit(None, default=False)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.kelvin)


@dataclass(frozen=True)
class GasState:
    """Derived equilibrium quantities for one (length, ones, bit_energy) triple.

    ``entropy_stirling`` and ``temperature`` are None at the occupation
    endpoints, where neither is defined.
    """

    spec: GasSpec
    entropy_exact: float = unit("nats")
    entropy_stirling: float | None = unit("nats")
    temperature: GasTemperature | None


@dataclass(frozen=True)
class TransferLedger:
    """Entropy bookkeeping for moving a gas from a hot to a cold bath.

    ``delta_s_occupation`` is the occupation-ratio form
    k_B (dQ / bit_energy) ln[(p_hot/p_cold) (length-p_cold)/(length-p_hot)];
    ``delta_s_clausius`` is dQ/T_cold - dQ/T_hot with both temperatures from
    the equilibrium occupation law. The two are algebraically identical when
    both baths are at equilibrium.

    ``canonical`` marks the standard ordering 0 < p_cold <= p_hot < length/2;
    other orderings are computed but flagged.
    """

    length: int
    p_hot: int
    p_cold: int
    bit_energy: float
    delta_q: float = unit("J")
    delta_s_occupation: float = unit("J/K")
    delta_s_clausius: float = unit("J/K")
    t_hot: float = unit("K")
    t_cold: float = unit("K")
    canonical: bool = unit(None)


def multiplicity_ln(length: int, ones: int) -> float:
    """ln of the number of microstates, ln C(length, ones), in nats.

    Computed with log-gamma, so it is exact to double precision and does not
    overflow for lengths up to at least 1e9. Symmetric under
    ones <-> length - ones by construction (the two subtracted terms are
    evaluated in sorted order). Beyond about 2.5e305 sites log-gamma itself
    overflows, and DomainError is raised.
    """
    require_count(1, length=length)
    require_count(0, length, ones=ones)
    lo = min(ones, length - ones)
    hi = length - lo
    try:
        return math.lgamma(length + 1) - math.lgamma(lo + 1) - math.lgamma(hi + 1)
    except OverflowError:
        what = f"the entropy of {ones:.6g} excited sites of {length:.6g}"
        raise DomainError(f"{what} needs a log-gamma value that overflows") from None


def entropy_stirling(length: int, ones: int) -> float:
    """Stirling approximation of the gas entropy, in nats.

    Returns length*ln(length) - ones*ln(ones) - (length-ones)*ln(length-ones).
    Only defined on the open interval 0 < ones < length; use
    :func:`multiplicity_ln` for the exact value at the endpoints.
    """
    require_count(1, length=length)
    require_count(0, length, ones=ones)
    if ones in (0, length):
        raise DomainError(
            "Stirling form is undefined at ones in {0, length}; "
            "use multiplicity_ln for the exact entropy"
        )
    zeros = length - ones
    return length * math.log(length) - ones * math.log(ones) - zeros * math.log(zeros)


def gas_temperature(spec: GasSpec) -> GasTemperature:
    """Equilibrium temperature of the gas from the occupation ratio.

    (bit_energy / k_B) / ln((length-ones)/ones): positive below half filling,
    +inf (flagged by ``infinite``) exactly at half filling, negative with the
    ``inverted`` flag above half filling. Away from half filling, a
    temperature that overflows double precision raises DomainError. Near half
    filling, where the ratio rounds to 1, the log is taken as
    log1p((length - 2 ones) / ones).
    """
    length, ones = spec.length, spec.ones
    if ones in (0, length):
        raise DomainError(
            "temperature is a zero-temperature limit at ones in {0, length}"
        )
    ratio_log = math.log((length - ones) / ones)
    if ratio_log == 0.0 and 2 * ones != length:
        ratio_log = math.log1p((length - 2 * ones) / ones)
    if ratio_log == 0.0:
        return GasTemperature(kelvin=math.inf, inverted=False)
    what = f"the temperature of {_named(ones)} excited sites of {_named(length)} at {spec.bit_energy} J each"
    kelvin = require_result(what, (spec.bit_energy / K_B) / ratio_log)
    return GasTemperature(kelvin=kelvin, inverted=kelvin < 0)


def occupation_at(length: int, temperature: float, bit_energy: float) -> float:
    """Equilibrium mean ones count at a given temperature (real-valued).

    Inverts the temperature law: length / (1 + exp(bit_energy / k_B T)).
    The return value is an ensemble average in (0, length/2] and is not
    rounded; callers needing an integer microstate count round explicitly.
    A ratio bit_energy / k_B T that overflows raises DomainError.
    """
    require_count(1, length=length)
    require_above(0, temperature=temperature)
    require_positive(bit_energy=bit_energy)
    x = require_quotient(f"the ratio of {bit_energy} J to k_B times {temperature} K", bit_energy, K_B * temperature)
    # exp(-x) never overflows for x > 0. Where it is subnormal it has lost
    # digits, and 1 + exp(-x) rounds to 1, so L exp(-x) is taken as
    # L exp(700 - x) exp(-700): 700 - x is exact (Sterbenz) up to x = 1400, past which the product is 0.
    boltzmann = math.exp(-x)
    if boltzmann < sys.float_info.min:
        return length * math.exp(700.0 - x) * math.exp(-700.0)
    return length * boltzmann / (1.0 + boltzmann)


def transfer_entropy_delta(
    length: int, p_hot: int, p_cold: int, bit_energy: float
) -> TransferLedger:
    """Entropy ledger for a hot->cold transfer of the full gas energy.

    The heat is delta_q = p_hot * bit_energy and the same delta_q is charged
    to both baths (the full-transfer convention; see module docstring).
    """
    spec_hot = GasSpec(length, p_hot, bit_energy)
    spec_cold = GasSpec(length, p_cold, bit_energy)
    if p_hot in (0, length) or p_cold in (0, length):
        raise DomainError("occupations must lie strictly between 0 and length")

    delta_q = spec_hot.energy
    log_term = math.log(p_hot / p_cold) + math.log((length - p_cold) / (length - p_hot))
    delta_s_occupation = require_result("the occupation entropy change", K_B * (delta_q / bit_energy) * log_term)

    t_hot = gas_temperature(spec_hot).kelvin
    t_cold = gas_temperature(spec_cold).kelvin
    delta_s_clausius = require_result("the Clausius entropy change", delta_q / t_cold - delta_q / t_hot)

    canonical = 0 < p_cold <= p_hot < length / 2
    return TransferLedger(
        length=length,
        p_hot=p_hot,
        p_cold=p_cold,
        bit_energy=bit_energy,
        delta_q=delta_q,
        delta_s_occupation=delta_s_occupation,
        delta_s_clausius=delta_s_clausius,
        t_hot=t_hot,
        t_cold=t_cold,
        canonical=canonical,
    )


def gas_state(spec: GasSpec) -> GasState:
    """All derived equilibrium quantities for one gas, with endpoint handling."""
    interior = 0 < spec.ones < spec.length
    return GasState(
        spec=spec,
        entropy_exact=multiplicity_ln(spec.length, spec.ones),
        entropy_stirling=entropy_stirling(spec.length, spec.ones) if interior else None,
        temperature=gas_temperature(spec) if interior else None,
    )
