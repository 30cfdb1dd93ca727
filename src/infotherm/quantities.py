"""Physical constants and information-unit conversions.

Conventions used throughout the package:

- Information and statistical entropy are handled internally in *nats*
  (natural-log units). Bits and SI entropy (J/K) appear only at API
  boundaries and in CLI output, so every ln 2 factor in a formula is
  explicit in the code that implements it.
- ``K_B`` is the exact 2019 SI value of the Boltzmann constant.
- This module is the single source for these constants; other modules must
  import them rather than re-typing the literals (convention, enforced by
  review). Test code is exempt: independent oracles deliberately restate
  values.

Unit relations: 1 bit = ln 2 nats, and an amount of information I (nats)
corresponds to an entropy k_B * I in J/K.
"""

from .errors import DomainError, require_at_least, require_result

#: Boltzmann constant, J/K (exact since the 2019 SI redefinition).
K_B = 1.380649e-23

#: Speed of light in vacuum, m/s (exact).
C_LIGHT = 2.99792458e8

#: ln 2, the nat value of one bit.
LN2 = 0.6931471805599453

#: Units accepted by :func:`convert_information`.
INFORMATION_UNITS = ("nats", "bits", "J/K")


def unit(symbol: str | None, name: str | None = None, **field_options):
    """Declare a result dataclass field together with the unit it is reported in.

    A field declared with ``unit`` is a reported result: the CLI copies it,
    in field order, into the envelope's ``results`` under ``name`` (default:
    the field's own name), and ``symbol`` into ``units``. ``symbol`` is None
    for a result without a unit, such as a flag or a verdict. A field
    declared without ``unit`` (an echoed input) is not reported.
    ``field_options`` go to ``dataclasses.field``, as ``default`` does.
    """
    import dataclasses  # here, not at module level: starting the CLI loads this module, not dataclasses

    return dataclasses.field(metadata={"unit": symbol, "name": name}, **field_options)


def convert_information(nats: float, target: str) -> float:
    """Convert an information amount given in nats to ``target`` units.

    ``target`` is one of ``"nats"``, ``"bits"`` or ``"J/K"``. nats -> bits
    divides by ln 2, and raises DomainError when that overflows; nats -> J/K
    multiplies by k_B.
    """
    require_at_least(0, nats=nats)
    if target == "nats":
        return nats
    if target == "bits":
        return require_result(f"{nats} nats in bits", nats / LN2)
    if target == "J/K":
        return nats * K_B
    raise DomainError(f"unknown information unit {target!r}; expected one of {INFORMATION_UNITS}")


def bits_to_nats(bits: float) -> float:
    """Inverse of the nats -> bits conversion (it cannot overflow: ln 2 < 1)."""
    require_at_least(0, bits=bits)
    return bits * LN2


def entropy_si_to_nats(entropy_si: float) -> float:
    """Inverse of the nats -> J/K conversion; DomainError when it overflows."""
    require_at_least(0, entropy_si=entropy_si)
    return require_result(f"{entropy_si} J/K in nats", entropy_si / K_B)
