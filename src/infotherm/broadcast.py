"""Broadcast thermodynamics: antenna temperatures, range, and information bounds.

A transmitter radiating power P at f bits per second has temperature
T = P / (k_B f ln 2): the energy per bit over the entropy per bit of a random
file. Geometric spreading then cools the file on its way out; a receiver of
area A at distance R sees the source temperature scaled by A / (4 pi R^2).

Detection requires the received per-bit energy to clear the thermal noise
floor by a safety margin (default 10 x k_B T_n), which yields the maximum
broadcast range. An alternative criterion (received *file temperature* at
least margin x T_n) differs from the bit-energy criterion by a constant
factor 2 ln 2 and is exposed as an option; the two are not reconciled here,
just both available.

Bit rate and carrier frequency are separate parameters: the wavelength comes
from the carrier, the per-bit energy from the bit rate. They often coincide
numerically, so the carrier defaults to the bit rate. A result that
overflows double precision raises DomainError, as does a squared length (a
distance, an antenna radius or a wavelength) or a positive result (a range,
a temperature, an energy, a power or an information) that underflows to 0.

Relation to the per-bit picture: for a random file only half the slots carry
an excited bit, so average power P corresponds to a one-bit energy of 2P/f
(see :func:`equivalent_bit_energy`). The transmitter temperature above uses
P/f per bit directly, which is why it equals the file temperature of a gas
with bit energy 2P/f.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, require_at_least, require_count, require_positive, require_quotient, require_result
from .quantities import C_LIGHT, K_B, LN2, unit

#: Detection criteria accepted by :func:`max_range`.
RANGE_CRITERIA = ("bit-energy", "file-temperature")


def _squared(length: float, name: str) -> float:
    """``length**2``, or DomainError when the square overflows or underflows to 0."""
    try:
        square = length**2
    except OverflowError:
        square = math.inf
    return require_result(f"the square of the {name} of {length} m", square, zero_underflows=True)


@dataclass(frozen=True)
class LinkBudget:
    """One broadcast scenario; ``carrier_frequency`` defaults to ``bit_rate``."""

    power: float
    bit_rate: float
    receiver_area: float
    carrier_frequency: float | None = None
    noise_temperature: float = 300.0
    snr_margin: float = 10.0

    def __post_init__(self):
        if self.carrier_frequency is None:
            object.__setattr__(self, "carrier_frequency", self.bit_rate)
        require_positive(
            power=self.power,
            bit_rate=self.bit_rate,
            receiver_area=self.receiver_area,
            carrier_frequency=self.carrier_frequency,
            noise_temperature=self.noise_temperature,
            snr_margin=self.snr_margin,
        )

    @property
    def wavelength(self) -> float:
        return require_result(f"the {self.carrier_frequency} Hz wavelength", C_LIGHT / self.carrier_frequency)

    def received_bit_energy(self, distance: float) -> float:
        """Per-bit energy at a receiver of this budget's area at ``distance``."""
        require_positive(distance=distance)
        energy = (self.power / self.bit_rate) * self.receiver_area / (4.0 * math.pi * _squared(distance, "distance"))
        return require_result(f"the bit energy received at {distance} m", energy, zero_underflows=True)


@dataclass(frozen=True)
class BroadcastBalance:
    """Entropy increase when one file reaches ``receivers`` antennas."""

    info_per_file: float = unit("nats")
    receivers: int = unit("count")
    entropy_increase: float = unit("J/K")


@dataclass(frozen=True)
class ReceiverTemperature:
    """Receiver-side temperature with its geometric sanity flag."""

    kelvin: float = unit("K", "receiver_temperature")
    geometric_factor: float = unit("dimensionless")

    @property
    def oversized_aperture(self) -> bool:
        """True when the receiver area covers the full sphere (factor >= 1)."""
        return self.geometric_factor >= 1.0


@dataclass(frozen=True)
class BroadcastInformation:
    """Area-law bound on what an antenna can broadcast in a time interval."""

    nats: float = unit("nats", "max_information")
    bits: float = unit("bits", "max_information_bits")
    wavelength: float = unit("m")
    radius: float

    @property
    def subwavelength(self) -> bool:
        """True when the antenna radius is below the carrier wavelength."""
        return self.radius < self.wavelength


def transmitter_temperature(power: float, bit_rate: float) -> float:
    """Source temperature in power/rate units: P / (k_B f ln 2)."""
    require_positive(power=power, bit_rate=bit_rate)
    return require_quotient(f"the temperature of {power} W at {bit_rate} bit/s", power, K_B * bit_rate * LN2,
                            zero_underflows=True)


def receiver_temperature(source_kelvin: float, area: float, distance: float) -> ReceiverTemperature:
    """Source temperature diluted by geometric spreading: T * A / (4 pi R^2).

    The caller owns the plausibility of the geometry; a factor >= 1 (receiver
    area at least the full sphere) is flagged, not rejected.
    """
    require_positive(source_kelvin=source_kelvin, area=area, distance=distance)
    factor = area / (4.0 * math.pi * _squared(distance, "distance"))
    kelvin = require_result(f"the temperature received at {distance} m", source_kelvin * factor, zero_underflows=True)
    return ReceiverTemperature(kelvin=kelvin, geometric_factor=factor)


def broadcast_entropy_balance(info_nats: float, receivers: int) -> BroadcastBalance:
    """Entropy increase of broadcasting: (N - 1) k_B * info.

    Peer-to-peer (N = 1) increases nothing; every additional receiver adds a
    full copy of the file's information to the books.
    """
    require_count(1, receivers=receivers)
    require_at_least(0, information=info_nats)
    increase = require_result(f"the entropy increase of {info_nats} nats sent to {receivers} receivers",
                              (receivers - 1) * K_B * info_nats)
    return BroadcastBalance(info_per_file=info_nats, receivers=receivers, entropy_increase=increase)


def max_range(budget: LinkBudget, criterion: str = "bit-energy") -> float:
    """Largest distance at which the budget still clears its noise margin.

    "bit-energy" (default): received energy per bit equals
    margin * k_B * T_n, giving
    R = sqrt[(P/f) A / (4 pi margin k_B T_n)].

    "file-temperature": the received file temperature equals margin * T_n,
    which is stricter by a constant 2 ln 2 inside the square root.
    """
    if criterion not in RANGE_CRITERIA:
        raise DomainError(f"unknown criterion {criterion!r}; expected one of {RANGE_CRITERIA}")
    noise_floor = budget.snr_margin * K_B * budget.noise_temperature
    what = f"the range of {budget.power} W at {budget.bit_rate} bit/s"
    r_squared = require_quotient(what, (budget.power / budget.bit_rate) * budget.receiver_area,
                                 4.0 * math.pi * noise_floor)
    if criterion == "file-temperature":
        r_squared /= 2.0 * LN2
    return require_result(what, math.sqrt(r_squared), zero_underflows=True)


def max_broadcast_information(
    bit_rate: float, carrier_frequency: float, antenna_radius: float, duration: float
) -> BroadcastInformation:
    """Area-law cap on broadcast information over ``duration`` seconds.

    The antenna surface acts as 4 pi R^2 / lambda^2 independent
    wavelength-sized emitters, each limited to the bit rate, so the bound is
    ln 2 * f * (4 pi R^2 / lambda^2) * dt nats. The derivation assumes a
    radius well above the wavelength; smaller radii are flagged via
    ``subwavelength``.
    """
    require_positive(
        bit_rate=bit_rate,
        carrier_frequency=carrier_frequency,
        antenna_radius=antenna_radius,
        duration=duration,
    )
    wavelength = C_LIGHT / carrier_frequency
    patches = 4.0 * math.pi * _squared(antenna_radius, "antenna radius") / _squared(wavelength, "wavelength")
    bits = require_result(f"the information of a {antenna_radius} m antenna", bit_rate * patches * duration,
                          zero_underflows=True)
    return BroadcastInformation(
        nats=LN2 * bits, bits=bits, wavelength=wavelength, radius=antenna_radius
    )


def equivalent_bit_energy(power: float, bit_rate: float) -> float:
    """One-bit energy matching average power for a random file: 2 P / f."""
    require_positive(power=power, bit_rate=bit_rate)
    return require_result(f"the bit energy of {power} W at {bit_rate} bit/s", 2.0 * power / bit_rate,
                          zero_underflows=True)


def equivalent_power(bit_energy: float, bit_rate: float) -> float:
    """Average power of a random file with the given one-bit energy: f e / 2."""
    require_positive(bit_energy=bit_energy, bit_rate=bit_rate)
    return require_result(f"the power of {bit_energy} J bits at {bit_rate} bit/s", bit_rate * bit_energy / 2.0,
                          zero_underflows=True)
