import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infotherm import quantities
from infotherm.errors import DomainError, InvalidQuantityError

# Independent copies of the constants; the module must agree with these.
BOLTZMANN = 1.380649e-23
LIGHT_SPEED = 2.99792458e8


def test_constants_match_reference_values():
    assert quantities.K_B == BOLTZMANN
    assert quantities.C_LIGHT == LIGHT_SPEED
    assert quantities.LN2 == math.log(2)


def test_zero_nats_is_zero_in_every_unit():
    for unit in quantities.INFORMATION_UNITS:
        assert quantities.convert_information(0.0, unit) == 0.0


def test_ln2_nats_is_one_bit():
    assert quantities.convert_information(math.log(2), "bits") == pytest.approx(1.0, rel=1e-15)


def test_one_nat_in_si_units_is_boltzmann_constant():
    assert quantities.convert_information(1.0, "J/K") == BOLTZMANN


def test_identity_conversion():
    assert quantities.convert_information(3.25, "nats") == 3.25


def test_inverse_conversions():
    assert quantities.bits_to_nats(1.0) == math.log(2)
    assert quantities.entropy_si_to_nats(BOLTZMANN) == pytest.approx(1.0, rel=1e-15)


@given(st.floats(min_value=0.0, max_value=1e300, allow_nan=False))
def test_nats_bits_round_trip_within_one_ulp(nats):
    bits = quantities.convert_information(nats, "bits")
    back = quantities.bits_to_nats(bits)
    assert abs(back - nats) <= math.ulp(nats)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
def test_invalid_amounts_rejected(bad):
    with pytest.raises(InvalidQuantityError):
        quantities.convert_information(bad, "bits")


def test_unknown_unit_rejected():
    with pytest.raises(ValueError, match="unknown information unit") as exc:
        quantities.convert_information(1.0, "furlongs")
    assert isinstance(exc.value, DomainError)
