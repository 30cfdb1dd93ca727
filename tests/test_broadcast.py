import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infotherm import broadcast, fileinfo
from infotherm.broadcast import (
    LinkBudget,
    broadcast_entropy_balance,
    equivalent_bit_energy,
    equivalent_power,
    max_broadcast_information,
    max_range,
    receiver_temperature,
    transmitter_temperature,
)
from infotherm.errors import DomainError

BOLTZMANN = 1.380649e-23  # independent copy for oracle arithmetic
LIGHT_SPEED = 2.99792458e8


def reference_budget(area_divisor: float = 1.0) -> LinkBudget:
    wavelength = LIGHT_SPEED / 9e8
    return LinkBudget(
        power=50.0,
        bit_rate=9e8,
        carrier_frequency=9e8,
        receiver_area=wavelength**2 / area_divisor,
        noise_temperature=300.0,
        snr_margin=10.0,
    )


class TestTransmitterTemperature:
    def test_fifty_watt_reference_case(self):
        value = transmitter_temperature(50.0, 9e8)
        oracle = 50.0 / (BOLTZMANN * 9e8 * math.log(2))
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(5.805220913775427e15, rel=1e-12)

    def test_linear_in_power(self):
        assert transmitter_temperature(100.0, 9e8) == pytest.approx(
            2 * transmitter_temperature(50.0, 9e8), rel=1e-15
        )

    def test_definition_unwinding_gives_one_kelvin(self):
        bit_rate = 1e9
        power = BOLTZMANN * math.log(2) * bit_rate
        assert transmitter_temperature(power, bit_rate) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_identity(self):
        power, bit_rate = 7.5, 2.4e9
        value = transmitter_temperature(power, bit_rate)
        assert value * BOLTZMANN * math.log(2) * bit_rate == pytest.approx(power, rel=1e-14)

    @pytest.mark.parametrize("power,bit_rate", [(0.0, 1e9), (-1.0, 1e9), (50.0, 0.0)])
    def test_domain_errors(self, power, bit_rate):
        with pytest.raises(DomainError):
            transmitter_temperature(power, bit_rate)


class TestReceiverTemperature:
    def test_full_sphere_receiver_keeps_the_temperature_and_flags(self):
        distance = 2.0
        area = 4 * math.pi * distance**2
        result = receiver_temperature(1000.0, area, distance)
        assert result.kelvin == 1000.0
        assert result.oversized_aperture

    def test_reference_case(self):
        result = receiver_temperature(5.77e15, 0.1109, 1.09e5)
        oracle = 5.77e15 * 0.1109 / (4 * math.pi * 1.09e5**2)
        assert result.kelvin == pytest.approx(oracle, rel=1e-14)
        assert result.kelvin == pytest.approx(4285.924332964489, rel=1e-12)
        assert not result.oversized_aperture

    def test_inverse_square_scaling(self):
        near = receiver_temperature(1e15, 0.1, 500.0)
        far = receiver_temperature(1e15, 0.1, 1000.0)
        assert near.kelvin == pytest.approx(4 * far.kelvin, rel=1e-12)

    @pytest.mark.parametrize("distance,fault", [(1e-200, "underflows to 0"), (1e200, "overflows")])
    def test_a_squared_distance_out_of_range_is_a_domain_error(self, distance, fault):
        # Once a ZeroDivisionError and an OverflowError.
        with pytest.raises(DomainError, match=fault):
            receiver_temperature(1e10, 1.0, distance)
        with pytest.raises(DomainError, match=fault):
            LinkBudget(1.0, 1.0, 1.0).received_bit_energy(distance)


class TestEntropyBalance:
    def test_peer_to_peer_increases_nothing(self):
        assert broadcast_entropy_balance(693147.18, 1).entropy_increase == 0.0

    def test_five_receivers_of_a_million_bit_file(self):
        info = 1e6 * math.log(2)
        balance = broadcast_entropy_balance(info, 5)
        oracle = 4 * BOLTZMANN * info
        assert balance.entropy_increase == pytest.approx(oracle, rel=1e-14)
        assert balance.entropy_increase == pytest.approx(3.828035497755958e-17, rel=1e-10)

    def test_zero_information_increases_nothing(self):
        for receivers in (1, 2, 100):
            assert broadcast_entropy_balance(0.0, receivers).entropy_increase == 0.0

    def test_zero_receivers_rejected(self):
        with pytest.raises(DomainError):
            broadcast_entropy_balance(1.0, 0)

    @given(
        info=st.floats(min_value=0, max_value=1e12),
        n1=st.integers(min_value=1, max_value=10**6),
        n2=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200)
    def test_additive_in_extra_receivers(self, info, n1, n2):
        combined = broadcast_entropy_balance(info, n1 + n2 - 1).entropy_increase
        split = (
            broadcast_entropy_balance(info, n1).entropy_increase
            + broadcast_entropy_balance(info, n2).entropy_increase
            - broadcast_entropy_balance(info, 1).entropy_increase
        )
        assert combined == pytest.approx(split, rel=1e-12, abs=1e-300)


class TestMaxRange:
    def test_reference_budget_reaches_a_hundred_kilometres(self):
        value = max_range(reference_budget())
        assert value == pytest.approx(1.0882651962020044e5, rel=1e-12)
        assert 0.8e5 <= value <= 1.4e5

    def test_small_linear_antenna_reaches_ten_kilometres(self):
        value = max_range(reference_budget(area_divisor=100.0))
        assert value == pytest.approx(1.0882651962020044e4, rel=1e-12)
        assert 0.8e4 <= value <= 1.4e4

    def test_quadrupling_power_doubles_range(self):
        base = reference_budget()
        boosted = LinkBudget(
            power=4 * base.power,
            bit_rate=base.bit_rate,
            carrier_frequency=base.carrier_frequency,
            receiver_area=base.receiver_area,
        )
        assert max_range(boosted) == pytest.approx(2 * max_range(base), rel=1e-12)

    def test_is_the_root_of_the_detection_equation(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            budget = LinkBudget(
                power=float(10 ** rng.uniform(-3, 6)),
                bit_rate=float(10 ** rng.uniform(3, 12)),
                carrier_frequency=float(10 ** rng.uniform(6, 11)),
                receiver_area=float(10 ** rng.uniform(-6, 2)),
                noise_temperature=float(rng.uniform(3, 3000)),
                snr_margin=float(rng.uniform(1, 100)),
            )
            floor = budget.snr_margin * BOLTZMANN * budget.noise_temperature
            lo, hi = 1e-9, 1e15
            assert budget.received_bit_energy(lo) > floor > budget.received_bit_energy(hi)
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if budget.received_bit_energy(mid) > floor:
                    lo = mid
                else:
                    hi = mid
            assert max_range(budget) == pytest.approx(math.sqrt(lo * hi), rel=1e-9)

    def test_file_temperature_criterion_is_stricter_by_sqrt_two_ln_two(self):
        budget = reference_budget()
        ratio = max_range(budget, "bit-energy") / max_range(budget, "file-temperature")
        assert ratio == pytest.approx(math.sqrt(2 * math.log(2)), rel=1e-12)

    def test_received_file_temperature_at_max_range(self):
        # At the bit-energy range limit the received *file* temperature sits
        # at margin / (2 ln 2) times the noise temperature: the two
        # detection criteria differ by exactly that constant.
        budget = reference_budget()
        r_max = max_range(budget)
        file_temp_at_source = fileinfo.file_temperature(budget.power / budget.bit_rate)
        received = receiver_temperature(file_temp_at_source, budget.receiver_area, r_max)
        ratio = received.kelvin / budget.noise_temperature
        expected = budget.snr_margin / (2 * math.log(2))
        assert expected * 0.999 <= ratio <= expected * 1.001

    def test_unknown_criterion_rejected(self):
        with pytest.raises(DomainError):
            max_range(reference_budget(), "wishful-thinking")


class TestMaxBroadcastInformation:
    def test_unit_geometric_factor_is_bit_rate_times_duration(self):
        carrier = 9e8
        wavelength = LIGHT_SPEED / carrier
        radius = wavelength / (2 * math.sqrt(math.pi))  # makes 4 pi R^2 = lambda^2
        bound = max_broadcast_information(1e9, carrier, radius, 3.0)
        assert bound.bits == pytest.approx(1e9 * 3.0, rel=1e-12)

    def test_reference_case(self):
        bound = max_broadcast_information(1e9, 9e8, 1.0, 1.0)
        assert bound.bits == pytest.approx(1.1325398104450394e11, rel=1e-12)
        assert bound.nats == pytest.approx(bound.bits * math.log(2), rel=1e-15)

    def test_doubling_radius_quadruples_the_bound(self):
        small = max_broadcast_information(1e9, 9e8, 2.0, 1.0)
        large = max_broadcast_information(1e9, 9e8, 4.0, 1.0)
        assert large.bits == pytest.approx(4 * small.bits, rel=1e-12)

    @given(
        scale=st.floats(min_value=0.1, max_value=10),
        bit_rate=st.floats(min_value=1e3, max_value=1e12),
        duration=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=100)
    def test_linear_in_rate_and_duration(self, scale, bit_rate, duration):
        base = max_broadcast_information(bit_rate, 9e8, 5.0, duration)
        assert max_broadcast_information(bit_rate * scale, 9e8, 5.0, duration).nats == pytest.approx(
            base.nats * scale, rel=1e-12
        )
        assert max_broadcast_information(bit_rate, 9e8, 5.0, duration * scale).nats == pytest.approx(
            base.nats * scale, rel=1e-12
        )

    @pytest.mark.parametrize(
        "carrier,radius,fault",
        [(1.0, 1e200, r"antenna radius of 1e\+200 m overflows"), (1.0, 1e-200, "antenna radius of 1e-200 m underflows"),
         (1e300, 1.0, "wavelength of .* m underflows"), (1e-200, 1.0, "wavelength of .* m overflows")],
    )
    def test_a_squared_length_out_of_range_is_a_domain_error(self, carrier, radius, fault):
        with pytest.raises(DomainError, match=fault):
            max_broadcast_information(1.0, carrier, radius, 1.0)

    def test_subwavelength_antenna_is_flagged(self):
        bound = max_broadcast_information(1e9, 9e8, 0.01, 1.0)
        assert bound.subwavelength
        assert not max_broadcast_information(1e9, 9e8, 10.0, 1.0).subwavelength

    def test_a_radius_of_one_wavelength_is_not_subwavelength(self):
        # A carrier of c Hz has a wavelength of exactly 1 m.
        assert max_broadcast_information(1e9, 299792458.0, 1.0, 1.0).wavelength == 1.0
        assert not max_broadcast_information(1e9, 299792458.0, 1.0, 1.0).subwavelength
        assert max_broadcast_information(1e9, 299792458.0, 0.9999999999999999, 1.0).subwavelength


class TestLinkBudget:
    def test_carrier_defaults_to_bit_rate(self):
        budget = LinkBudget(power=1.0, bit_rate=2e9, receiver_area=0.5)
        assert budget.carrier_frequency == 2e9
        assert budget.wavelength == pytest.approx(LIGHT_SPEED / 2e9, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"power": 0.0, "bit_rate": 1.0, "receiver_area": 1.0},
            {"power": 1.0, "bit_rate": -1.0, "receiver_area": 1.0},
            {"power": 1.0, "bit_rate": 1.0, "receiver_area": 1.0, "noise_temperature": 0.0},
            {"power": 1.0, "bit_rate": 1.0, "receiver_area": 1.0, "carrier_frequency": -2.0},
            {"power": 1.0, "bit_rate": 1.0, "receiver_area": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            LinkBudget(**kwargs)

    def test_bit_energy_power_equivalence_round_trip(self):
        assert equivalent_power(equivalent_bit_energy(50.0, 9e8), 9e8) == pytest.approx(50.0, rel=1e-15)
        assert equivalent_bit_energy(50.0, 9e8) == pytest.approx(2 * 50.0 / 9e8, rel=1e-15)


@pytest.mark.parametrize(
    "compute",
    [
        lambda: max_range(LinkBudget(power=1.0, bit_rate=1e9, carrier_frequency=1e9, receiver_area=1e300)),
        lambda: broadcast_entropy_balance(1e300, 10**300),
        lambda: transmitter_temperature(1e308, 1e-300),
        lambda: equivalent_bit_energy(1e308, 1e-300),
        lambda: equivalent_power(1e308, 1e300),
        lambda: receiver_temperature(1e300, 1e300, 1e-100),
        lambda: max_broadcast_information(1e300, 1.0, 1.0, 1e300),
        lambda: LinkBudget(1.0, 1.0, 1.0, carrier_frequency=5e-324).wavelength,
        lambda: LinkBudget(1e308, 1e-300, 1.0).received_bit_energy(1.0),
    ],
    ids=["max-range", "entropy-balance", "transmitter-temperature", "equivalent-bit-energy", "equivalent-power",
         "receiver-temperature", "max-broadcast-information", "wavelength", "received-bit-energy"],
)
def test_an_overflowing_result_is_a_domain_error(compute):
    # Each once returned inf.
    with pytest.raises(DomainError, match="overflows$"):
        compute()
