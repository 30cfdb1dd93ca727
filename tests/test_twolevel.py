import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infotherm import twolevel
from infotherm.errors import DomainError
from infotherm.twolevel import (
    GasSpec,
    entropy_stirling,
    gas_state,
    gas_temperature,
    multiplicity_ln,
    occupation_at,
    transfer_entropy_delta,
)

BOLTZMANN = 1.380649e-23  # independent copy for oracle arithmetic


def brute_force_arrangements(length: int, ones: int) -> int:
    """Oracle: count all bit strings of the given length with `ones` set bits."""
    return sum(1 for word in range(1 << length) if word.bit_count() == ones)


def log_factorial_oracle(n: int) -> float:
    """Oracle: exact accumulation of log k."""
    return math.fsum(math.log(k) for k in range(1, n + 1))


class TestMultiplicity:
    def test_six_choose_two_matches_enumeration(self):
        count = brute_force_arrangements(6, 2)
        assert count == 15
        assert multiplicity_ln(6, 2) == pytest.approx(math.log(count), rel=1e-14)
        assert multiplicity_ln(6, 2) == pytest.approx(2.70805020110221, rel=1e-12)

    @pytest.mark.parametrize("length", [1, 2, 5, 9, 12])
    def test_enumeration_oracle_small_lengths(self, length):
        for ones in range(length + 1):
            expected = math.log(brute_force_arrangements(length, ones))
            assert multiplicity_ln(length, ones) == pytest.approx(expected, abs=1e-12)

    def test_single_arrangement_endpoints(self):
        assert multiplicity_ln(17, 0) == 0.0
        assert multiplicity_ln(17, 17) == 0.0

    def test_half_filled_thousand_sites(self):
        oracle = log_factorial_oracle(1000) - 2 * log_factorial_oracle(500)
        value = multiplicity_ln(1000, 500)
        assert value == pytest.approx(oracle, rel=1e-13)
        assert value == pytest.approx(689.4672615678515, rel=1e-12)

    def test_no_overflow_at_billion_sites(self):
        value = multiplicity_ln(10**9, 10**8)
        assert math.isfinite(value) and value > 0

    @given(
        length=st.integers(min_value=1, max_value=10**4),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_symmetric_under_occupation_reflection(self, length, fraction):
        ones = round(fraction * length)
        assert multiplicity_ln(length, ones) == multiplicity_ln(length, length - ones)

    @pytest.mark.parametrize("length,ones", [(5, 6), (5, -1), (0, 0)])
    def test_domain_errors(self, length, ones):
        with pytest.raises(DomainError):
            multiplicity_ln(length, ones)


class TestStirling:
    def test_half_filled_thousand_sites_is_thousand_ln_two(self):
        assert entropy_stirling(1000, 500) == pytest.approx(1000 * math.log(2), rel=1e-14)

    def test_two_sites_shows_the_approximation_error(self):
        # Exact value is ln 2; the Stirling form gives 2 ln 2 at this tiny size.
        assert entropy_stirling(2, 1) == pytest.approx(2 * math.log(2), rel=1e-14)
        assert multiplicity_ln(2, 1) == pytest.approx(math.log(2), rel=1e-14)

    def test_converges_at_a_million_sites(self):
        exact = multiplicity_ln(10**6, 5 * 10**5)
        approx = entropy_stirling(10**6, 5 * 10**5)
        assert abs(approx - exact) / exact < 2e-5  # within 0.002%

    @pytest.mark.parametrize(
        "length,fraction",
        [(l, f) for l in (10**4, 10**5, 10**6) for f in (0.01, 0.05, 0.25, 0.5, 0.9, 0.99)]
        + [(l, f) for l in (1000, 3000) for f in (0.1, 0.25, 0.5, 0.75, 0.9)],
    )
    def test_within_one_percent_in_the_convergent_region(self, length, fraction):
        ones = round(fraction * length)
        exact = multiplicity_ln(length, ones)
        approx = entropy_stirling(length, ones)
        assert abs(approx - exact) / exact < 0.01

    def test_one_percent_band_is_sharp_at_small_sparse_corner(self):
        # At 1000 sites with 1% occupation the dropped sqrt terms are still
        # ~2 nats against ~54, so the 1% band genuinely does not hold there.
        exact = multiplicity_ln(1000, 10)
        approx = entropy_stirling(1000, 10)
        assert abs(approx - exact) / exact > 0.01

    @pytest.mark.parametrize("ones", [0, 1000])
    def test_endpoints_direct_caller_to_exact_form(self, ones):
        with pytest.raises(DomainError, match="multiplicity_ln"):
            entropy_stirling(1000, ones)


class TestGasTemperature:
    def test_below_half_filling_value(self):
        temp = gas_temperature(GasSpec(6, 2, 1e-20))
        oracle = (1e-20 / BOLTZMANN) / math.log(2)  # ln((6-2)/2) = ln 2
        assert temp.kelvin == pytest.approx(oracle, rel=1e-14)
        assert temp.kelvin == pytest.approx(1044.9397644795769, rel=1e-12)
        assert not temp.inverted and not temp.infinite

    def test_half_filling_is_the_infinite_sentinel(self):
        temp = gas_temperature(GasSpec(10, 5, 1e-20))
        assert temp.infinite and temp.kelvin == math.inf
        assert not temp.inverted

    def test_population_inversion_is_negative_and_flagged(self):
        temp = gas_temperature(GasSpec(10, 8, 1e-20))
        assert temp.kelvin < 0
        assert temp.inverted

    @pytest.mark.parametrize("length", range(2, 31))
    def test_sign_matches_occupation_side_exhaustively(self, length):
        for ones in range(1, length):
            temp = gas_temperature(GasSpec(length, ones, 1e-20))
            if 2 * ones < length:
                assert temp.kelvin > 0 and not temp.inverted
            elif 2 * ones == length:
                assert temp.infinite
            else:
                assert temp.kelvin < 0 and temp.inverted

    @pytest.mark.parametrize("ones", [0, 10])
    def test_endpoints_are_domain_errors(self, ones):
        with pytest.raises(DomainError):
            gas_temperature(GasSpec(10, ones, 1e-20))

    @pytest.mark.parametrize("ones", [1, 9])
    def test_an_overflowing_temperature_is_a_domain_error(self, ones):
        # 1e308 J / k_B is about 7e330 K: no double holds it, and it is not half filling.
        with pytest.raises(DomainError, match="overflows"):
            gas_temperature(GasSpec(10, ones, 1e308))

    def test_an_overflowing_gas_energy_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            GasSpec(10, 5, 1e308).energy

    def test_half_filling_stays_infinite_at_any_bit_energy(self):
        temp = gas_temperature(GasSpec(10, 5, 1e308))
        assert temp.infinite and not temp.inverted

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_a_ratio_that_rounds_to_one_is_not_half_filling(self, offset):
        # (L - p) / p rounds to 1.0 at L = 1e17, but 2p != L.
        length, ones = 10**17, 5 * 10**16 + offset
        temp = gas_temperature(GasSpec(length, ones, 1e-21))
        with decimal.localcontext(decimal.Context(prec=50)):
            ratio_log = float((decimal.Decimal(length - ones) / ones).ln())
        assert temp.kelvin == pytest.approx((1e-21 / BOLTZMANN) / ratio_log, rel=1e-12)
        assert abs(temp.kelvin) == pytest.approx(1.81e18, rel=1e-3)
        assert temp.inverted == (offset > 0)

    def test_a_count_is_named_in_all_its_digits_below_10_to_the_17(self):
        assert twolevel._named(10**17 - 1) == "99999999999999999"
        assert twolevel._named(10**17) == "1e+17"


class TestOccupation:
    def test_deep_cold_limit_is_empty(self):
        assert occupation_at(1000, 1e-6, 1e-20) < 1e-9

    def test_known_closed_form_point(self):
        # Temperature chosen so the Boltzmann factor is exactly 1/2.
        t = (1e-20 / BOLTZMANN) / math.log(2)
        assert occupation_at(1000, t, 1e-20) == pytest.approx(1000 / 3, rel=1e-12)

    def test_round_trips_with_gas_temperature(self):
        temp = gas_temperature(GasSpec(1000, 250, 1e-20))
        assert occupation_at(1000, temp.kelvin, 1e-20) == pytest.approx(250, abs=1e-9)

    @given(
        length=st.integers(min_value=3, max_value=10**6),
        data=st.data(),
        log_energy=st.floats(min_value=-25, max_value=-18),
    )
    @settings(max_examples=200)
    def test_mutually_inverse_below_half_filling(self, length, data, log_energy):
        ones = data.draw(st.integers(min_value=1, max_value=(length - 1) // 2))
        bit_energy = 10.0**log_energy
        temp = gas_temperature(GasSpec(length, ones, bit_energy))
        back = occupation_at(length, temp.kelvin, bit_energy)
        assert back == pytest.approx(ones, rel=1e-9)

    @staticmethod
    def assert_near_the_exact_law(length, temperature, bit_energy):
        """Within (x + 4) 2**-52 relative of L / (1 + exp(x)) at 50 digits, x = bit_energy / k_B T.

        x itself is rounded twice, which alone costs x 2**-52.
        """
        value = occupation_at(length, temperature, bit_energy)
        with decimal.localcontext(decimal.Context(prec=50)):
            x = decimal.Decimal(bit_energy) / (decimal.Decimal(BOLTZMANN) * decimal.Decimal(temperature))
            exact = decimal.Decimal(length) / (1 + x.exp())
            error = abs(decimal.Decimal(value) - exact)
            assert error <= decimal.Decimal((float(x) + 4) * 2**-52) * exact + decimal.Decimal(math.ulp(0.0))

    @pytest.mark.parametrize("length,temperature,bit_energy", [
        (10**15, 1.0, 1.02168026e-20),  # printed 4.19956e-307 against 4.188740e-307
        (10**15, 1.0, 745 * BOLTZMANN),  # printed 4.94e-309 against 2.82e-309
        (10**300, 1.0, 1e-20),  # exp(-x) underflows to 0
        (1000, 300.0, 1e-20),
    ], ids=["subnormal-boltzmann", "smallest-boltzmann", "boltzmann-underflows", "ordinary"])
    def test_edges_against_the_exact_law(self, length, temperature, bit_energy):
        self.assert_near_the_exact_law(length, temperature, bit_energy)

    @given(
        length=st.one_of(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**300)),
        temperature=st.floats(min_value=1e-3, max_value=1e6),
        x=st.one_of(st.floats(min_value=1e-6, max_value=800.0), st.floats(min_value=700.0, max_value=750.0)),
    )
    @settings(max_examples=300)
    @example(length=5748, temperature=269128.64140541793, x=720.5705745484859)  # exp(log(L) - x) was 23 ulps off
    def test_near_the_exact_law(self, length, temperature, x):
        self.assert_near_the_exact_law(length, temperature, x * BOLTZMANN * temperature)

    def test_below_the_subnormal_edge_every_digit_stands(self):
        # Where exp(-x) is normal the result is L b / (1 + b) as before.
        for length, temperature, bit_energy in [(1000, 300.0, 1e-20), (10**15, 1.0, 700 * BOLTZMANN)]:
            boltzmann = math.exp(-bit_energy / (BOLTZMANN * temperature))
            assert occupation_at(length, temperature, bit_energy) == length * boltzmann / (1.0 + boltzmann)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            occupation_at(100, 0.0, 1e-20)
        with pytest.raises(DomainError):
            occupation_at(100, -5.0, 1e-20)

    @pytest.mark.parametrize("bit_energy", [0.0, -1e-20, math.inf, math.nan])
    def test_bit_energy_must_be_finite_and_positive(self, bit_energy):
        with pytest.raises(DomainError):
            occupation_at(10, 300.0, bit_energy)


class TestTransferLedger:
    def test_equal_occupations_carry_no_entropy(self):
        ledger = transfer_entropy_delta(100, 20, 20, 1e-20)
        assert ledger.delta_s_occupation == 0.0
        assert ledger.delta_s_clausius == 0.0

    def test_hand_evaluated_example(self):
        ledger = transfer_entropy_delta(100, 20, 10, 1e-20)
        oracle = BOLTZMANN * 20 * math.log((20 / 10) * (90 / 80))
        assert ledger.delta_s_occupation == pytest.approx(oracle, rel=1e-14)
        assert ledger.delta_s_occupation == pytest.approx(2.2392199841777162e-22, rel=1e-12)
        assert ledger.delta_q == 20 * 1e-20
        assert ledger.canonical

    def test_occupation_and_bath_forms_agree_over_random_inputs(self):
        rng = np.random.default_rng(424242)
        for _ in range(2000):
            length = int(rng.integers(4, 5001))
            p_hot = int(rng.integers(1, (length - 1) // 2 + 1))
            p_cold = int(rng.integers(1, p_hot + 1))
            ledger = transfer_entropy_delta(length, p_hot, p_cold, 1e-20)
            scale = max(abs(ledger.delta_s_occupation), abs(ledger.delta_s_clausius))
            if scale == 0.0:
                assert ledger.delta_s_occupation == ledger.delta_s_clausius
            else:
                assert abs(ledger.delta_s_occupation - ledger.delta_s_clausius) / scale < 1e-12

    @given(
        length=st.integers(min_value=5, max_value=4000),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_strictly_positive_for_canonical_cooling(self, length, data):
        p_hot = data.draw(st.integers(min_value=2, max_value=max(2, (length - 1) // 2)))
        p_cold = data.draw(st.integers(min_value=1, max_value=p_hot - 1))
        ledger = transfer_entropy_delta(length, p_hot, p_cold, 1e-20)
        assert ledger.delta_s_occupation > 0

    def test_non_canonical_ordering_is_flagged_not_rejected(self):
        ledger = transfer_entropy_delta(100, 10, 20, 1e-20)
        assert not ledger.canonical
        assert ledger.delta_s_occupation < 0

    def test_half_filled_hot_side_uses_the_infinite_temperature(self):
        ledger = transfer_entropy_delta(100, 50, 10, 1e-20)
        assert ledger.t_hot == math.inf
        assert ledger.delta_s_clausius == pytest.approx(ledger.delta_s_occupation, rel=1e-12)

    def test_an_overflowing_heat_is_a_domain_error(self):
        # delta_q = 1e213 * 1e234 overflows; this returned delta_q = inf and delta_s_clausius = nan.
        with pytest.raises(DomainError, match="overflows"):
            transfer_entropy_delta(10**262, 10**213, 194457, 1e234)

    @pytest.mark.parametrize("p_hot,p_cold", [(0, 10), (100, 10), (20, 0), (20, 100)])
    def test_endpoint_occupations_rejected(self, p_hot, p_cold):
        with pytest.raises(DomainError):
            transfer_entropy_delta(100, p_hot, p_cold, 1e-20)


class TestGasSpec:
    def test_energy_is_count_times_bit_energy(self):
        assert GasSpec(10, 3, 2e-20).energy == 3 * 2e-20

    @pytest.mark.parametrize("length,ones,eps", [(0, 0, 1e-20), (5, 6, 1e-20), (5, 2, 0.0), (5, 2, -1e-20), (5, 2, math.inf)])
    def test_validation(self, length, ones, eps):
        with pytest.raises(DomainError):
            GasSpec(length, ones, eps)

    def test_state_bundles_everything_with_endpoint_handling(self):
        state = gas_state(GasSpec(6, 2, 1e-20))
        assert state.entropy_exact == pytest.approx(math.log(15), rel=1e-14)
        assert state.entropy_stirling is not None
        assert state.temperature is not None

        endpoint = gas_state(GasSpec(6, 0, 1e-20))
        assert endpoint.entropy_exact == 0.0
        assert endpoint.entropy_stirling is None
        assert endpoint.temperature is None
