import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infotherm import twolevel
from infotherm.bounds import (
    VERDICT_EQUALITY,
    VERDICT_SATISFIED,
    VERDICT_VIOLATED,
    carnot_efficiency,
    clausius_check,
    max_computing_rate,
)
from infotherm.errors import DomainError, InvalidQuantityError

BOLTZMANN = 1.380649e-23  # independent copy for oracle arithmetic


class TestCarnot:
    def test_two_to_one_ratio(self):
        assert carnot_efficiency(600.0, 300.0) == 0.5

    def test_vanishes_as_temperatures_meet(self):
        assert carnot_efficiency(300.0, 300.0 * (1 - 1e-12)) == pytest.approx(1e-12, rel=1e-3)

    def test_transmitter_against_ambient_is_essentially_one(self):
        value = carnot_efficiency(5.77e15, 300.0)
        assert value == pytest.approx(1.0 - 300.0 / 5.77e15, abs=0.0)
        assert 0 < 1 - value < 1e-13

    def test_exact_to_one_ulp(self):
        t_hot, t_cold = 1234.5, 345.6
        expected = 1.0 - t_cold / t_hot
        assert abs(carnot_efficiency(t_hot, t_cold) - expected) <= math.ulp(expected)

    @given(
        t_cold=st.floats(min_value=1.0, max_value=1e6),
        boost=st.floats(min_value=1e-6, max_value=1e6),
        factor=st.floats(min_value=1.001, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_monotone_in_both_arguments(self, t_cold, boost, factor):
        t_hot = t_cold + boost
        assert carnot_efficiency(t_hot * factor, t_cold) > carnot_efficiency(t_hot, t_cold)
        assert carnot_efficiency(t_hot, t_cold / factor) > carnot_efficiency(t_hot, t_cold)

    @staticmethod
    def assert_within_two_ulps(t_hot, t_cold):
        """The difference rounds (unless T_cold >= T_hot / 2) and so does the quotient."""
        value = carnot_efficiency(t_hot, t_cold)
        exact = (Fraction(t_hot) - Fraction(t_cold)) / Fraction(t_hot)
        assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(value))

    def test_no_cancellation_as_temperatures_meet(self):
        # 1 - T_c/T_h was 4.3% off here.
        t_hot, t_cold = 244.78479391358252, 244.7847939135822
        exact = (Fraction(t_hot) - Fraction(t_cold)) / Fraction(t_hot)
        assert carnot_efficiency(t_hot, t_cold) == float(exact)

    @given(
        t_hot=st.floats(min_value=1e-300, max_value=1e300),
        ratio=st.one_of(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
                        st.integers(min_value=1, max_value=2**20).map(lambda n: 1.0 - n * 2**-53)),
    )
    @settings(max_examples=500)
    def test_within_two_ulps_of_the_exact_quotient(self, t_hot, ratio):
        t_cold = t_hot * ratio
        if 0 < t_cold < t_hot:
            self.assert_within_two_ulps(t_hot, t_cold)

    def test_an_infinitely_hot_bath_gives_one(self):
        assert carnot_efficiency(math.inf, 300.0) == 1.0

    @pytest.mark.parametrize("t_hot,t_cold", [(300.0, 300.0), (200.0, 300.0), (300.0, 0.0), (300.0, -1.0)])
    def test_domain_errors(self, t_hot, t_cold):
        with pytest.raises(DomainError):
            carnot_efficiency(t_hot, t_cold)


class TestClausiusCheck:
    def test_single_bath_equality(self):
        ledger = clausius_check(delta_s=1e-20 / 300.0, heat_terms=[(1e-20, 300.0)])
        assert ledger.verdict == VERDICT_EQUALITY

    def test_two_bath_transfer_ledger_is_the_equality_case(self):
        transfer = twolevel.transfer_entropy_delta(500, 120, 40, 1e-20)
        ledger = clausius_check(
            delta_s=transfer.delta_s_occupation,
            heat_terms=[(transfer.delta_q, transfer.t_cold), (-transfer.delta_q, transfer.t_hot)],
        )
        assert ledger.verdict == VERDICT_EQUALITY

    @pytest.mark.parametrize("receivers", [1, 2, 5, 100])
    def test_broadcast_construction_is_the_equality_case(self, receivers):
        length, bit_energy = 10**6, 1e-20
        info = length * math.log(2)
        t_hot = bit_energy / (2 * BOLTZMANN * math.log(2))
        heat = length * bit_energy / 2
        ledger = clausius_check(
            delta_s=(receivers - 1) * BOLTZMANN * info,
            heat_terms=[(heat, t_hot / receivers), (-heat, t_hot)],
        )
        assert ledger.verdict == VERDICT_EQUALITY

    def test_random_triples_match_a_direct_inequality_oracle(self):
        rng = np.random.default_rng(31337)
        for _ in range(10**4):
            delta_s = float(rng.uniform(-1e-20, 1e-20))
            heat = float(rng.uniform(-1e-18, 1e-18))
            temp = float(10 ** rng.uniform(0, 4))
            ledger = clausius_check(delta_s, [(heat, temp)])
            gap = delta_s - heat / temp
            if ledger.verdict == VERDICT_SATISFIED:
                assert gap > 0
            elif ledger.verdict == VERDICT_VIOLATED:
                assert gap < 0
            else:
                assert abs(gap) <= ledger.tolerance

    def test_pure_information_form(self):
        info = 1000.0
        at_par = BOLTZMANN * info
        assert clausius_check(at_par, [], info).verdict == VERDICT_EQUALITY
        assert clausius_check(at_par * 1.01, [], info).verdict == VERDICT_SATISFIED
        assert clausius_check(at_par * 0.99, [], info).verdict == VERDICT_VIOLATED

    def test_information_term_tightens_the_inequality(self):
        delta_s = 1e-20
        heat_terms = [(2.9e-18, 300.0)]
        assert clausius_check(delta_s, heat_terms).verdict == VERDICT_SATISFIED
        tightened = clausius_check(delta_s, heat_terms, info_term=100.0)
        assert tightened.verdict == VERDICT_VIOLATED

    def test_slack_formula(self):
        ledger = clausius_check(5e-22, [(1e-20, 100.0), (-3e-21, 250.0)], info_term=7.0)
        oracle = 5e-22 - (1e-20 / 100.0 - 3e-21 / 250.0) - BOLTZMANN * 7.0
        assert ledger.slack == pytest.approx(oracle, rel=1e-12)

    def test_explicit_tolerance_is_respected(self):
        ledger = clausius_check(1.0, [(0.5, 1.0)], tolerance=0.6)
        assert ledger.verdict == VERDICT_EQUALITY

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_s": math.nan},
            {"delta_s": 0.0, "heat_terms": [(1.0, 0.0)]},
            {"delta_s": 0.0, "heat_terms": [(1.0, -4.0)]},
            {"delta_s": 0.0, "heat_terms": [(math.inf, 4.0)]},
            {"delta_s": 0.0, "info_term": -1.0},
            {"delta_s": 0.0, "tolerance": -1.0},
            {"delta_s": 0.0, "tolerance": math.inf},
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises((DomainError, InvalidQuantityError)):
            clausius_check(**kwargs)

    @pytest.mark.parametrize(
        "delta_s,heat_terms",
        [
            (1.0, [(1e308, 1e-10)]),
            (1.0, [(1e308, 1.0), (1e308, 1.0)]),
            (1.0, [(1e308, 1e-10), (-1e308, 1e-10)]),
            (1e308, [(-1e308, 1.0)]),
            (0.0, [(1e308, 1.0), (-1e308, 1.0)]),
        ],
        ids=["inf-term", "sum-overflow", "inf-minus-inf", "slack-overflow", "scale-overflow"],
    )
    def test_an_overflowing_ledger_has_no_verdict(self, delta_s, heat_terms):
        with pytest.raises(DomainError):
            clausius_check(delta_s, heat_terms)

    def test_an_explicit_tolerance_needs_no_scale(self):
        ledger = clausius_check(0.0, [(1e308, 1.0), (-1e308, 1.0)], tolerance=0.0)
        assert (ledger.slack, ledger.verdict) == (0.0, VERDICT_EQUALITY)

    @pytest.mark.parametrize(
        "field,bad",
        [pytest.param(field, bad, id=f"{field}-{name}")
         for field in ("delta_s", "info_term", "tolerance", "heat", "temperature")
         for name, bad in (("str", "1e-22"), ("none", None), ("bool", True), ("list", [1.0]), ("int-10e400", 10**400))
         if (field, bad) != ("tolerance", None)],
    )
    def test_a_non_number_is_a_domain_error(self, field, bad):
        kwargs = {"delta_s": 1e-22, "heat_terms": [(3e-20, 300.0)], "info_term": 0.0, "tolerance": None}
        if field in ("heat", "temperature"):
            kwargs["heat_terms"] = [(bad, 300.0) if field == "heat" else (3e-20, bad)]
        else:
            kwargs[field] = bad
        with pytest.raises(DomainError):
            clausius_check(**kwargs)

    @pytest.mark.parametrize(
        "heat_terms",
        [[(1.0,)], [(1.0, 300.0, 5.0)], [(3e-20, 300.0), (1.0,)], [[]], [3e-20], "ab", 5, {(1.0, 300.0)}],
        ids=["one", "three", "second-of-one", "empty-term", "bare-number", "string", "int", "set"],
    )
    def test_a_heat_term_that_is_not_a_pair_is_a_domain_error(self, heat_terms):
        with pytest.raises(DomainError, match="heat_terms must be a list of"):
            clausius_check(1.0, heat_terms)

    def test_integers_are_stored_as_floats(self):
        ledger = clausius_check(1, [(3, 2)], info_term=0)
        assert [type(v) for v in (ledger.delta_s, ledger.info_term, *ledger.heat_terms[0])] == [float] * 4

    def test_nan_tolerance_rejected(self):
        # NaN compares false both ways, which once read as "satisfied" for a
        # slack of -1 J/K.
        with pytest.raises(DomainError):
            clausius_check(-1.0, (), 0.0, math.nan)


class TestComputingBound:
    def test_one_watt_room_temperature_reference(self):
        value = max_computing_rate(1.0, 300.0, 10.0)
        # Hand calculation: 1 / (10 * 1.380649e-23 * ln 2 * 300).
        assert value == pytest.approx(3.4831325482652564e19, rel=1e-6)

    def test_unit_margin_recovers_the_dissipation_floor(self):
        oracle = 1.0 / (BOLTZMANN * math.log(2) * 300.0)
        assert max_computing_rate(1.0, 300.0, margin=1.0) == pytest.approx(oracle, rel=1e-14)

    def test_doubling_noise_temperature_halves_the_bound(self):
        assert max_computing_rate(1.0, 600.0) == pytest.approx(
            max_computing_rate(1.0, 300.0) / 2, rel=1e-14
        )

    def test_round_trip_identity(self):
        power, temp, margin = 3.14, 77.0, 12.5
        rate = max_computing_rate(power, temp, margin)
        assert rate * margin * BOLTZMANN * math.log(2) * temp == pytest.approx(power, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"power": 0.0, "noise_temperature": 300.0},
            {"power": 1.0, "noise_temperature": -300.0},
            {"power": 1.0, "noise_temperature": 300.0, "margin": 0.5},
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            max_computing_rate(**kwargs)

    def test_overflowing_rate_raises(self):
        # 1e308 W at 1e-300 K is about 1e630 operations per second; at 1e23 K
        # the same power stays just inside double precision.
        with pytest.raises(DomainError, match="overflows"):
            max_computing_rate(1e308, 1e-300)
        assert max_computing_rate(1e308, 1e23) == pytest.approx(1e308 / (10 * BOLTZMANN * math.log(2) * 1e23))

    @pytest.mark.parametrize("margin", [math.inf, math.nan, -math.inf, 0.999])
    def test_margin_must_be_finite_and_at_least_one(self, margin):
        with pytest.raises(DomainError, match="margin"):
            max_computing_rate(1.0, 300.0, margin)

    def test_underflowing_rate_raises(self):
        # 5e-324 W at 1e300 K is about 5e-603 operations per second, far
        # below the smallest double; 1e-300 W at 1 K stays representable.
        with pytest.raises(DomainError, match="underflows"):
            max_computing_rate(5e-324, 1e300)
        with pytest.raises(DomainError, match="underflows"):
            max_computing_rate(1e-300, 1e300, 1e10)
        assert max_computing_rate(1e-300, 1.0) == pytest.approx(1e-300 / (10 * BOLTZMANN * math.log(2)))
