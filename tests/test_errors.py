"""The shared checks in ``errors``, and their reach over the public API.

Every public function's quantity and count arguments go through the checkers
in ``errors``, so None, a string, a bool, NaN and +-inf raise DomainError
(InvalidQuantityError), never a TypeError or a bare ValueError, and so does a
count that is no integer (2.5, 3.0, numpy's 3.0). +inf is left out only where
it is a valid limit (a hot bath or an occupation temperature), and None only
where it means "use the default".
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infotherm import bounds, broadcast, fileinfo, mcsim, quantities, twolevel
from infotherm.errors import (
    MEMORY_BUDGET,
    DomainError,
    InvalidQuantityError,
    require_above,
    require_at_least,
    require_count,
    require_finite,
    require_positive,
    require_quotient,
    require_result,
    require_within_budget,
)

_DATA = b"infotherm" * 4  # 288 bits: enough for 2-bit blocks

#: (name, function, valid keyword arguments, arguments that may be +inf, arguments that may be None)
_PUBLIC = [
    ("GasSpec", twolevel.GasSpec, {"length": 10, "ones": 3, "bit_energy": 1e-21}, (), ()),
    ("multiplicity_ln", twolevel.multiplicity_ln, {"length": 10, "ones": 3}, (), ()),
    ("entropy_stirling", twolevel.entropy_stirling, {"length": 10, "ones": 3}, (), ()),
    ("occupation_at", twolevel.occupation_at, {"length": 10, "temperature": 300.0, "bit_energy": 1e-21},
     ("temperature",), ()),
    ("transfer_entropy_delta", twolevel.transfer_entropy_delta,
     {"length": 1000, "p_hot": 200, "p_cold": 100, "bit_energy": 1e-21}, (), ()),
    ("analyze_counts", fileinfo.analyze_counts, {"data": _DATA, "bit_energy": 1e-21}, (), ()),
    ("max_information", fileinfo.max_information, {"bit_length": 8}, (), ()),
    ("file_temperature", fileinfo.file_temperature, {"bit_energy": 1e-21}, (), ()),
    ("block_entropy", fileinfo.block_entropy, {"data": _DATA, "block_bits": 2}, (), ()),
    ("effective_temperature", fileinfo.effective_temperature, {"energy": 1e-20, "info_nats": 5.0}, (), ()),
    ("analyze", fileinfo.analyze, {"data": _DATA, "bit_energy": 1e-21, "block_bits": 2}, (), ()),
    ("LinkBudget", broadcast.LinkBudget,
     {"power": 1.0, "bit_rate": 1e6, "receiver_area": 1.0, "carrier_frequency": 1e9,
      "noise_temperature": 300.0, "snr_margin": 10.0}, (), ("carrier_frequency",)),
    ("received_bit_energy", lambda distance: broadcast.LinkBudget(1.0, 1e6, 1.0).received_bit_energy(distance),
     {"distance": 10.0}, (), ()),
    ("transmitter_temperature", broadcast.transmitter_temperature, {"power": 1.0, "bit_rate": 1e6}, (), ()),
    ("receiver_temperature", broadcast.receiver_temperature,
     {"source_kelvin": 1e10, "area": 1.0, "distance": 10.0}, (), ()),
    ("broadcast_entropy_balance", broadcast.broadcast_entropy_balance, {"info_nats": 5.0, "receivers": 3}, (), ()),
    ("max_broadcast_information", broadcast.max_broadcast_information,
     {"bit_rate": 1e6, "carrier_frequency": 1e9, "antenna_radius": 1.0, "duration": 1.0}, (), ()),
    ("equivalent_bit_energy", broadcast.equivalent_bit_energy, {"power": 1.0, "bit_rate": 1e6}, (), ()),
    ("equivalent_power", broadcast.equivalent_power, {"bit_energy": 1e-21, "bit_rate": 1e6}, (), ()),
    ("carnot_efficiency", bounds.carnot_efficiency, {"t_hot": 600.0, "t_cold": 300.0}, ("t_hot",), ()),
    ("clausius_check", bounds.clausius_check, {"delta_s": 1e-22, "info_term": 0.0, "tolerance": 1e-30},
     (), ("tolerance",)),
    ("clausius_check heat term", lambda heat, temperature: bounds.clausius_check(1e-22, [(heat, temperature)]),
     {"heat": 3e-20, "temperature": 300.0}, (), ()),
    ("max_computing_rate", bounds.max_computing_rate, {"power": 1.0, "noise_temperature": 300.0, "margin": 10.0},
     (), ()),
    ("convert_information", lambda nats: quantities.convert_information(nats, "bits"), {"nats": 1.0}, (), ()),
    ("bits_to_nats", quantities.bits_to_nats, {"bits": 1.0}, (), ()),
    ("entropy_si_to_nats", quantities.entropy_si_to_nats, {"entropy_si": 1e-23}, (), ()),
    ("sample_equilibrium", mcsim.sample_equilibrium, {"length": 10, "ones": 3, "seed": 1}, (), ()),
    ("sample_canonical", mcsim.sample_canonical,
     {"length": 10, "temperature": 300.0, "bit_energy": 1e-21, "seed": 1}, ("temperature",), ()),
    ("simulate_transfer", mcsim.simulate_transfer,
     {"length": 10, "t_hot": 2000.0, "t_cold": 500.0, "bit_energy": 1e-20, "steps": 100, "seed": 1},
     ("t_hot",), ()),
    ("run_ensemble", lambda **kw: mcsim.run_ensemble(seeds=[1], **kw),
     {"length": 10, "t_hot": 2000.0, "t_cold": 500.0, "bit_energy": 1e-20, "steps": 100}, ("t_hot",), ()),
]

#: (function id, argument) for every checked argument: all but the byte strings.
_ARGUMENTS = [(name, arg) for name, _, valid, _, _ in _PUBLIC for arg in valid if arg != "data"]
#: The count arguments: those whose valid value is an int.
_COUNTS = [(name, arg) for name, _, valid, _, _ in _PUBLIC for arg, value in valid.items() if type(value) is int]
_BY_NAME = {name: (function, valid, infinite_ok, none_ok) for name, function, valid, infinite_ok, none_ok in _PUBLIC}

#: Values that are never a finite real number.
_NOT_NUMBERS = st.one_of(
    st.none(),
    st.text(max_size=8),
    st.booleans(),
    st.just(math.nan),
    st.sampled_from([math.inf, -math.inf]),
)

#: Numbers that are no count.
_NOT_INTEGERS = st.sampled_from([2.5, 3.0, np.float64(3)])


@pytest.mark.parametrize("name", sorted(_BY_NAME))
def test_the_valid_arguments_are_accepted(name):
    function, valid, _, _ = _BY_NAME[name]
    function(**valid)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.tuples(st.sampled_from(_ARGUMENTS), _NOT_NUMBERS),
                 st.tuples(st.sampled_from(_COUNTS), _NOT_INTEGERS)))
def test_a_non_number_raises_domain_error(case_and_bad):
    (name, arg), bad = case_and_bad
    function, valid, infinite_ok, none_ok = _BY_NAME[name]
    if (bad == math.inf and arg in infinite_ok) or (bad is None and arg in none_ok):
        return
    with pytest.raises(DomainError):
        function(**{**valid, arg: bad})


class TestCheckers:
    @pytest.mark.parametrize("value", [0, -1.5, 1e308, 5e-324, 2**64])
    def test_require_finite_returns_a_finite_number_unchanged(self, value):
        assert require_finite("x", value) is value

    @pytest.mark.parametrize("value", [None, "1.0", True, False, math.nan, math.inf, -math.inf, 10**400, [1.0], 1j])
    def test_require_finite_refuses_everything_else(self, value):
        with pytest.raises(InvalidQuantityError, match="^speed must be a finite number"):
            require_finite("speed", value)

    def test_require_positive_names_the_first_bad_value(self):
        require_positive(a=5e-324, b=1e308)
        with pytest.raises(InvalidQuantityError, match=r"^b must be finite and > 0, got 0.0$"):
            require_positive(a=1.0, b=0.0, c=-1.0)
        with pytest.raises(InvalidQuantityError, match="^a must be a finite number"):
            require_positive(a=math.inf)

    def test_require_at_least_includes_its_bound(self):
        require_at_least(1, length=1, ones=2**63)
        require_at_least(0, info=0.0)
        with pytest.raises(InvalidQuantityError, match=r"^length must be finite and >= 1, got 0$"):
            require_at_least(1, length=0)
        with pytest.raises(InvalidQuantityError, match="^info must be a finite number"):
            require_at_least(0, info=math.inf)
        with pytest.raises(InvalidQuantityError):
            require_at_least(0, info=-5e-324)

    def test_an_invalid_quantity_is_a_domain_error_and_a_value_error(self):
        assert issubclass(InvalidQuantityError, DomainError)
        assert issubclass(DomainError, ValueError)

    @pytest.mark.parametrize("value", [0, 1, 10, np.int64(7), np.uint8(3), 2**64 - 1])
    def test_require_count_accepts_integers_numpy_ones_too(self, value):
        require_count(0, 2**64 - 1, n=value)

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3), True, np.True_, None, "3", math.nan, math.inf,
                                       -1, 11, 10**400])
    def test_require_count_refuses_everything_else(self, value):
        with pytest.raises(InvalidQuantityError, match=r"^n must be an integer in \[0, 10\], got "):
            require_count(0, 10, n=value)

    def test_require_count_keeps_a_count_inside_the_float_range_by_default(self):
        require_count(1, length=10**308)
        with pytest.raises(InvalidQuantityError, match="^length must be an integer"):
            require_count(1, length=10**309)

    def test_require_above_admits_an_infinitely_hot_bath(self):
        require_above(300.0, t_hot=math.inf)
        require_above(300.0, t_hot=300.00000000000006)
        require_above(0, temperature=5e-324)

    @pytest.mark.parametrize("value", [300.0, 299.0, -math.inf, math.nan, None, "inf", True])
    def test_require_above_refuses_everything_else(self, value):
        with pytest.raises(InvalidQuantityError, match="^t_hot must be"):
            require_above(300.0, t_hot=value)

    def test_require_result_returns_a_finite_value_unchanged(self):
        assert require_result("x", 1e308) == 1e308
        assert require_result("an energy", 0.0) == 0.0
        assert require_result("a rate", 5e-324, zero_underflows=True) == 5e-324

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_require_result_refuses_an_overflow(self, value):
        with pytest.raises(DomainError, match="^the rate overflows$"):
            require_result("the rate", value, zero_underflows=True)

    def test_require_result_refuses_zero_only_where_it_is_an_underflow(self):
        with pytest.raises(DomainError, match="^the square underflows to 0$"):
            require_result("the square", 0.0, zero_underflows=True)

    def test_require_quotient_divides(self):
        assert require_quotient("x", 1.0, 4.0) == 0.25
        assert require_quotient("x", 0.0, 5e-324) == 0.0

    def test_require_quotient_takes_a_zero_denominator_as_an_overflow(self):
        with pytest.raises(DomainError, match="^the rate overflows$"):
            require_quotient("the rate", 1.0, 1e-300 * 1e-300)
        assert require_quotient("the temperature", 0.0, 0.0) == 0.0
        with pytest.raises(DomainError, match="^the rate underflows to 0$"):
            require_quotient("the rate", 0.0, 0.0, zero_underflows=True)

    def test_the_memory_budget_admits_exactly_its_bytes(self):
        require_within_budget(MEMORY_BUDGET, "a request")
        with pytest.raises(DomainError, match="^a request needs about 2.0 GiB of memory, more than the budget"):
            require_within_budget(MEMORY_BUDGET + 1, "a request")

    def test_the_budget_message_gives_the_request_in_tenths_of_a_gib(self):
        with pytest.raises(DomainError, match=r"^a run needs about 5\.7 GiB of memory, more than the budget of 2 GiB$"):
            require_within_budget(5 * 2**30 + 3 * 2**29 // 2, "a run")


#: Calls whose true result no double holds: a quotient over a thermal
#: denominator that underflows to 0, a positive result that underflows to 0,
#: log-gamma values and unit conversions that overflow.
_OUT_OF_RANGE = {
    "occupation-denominator": lambda: twolevel.occupation_at(1, 5e-324, 1.0),
    "simulation-denominator": lambda: mcsim.simulate_transfer(10, 1.0, 5e-324, 1e-21, 10, 0),
    "computing-rate-denominator": lambda: bounds.max_computing_rate(1.0, 5e-324),
    "transmitter-denominator": lambda: broadcast.transmitter_temperature(1.0, 5e-324),
    "range-denominator": lambda: broadcast.max_range(broadcast.LinkBudget(1.0, 1.0, 1.0, noise_temperature=5e-324)),
    "effective-temperature-denominator": lambda: fileinfo.effective_temperature(1.0, 5e-324),
    "range-underflow": lambda: broadcast.max_range(broadcast.LinkBudget(5e-324, 1e-300, 5e-324, 1.0)),
    "transmitter-underflow": lambda: broadcast.transmitter_temperature(5e-324, 1e300),
    "receiver-underflow": lambda: broadcast.receiver_temperature(1e-300, 1e-300, 1.0),
    "information-underflow": lambda: broadcast.max_broadcast_information(5e-324, 1e10, 1e-150, 5e-324),
    "bit-energy-underflow": lambda: broadcast.equivalent_bit_energy(5e-324, 1e300),
    "power-underflow": lambda: broadcast.equivalent_power(5e-324, 1e-300),
    "received-bit-energy-underflow": lambda: broadcast.LinkBudget(5e-324, 1e300, 1.0).received_bit_energy(1.0),
    "multiplicity-lgamma": lambda: twolevel.multiplicity_ln(int(3e305), 5),
    "multiplicity-lgamma-full": lambda: twolevel.multiplicity_ln(int(1e308), int(1e308)),
    "nats-to-bits": lambda: quantities.convert_information(1.5e308, "bits"),
    "si-to-nats": lambda: quantities.entropy_si_to_nats(1e286),
}


@pytest.mark.parametrize("call", _OUT_OF_RANGE.values(), ids=list(_OUT_OF_RANGE))
def test_a_result_out_of_range_raises_domain_error(call):
    # Each raised ZeroDivisionError or OverflowError, or returned 0.0 or inf.
    with pytest.raises(DomainError, match="overflows|underflows to 0"):
        call()
