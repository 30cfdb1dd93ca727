import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infotherm import fileinfo
from infotherm.errors import (
    DomainError,
    EmptyFileError,
    SampleSizeError,
    UndefinedTemperatureError,
)

BOLTZMANN = 1.380649e-23  # independent copy for oracle arithmetic
MEGABYTE = 1 << 20
_MIN_SAMPLES_PER_STATE = 10  # independent copy of the sample-size rule


def _entropy_from_counts(counts: np.ndarray, n_blocks: int, block_bits: int) -> float:
    """The block-entropy float from int64 window counts in increasing code order."""
    probs = counts[counts > 0] / n_blocks
    return float(-(probs * np.log(probs)).sum() / block_bits)


def enumerated_block_entropy(data: bytes, block_bits: int) -> float:
    """Oracle: count every MSB-first bit window as a string."""
    bits = "".join(f"{byte:08b}" for byte in data)
    n_blocks = len(bits) - block_bits + 1
    windows = Counter(int(bits[t : t + block_bits], 2) for t in range(n_blocks))
    counts = np.array([windows[code] for code in sorted(windows)], dtype=np.int64)
    return _entropy_from_counts(counts, n_blocks, block_bits)


def shift_or_block_entropy(data: bytes, block_bits: int) -> float:
    """Oracle: the original formula, one k-pass shift-or over unpacked bits."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    n_blocks = bits.size - block_bits + 1
    codes = np.zeros(n_blocks, dtype=np.int64)
    for j in range(block_bits):
        codes <<= 1
        codes |= bits[j : j + n_blocks]
    counts = np.bincount(codes, minlength=1 << block_bits)
    return _entropy_from_counts(counts, n_blocks, block_bits)


#: block_entropy's traced peak at k = 8, 9, 12, 13, 15 and 16 (1.3, 1.1, 1.3, 1.6, 1.6
#: and 2.1 MiB measured), whatever the input length; k = 16 has a bound of its own.
_PEAK_BOUND = 3 * MEGABYTE
_PEAK_BOUND_AT = {16: 2.2 * MEGABYTE}


def _block_entropy_peak(data: bytes, block_bits: int) -> int:
    tracemalloc.start()
    try:
        fileinfo.block_entropy(data, block_bits)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_SHORT_RNG = np.random.default_rng(1996)
_SHORT_BYTES = 5200  # enough bits for k = 12
SHORT_INPUTS = {
    "random": _SHORT_RNG.bytes(_SHORT_BYTES),
    "sym4": _SHORT_RNG.choice(np.array([0x00, 0x3C, 0xA5, 0xFF], dtype=np.uint8), size=_SHORT_BYTES).tobytes(),
    "ones10": np.packbits(_SHORT_RNG.random(8 * _SHORT_BYTES) < 0.1).tobytes(),
    "periodic": b"\x96\x01" * (_SHORT_BYTES // 2),
}


class TestCounts:
    def test_all_zero_byte(self):
        assert fileinfo.analyze_counts(b"\x00", 1e-20) == (8, 0, 0.0)

    def test_all_one_byte(self):
        length, ones, energy = fileinfo.analyze_counts(b"\xff", 1e-20)
        assert (length, ones) == (8, 8)
        assert energy == pytest.approx(8e-20, rel=1e-15)

    def test_manual_popcount(self):
        length, ones, energy = fileinfo.analyze_counts(b"\xf0\x0f", 2e-20)
        assert (length, ones) == (16, 8)
        assert energy == pytest.approx(1.6e-19, rel=1e-15)

    def test_ones_count_at_every_short_length(self):
        # Lengths 1..40 reach every count of whole 8-byte words up to five
        # with every tail of 0..7 bytes.
        data = np.random.default_rng(4040).bytes(40)
        for n in range(1, 41):
            assert fileinfo.analyze_counts(data[:n], 1e-21)[1] == int.from_bytes(data[:n], "big").bit_count(), n

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_ones_count_equals_the_integer_popcount(self, data):
        assert fileinfo.analyze_counts(data, 1e-21)[1] == int.from_bytes(data, "big").bit_count()

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyFileError):
            fileinfo.analyze_counts(b"", 1e-20)

    def test_nonpositive_bit_energy_rejected(self):
        with pytest.raises(DomainError):
            fileinfo.analyze_counts(b"\x01", 0.0)

    @pytest.mark.parametrize("bit_energy", [math.inf, math.nan])
    def test_nonfinite_bit_energy_rejected(self, bit_energy):
        with pytest.raises(DomainError):
            fileinfo.analyze_counts(b"a", bit_energy)

    def test_overflowing_energy_rejected(self):
        with pytest.raises(DomainError, match="overflows"):
            fileinfo.analyze_counts(b"\xff", 1e308)


class TestMaxInformation:
    def test_one_byte_is_eight_bits(self):
        assert fileinfo.max_information(8) == pytest.approx(8 * math.log(2), rel=1e-15)

    def test_single_bit(self):
        assert fileinfo.max_information(1) == math.log(2)

    def test_a_million_bits(self):
        assert fileinfo.max_information(10**6) == pytest.approx(693147.1805599453, rel=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(EmptyFileError):
            fileinfo.max_information(0)


class TestFileTemperature:
    def test_reference_bit_energy(self):
        oracle = 1e-20 / (2 * BOLTZMANN * math.log(2))
        assert fileinfo.file_temperature(1e-20) == pytest.approx(oracle, rel=1e-14)
        assert fileinfo.file_temperature(1e-20) == pytest.approx(522.4698822397885, rel=1e-12)

    def test_linear_in_bit_energy(self):
        assert fileinfo.file_temperature(2e-20) == pytest.approx(
            2 * fileinfo.file_temperature(1e-20), rel=1e-15
        )

    def test_electron_volt_scale(self):
        assert fileinfo.file_temperature(1.602e-19) == pytest.approx(8369.967513481411, rel=1e-12)

    def test_algebraic_identity(self):
        bit_energy = 3.7e-21
        assert fileinfo.file_temperature(bit_energy) * 2 * BOLTZMANN * math.log(2) == pytest.approx(
            bit_energy, rel=1e-14
        )

    @pytest.mark.parametrize("bit_energy", [math.inf, math.nan])
    def test_nonfinite_rejected(self, bit_energy):
        with pytest.raises(DomainError):
            fileinfo.file_temperature(bit_energy)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fileinfo.file_temperature(-1e-20)

    def test_overflowing_temperature_rejected(self):
        assert math.isfinite(fileinfo.file_temperature(3e285))
        with pytest.raises(DomainError, match="overflows"):
            fileinfo.file_temperature(4e285)


class TestOrderZeroEntropy:
    def test_degenerate_inputs_are_zero(self):
        assert fileinfo.shannon_entropy_order0(b"\x00" * 100) == 0.0
        assert fileinfo.shannon_entropy_order0(b"\xff" * 100) == 0.0

    def test_balanced_input_is_ln_two_per_bit(self):
        assert fileinfo.shannon_entropy_order0(b"\xaa" * 100) == pytest.approx(math.log(2), rel=1e-15)

    def test_quarter_ones(self):
        # 0x11 has 2 of 8 bits set.
        value = fileinfo.shannon_entropy_order0(b"\x11" * 64)
        oracle = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(0.5623351446188084, rel=1e-12)

    @given(st.binary(min_size=1, max_size=512), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_invariant_under_bit_permutation(self, data, seed):
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        np.random.default_rng(seed).shuffle(bits)
        shuffled = np.packbits(bits).tobytes()
        assert fileinfo.shannon_entropy_order0(shuffled) == fileinfo.shannon_entropy_order0(data)


class TestBlockEntropy:
    def test_alternating_bits_at_block_two(self):
        # Only "01" and "10" windows ever occur: half the possible states.
        value = fileinfo.block_entropy(b"\x55" * 100, 2)
        assert value <= math.log(2) / 2
        assert value == pytest.approx(math.log(2) / 2, rel=1e-3)

    def test_constant_input_is_zero(self):
        for k in (1, 2, 5):
            assert fileinfo.block_entropy(b"\x00" * 4096, k) == 0.0

    def test_random_megabyte_is_near_ln_two(self, random_megabyte):
        value = fileinfo.block_entropy(random_megabyte, 8)
        assert abs(value - math.log(2)) / math.log(2) < 0.02

    def test_bit_order_is_msb_first(self):
        # 0xE0 then zero bytes: MSB-first the 3-bit windows are one each of
        # 111, 110, 100 and then all-zero; LSB-first unpacking would instead
        # produce 001/011/111/110/100 and a different distribution.
        data = b"\xe0" + b"\x00" * 9
        n_blocks = 80 - 3 + 1
        counts = {0b111: 1, 0b110: 1, 0b100: 1, 0: n_blocks - 3}
        oracle = -sum(
            (c / n_blocks) * math.log(c / n_blocks) for c in counts.values()
        ) / 3
        assert fileinfo.block_entropy(data, 3) == pytest.approx(oracle, rel=1e-12)

    def test_sample_size_guard_names_the_minimum(self):
        with pytest.raises(SampleSizeError, match="2560 bits"):
            fileinfo.block_entropy(b"\x00" * 100, 8)

    def test_sample_size_guard_names_the_bytes_rounded_up(self):
        message = r"^block entropy with k=1 needs at least 20 bits \(3 bytes\), got 8$"
        with pytest.raises(SampleSizeError, match=message):
            fileinfo.block_entropy(b"\x00", 1)

    @pytest.mark.parametrize("k", [0, 25, -3])
    def test_block_size_bounds(self, k):
        with pytest.raises(DomainError):
            fileinfo.block_entropy(b"\x00" * 4096, k)

    @pytest.mark.parametrize("name", sorted(SHORT_INPUTS))
    def test_equals_enumeration_for_every_small_k(self, name):
        data = SHORT_INPUTS[name]
        for k in range(1, 13):
            assert fileinfo.block_entropy(data, k) == enumerated_block_entropy(data, k), k

    def test_equals_shift_or_formula_at_k_twenty(self):
        data = np.random.default_rng(2020).bytes(1_320_000)  # >= 10 * 2^20 bits
        assert fileinfo.block_entropy(data, 20) == shift_or_block_entropy(data, 20)

    @pytest.mark.parametrize("k", range(1, 19))
    def test_equals_shift_or_formula_at_every_end_of_input(self, k):
        # Lengths just above the minimum, with every group size and with
        # single offsets past 16 bits: the k - 1 windows that run into the
        # padding are subtracted at each of these ends.
        need = -(-_MIN_SAMPLES_PER_STATE * (1 << k) // 8)
        data = np.random.default_rng(1600 + k).bytes(need + 7)
        for extra in (0, 1, 2, 3, 7):
            assert fileinfo.block_entropy(data[: need + extra], k) == shift_or_block_entropy(data[: need + extra], k), extra

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 12, 13, 14, 15, 16, 17])
    def test_equals_shift_or_formula_at_the_piece_edges(self, k):
        # The words are read in pieces; a length just around a piece boundary
        # moves the last word of one piece, and the padding, across it. The
        # first boundary taken is the first past the sample-size minimum.
        piece = fileinfo._PIECE_BYTES
        need = -(-_MIN_SAMPLES_PER_STATE * (1 << k) // 8)
        edge = piece * max(1, -(-(need + 1) // piece))
        data = np.random.default_rng(1800 + k).bytes(edge + piece + 5)
        for n in (edge - 1, edge, edge + 1, edge + 2, edge + 3, edge + piece + 5):
            assert fileinfo.block_entropy(data[:n], k) == shift_or_block_entropy(data[:n], k), n

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=64),
        st.sampled_from([0.5, 0.1, 0.01]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_shift_or_formula_over_length_and_k(self, k, extra, ones_fraction, seed):
        need = -(-_MIN_SAMPLES_PER_STATE * (1 << k) // 8)
        bits = np.random.default_rng(seed).random(8 * (need + extra)) < ones_fraction
        data = np.packbits(bits).tobytes()
        assert fileinfo.block_entropy(data, k) == shift_or_block_entropy(data, k)

    @pytest.mark.parametrize("k", [8, 9, 12, 13, 15, 16])
    def test_peak_memory_per_input_byte(self, random_megabyte, k):
        # One piece's words and codes (0.75 MiB) and the field histogram, or
        # the histogram, its fold and the entropy's temporaries: 1.1-2.1 MiB measured.
        assert _block_entropy_peak(random_megabyte, k) <= _PEAK_BOUND_AT.get(k, _PEAK_BOUND)

    @pytest.mark.parametrize("k", [8, 9, 12, 13, 15, 16])
    def test_peak_memory_does_not_grow_with_the_input(self, random_megabyte, k):
        sixteen = np.random.default_rng(1616).bytes(16 * MEGABYTE)
        peak = _block_entropy_peak(sixteen, k)
        assert peak <= _PEAK_BOUND_AT.get(k, _PEAK_BOUND)
        assert abs(peak - _block_entropy_peak(random_megabyte, k)) <= 0.25 * MEGABYTE

    @pytest.mark.parametrize("k", range(1, 25))
    def test_counting_calls_per_piece(self, monkeypatch, k):
        # Offsets are counted g at a time in one (k+g-1)-bit field: g = 8 up to k = 8, 4 up to 13, 2 up to
        # 16, then 1. A field of 16 bits or more is counted in place by np.add.at, a narrower one by bincount.
        group = 8 if k <= 8 else 4 if k <= 13 else 2 if k <= 16 else 1
        width = k + group - 1
        calls = []
        bincount, add = np.bincount, np.add

        class AddSpy:
            @staticmethod
            def at(counts, codes, value):
                calls.append(("add.at", counts.size, codes.size))
                add.at(counts, codes, value)

        def bincount_spy(codes, minlength=0):
            calls.append(("bincount", minlength, codes.size))
            return bincount(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", bincount_spy)
        monkeypatch.setattr(np, "add", AddSpy)
        monkeypatch.setattr(fileinfo, "_MIN_SAMPLES_PER_STATE", 0)  # two zero pieces at any k
        piece = fileinfo._PIECE_BYTES
        fileinfo.block_entropy(bytes(2 * piece), k)
        call = "add.at" if width >= 16 else "bincount"
        assert calls == [(call, 1 << width, piece)] * (2 * 8 // group)


class TestCompressionInformation:
    def test_constant_bits_collapse(self, zeros_megabyte):
        info = fileinfo.compression_information(zeros_megabyte)
        assert info < 0.01 * fileinfo.max_information(8 * MEGABYTE)

    def test_random_bits_are_incompressible(self, random_megabyte):
        info = fileinfo.compression_information(random_megabyte)
        ratio = info / fileinfo.max_information(8 * MEGABYTE)
        assert 0.98 <= ratio <= 1.05

    def test_ordered_file_compresses_effectively(self, sorted_megabyte):
        info = fileinfo.compression_information(sorted_megabyte)
        assert info < 0.05 * fileinfo.max_information(8 * MEGABYTE)

    def test_equal_ones_count_does_not_fix_information(self, sorted_megabyte, periodic_megabyte, balanced_random_megabyte):
        # Identical energy (ones count), wildly different information.
        trio = (sorted_megabyte, periodic_megabyte, balanced_random_megabyte)
        ones = {fileinfo.analyze_counts(data, 1e-20)[1] for data in trio}
        assert ones == {4 * MEGABYTE}
        infos = [fileinfo.compression_information(data) for data in trio]
        assert infos[0] < 0.05 * fileinfo.max_information(8 * MEGABYTE)
        assert infos[2] > 0.98 * fileinfo.max_information(8 * MEGABYTE)


class TestEffectiveTemperature:
    def test_direct_evaluation(self):
        oracle = 5e-15 / (BOLTZMANN * 693147.0)
        assert fileinfo.effective_temperature(5e-15, 693147.0) == pytest.approx(oracle, rel=1e-14)
        assert fileinfo.effective_temperature(5e-15, 693147.0) == pytest.approx(522.4700183395383, rel=1e-9)

    def test_random_file_recovers_file_temperature(self):
        length, bit_energy = 10**6, 1e-20
        t_eff = fileinfo.effective_temperature(length * bit_energy / 2, length * math.log(2))
        assert t_eff == pytest.approx(fileinfo.file_temperature(bit_energy), rel=1e-12)

    def test_halving_information_doubles_temperature(self):
        assert fileinfo.effective_temperature(1e-15, 1000.0) == pytest.approx(
            2 * fileinfo.effective_temperature(1e-15, 2000.0), rel=1e-15
        )

    def test_energy_without_information_is_the_infinite_sentinel(self):
        assert fileinfo.effective_temperature(1e-20, 0.0) == math.inf

    def test_zero_over_zero_is_undefined(self):
        with pytest.raises(UndefinedTemperatureError):
            fileinfo.effective_temperature(0.0, 0.0)

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            fileinfo.effective_temperature(-1.0, 1.0)
        with pytest.raises(DomainError):
            fileinfo.effective_temperature(1.0, -1.0)

    @pytest.mark.parametrize("energy,info", [(math.inf, math.inf), (math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_arguments_rejected(self, energy, info):
        # inf / inf once returned nan.
        with pytest.raises(DomainError):
            fileinfo.effective_temperature(energy, info)

    def test_nan_arguments_rejected(self):
        with pytest.raises(DomainError):
            fileinfo.effective_temperature(math.nan, 1.0)
        with pytest.raises(DomainError):
            fileinfo.effective_temperature(1.0, math.nan)


class TestEquilibriumScore:
    def test_random_megabyte_is_equilibrium(self, random_megabyte):
        assert fileinfo.equilibrium_score(random_megabyte) >= 0.95

    def test_constant_megabyte_is_far_from_equilibrium(self, zeros_megabyte):
        assert fileinfo.equilibrium_score(zeros_megabyte) <= 0.01

    def test_compressed_output_is_near_equilibrium(self, random_megabyte):
        from infotherm import lz

        assert fileinfo.equilibrium_score(lz.compress(random_megabyte)) >= 0.95

    @given(st.binary(min_size=1, max_size=8192))
    @settings(max_examples=150)
    def test_always_in_unit_interval(self, data):
        assert 0.0 <= fileinfo.equilibrium_score(data) <= 1.0


class TestReport:
    def test_field_consistency(self, random_megabyte):
        report = fileinfo.analyze(random_megabyte, 1e-20)
        assert report.bit_length == 8 * MEGABYTE
        assert report.energy == report.ones_count * report.bit_energy
        assert report.info_max == pytest.approx(8 * MEGABYTE * math.log(2), rel=1e-12)
        assert 0.0 <= report.equilibrium_score <= 1.0
        assert report.is_equilibrium
        assert report.effective_temperature == pytest.approx(
            report.energy / (BOLTZMANN * report.info_compression), rel=1e-12
        )

    def test_a_score_of_exactly_the_threshold_is_equilibrium(self):
        report = fileinfo.analyze(b"\x00" * 64, 1e-20)
        assert dataclasses.replace(report, equilibrium_score=0.95).is_equilibrium
        assert not dataclasses.replace(report, equilibrium_score=0.9499999999999998).is_equilibrium

    def test_estimator_hierarchy_on_corpus(
        self, zeros_megabyte, sorted_megabyte, periodic_megabyte, balanced_random_megabyte
    ):
        # Totals: order-0 >= block-k, and block-k >= compression minus the
        # coder's documented 5% overhead allowance. Holds on this corpus, not
        # claimed universally.
        for data in (zeros_megabyte, sorted_megabyte, periodic_megabyte, balanced_random_megabyte):
            report = fileinfo.analyze(data, 1e-20)
            allowance = 0.05 * report.info_max
            assert report.info_order0 + 1e-6 * report.info_max >= report.info_block_k
            assert report.info_block_k >= report.info_compression - allowance

    def test_coder_runs_once_and_score_matches_the_standalone_score(self, monkeypatch):
        from infotherm import lz

        calls = []
        coder = lz.compressed_size_bits
        monkeypatch.setattr(lz, "compressed_size_bits", lambda data: calls.append(1) or coder(data))
        for data in (b"\x00" * 4096, bytes(range(256)) * 16, b"\xa7"):
            calls.clear()
            report = fileinfo.analyze(data, 1e-20)
            assert len(calls) == 1
            assert report.equilibrium_score == fileinfo.equilibrium_score(data)

    @given(st.binary(min_size=1, max_size=512))
    @settings(max_examples=100)
    def test_order0_total_matches_the_standalone_entropy(self, data):
        # analyze reuses its ones count; the float arithmetic must not change.
        report = fileinfo.analyze(data, 1e-20)
        assert report.info_order0 == fileinfo.shannon_entropy_order0(data) * report.bit_length

    def test_block_entropy_falls_back_for_short_input(self):
        report = fileinfo.analyze(b"\xa7\x00\xff", 1e-20)  # 24 bits: only k=1 feasible
        assert report.info_block_k is not None

    @pytest.mark.parametrize("block_bits", [1, 3, 8, 24])
    def test_block_size_is_the_largest_with_ten_samples_per_state(self, block_bits):
        for size in range(1, 90):
            data = bytes(range(size))
            k = block_bits  # the reference: count down to the first feasible size
            while k >= 1 and 8 * size < 10 * (1 << k):
                k -= 1
            expected = fileinfo.block_entropy(data, k) * 8 * size if k >= 1 else None
            assert fileinfo.analyze(data, 1e-20, block_bits).info_block_k == expected, size

    def test_block_entropy_omitted_for_tiny_input(self):
        report = fileinfo.analyze(b"\xa7", 1e-20)  # 8 bits: even k=1 needs 20
        assert report.info_block_k is None

    @pytest.mark.parametrize("block_bits", [0, 25, -1])
    def test_report_rejects_bad_block_sizes(self, block_bits):
        with pytest.raises(DomainError):
            fileinfo.analyze(b"\x00" * 4096, 1e-20, block_bits)

    def test_all_zero_file_is_cold_and_ordered(self, zeros_megabyte):
        report = fileinfo.analyze(zeros_megabyte, 1e-20)
        assert report.energy == 0.0
        assert report.effective_temperature == 0.0
        assert report.info_order0 == 0.0
        assert not report.is_equilibrium
