import contextlib
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from infotherm import mcsim, twolevel
from infotherm.errors import STEP_BUDGET, DomainError, InvalidDistributionError
from infotherm.mcsim import (
    ConfigDistribution,
    Configuration,
    ensemble_summary,
    h_function,
    run_ensemble,
    sample_canonical,
    sample_equilibrium,
    simulate_transfer,
)

BOLTZMANN = 1.380649e-23  # independent copy for oracle arithmetic
BIT_ENERGY = 1e-20
#: Temperature at which the Boltzmann factor is exactly 1/2.
T_HALF = BIT_ENERGY / (BOLTZMANN * math.log(2))


def naive_metropolis(length, t_hot, t_cold, bit_energy, steps, seed):
    """Oracle: plain sequential single-site-flip Metropolis, same RNG protocol."""
    rng = np.random.default_rng(seed)
    x_hot = bit_energy / (BOLTZMANN * t_hot)
    prob_hot = math.exp(-x_hot) / (1 + math.exp(-x_hot))
    state = [bool(v) for v in rng.random(length) < prob_hot]
    p_initial = sum(state)
    if steps:
        sites = rng.integers(0, length, size=steps)
        draws = rng.random(steps)
        alpha = math.exp(-bit_energy / (BOLTZMANN * t_cold))
        for site, draw in zip(sites, draws):
            if state[site]:
                state[site] = False
            elif draw < alpha:
                state[site] = True
    return p_initial, sum(state)


def reference_relax_final_state(initial, sites, accepts, length):
    """Oracle: the earlier per-site fold, kept verbatim as a test-local copy.

    It replays every site's hits in temporal order through two
    (length x max_hits) grids.
    """
    steps = len(sites)
    state = initial.astype(bool)
    if steps == 0:
        return state
    order = np.argsort(sites, kind="stable")
    sorted_sites = sites[order]
    sorted_accepts = accepts[order]
    counts = np.bincount(sites, minlength=length)
    max_hits = int(counts.max())
    starts = np.zeros(length, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    hit_index = np.arange(steps, dtype=np.int64) - starts[sorted_sites]

    accept_grid = np.zeros((length, max_hits), dtype=bool)
    hit_grid = np.zeros((length, max_hits), dtype=bool)
    accept_grid[sorted_sites, hit_index] = sorted_accepts
    hit_grid[sorted_sites, hit_index] = True

    for j in range(max_hits):
        hit = hit_grid[:, j]
        state = np.where(hit, accept_grid[:, j] & ~state, state)
    return state


def apply_chunk_map(initial, sites, accepts, length):
    """The state after one chunk of steps: its map applied to ``initial``."""
    kept, flips = mcsim._chunk_map(sites, accepts, length)
    return (initial & kept) ^ flips


def single_shot_relax(length, prob_hot, accept_probability, steps, seed):
    """Oracle: the earlier draw-and-relax path, kept as a test-local copy.

    It holds every draw of the run at once: int64 sites, float64 acceptance
    draws and the kernel's index arrays, relaxed as one chunk.
    """
    rng = np.random.default_rng(seed)
    initial = rng.random(length) < prob_hot

    sites = rng.integers(0, length, size=steps)
    accepts = rng.random(steps) < accept_probability
    final = apply_chunk_map(initial, sites, accepts, length)
    return initial, final


@contextlib.contextmanager
def traced():
    """Trace allocations in the block; the yielded list receives the peak in bytes."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def uniform_distribution(length, ones):
    """Oracle: explicit uniform distribution over every arrangement."""
    configs = []
    for positions in combinations(range(length), ones):
        bits = bytearray(length)
        for position in positions:
            bits[position] = 1
        configs.append(Configuration(bytes(bits)))
    probability = 1.0 / len(configs)
    return ConfigDistribution(tuple((c, probability) for c in configs)), len(configs)


class TestConfiguration:
    def test_bits_must_be_binary(self):
        with pytest.raises(DomainError):
            Configuration(b"\x00\x02")

    def test_ones_count_and_length(self):
        config = Configuration(bytes([1, 0, 1, 1, 0]))
        assert len(config) == 5
        assert config.ones_count() == 3


class TestSampleEquilibrium:
    def test_empty_occupation_is_the_unique_microstate(self):
        assert sample_equilibrium(12, 0, 99).bits == bytes(12)

    def test_full_occupation_is_the_unique_microstate(self):
        assert sample_equilibrium(12, 12, 99).bits == bytes([1] * 12)

    def test_preserves_the_ones_count(self):
        for seed in range(25):
            assert sample_equilibrium(50, 21, seed).ones_count() == 21

    def test_identical_seeds_give_identical_configurations(self):
        assert sample_equilibrium(100, 40, 7) == sample_equilibrium(100, 40, 7)
        assert sample_equilibrium(100, 40, 7) != sample_equilibrium(100, 40, 8)

    def test_uniform_over_all_arrangements_by_chi_squared(self):
        index = {positions: i for i, positions in enumerate(combinations(range(6), 2))}
        counts = np.zeros(15, dtype=int)
        for draw in range(10**5):
            config = sample_equilibrium(6, 2, 2026 * 10**6 + draw)
            positions = tuple(i for i, bit in enumerate(config.bits) if bit)
            counts[index[positions]] += 1
        assert counts.sum() == 10**5
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_out_of_range_occupation_rejected(self):
        with pytest.raises(DomainError):
            sample_equilibrium(10, 11, 0)

    def test_huge_length_is_rejected_before_allocating(self):
        with traced() as peak, pytest.raises(DomainError, match="budget"):
            sample_equilibrium(10**12, 5, 0)
        assert peak[0] < 2**20


class TestSampleCanonical:
    def test_deep_cold_is_all_zeros(self):
        assert sample_canonical(10**4, 1e-9, BIT_ENERGY, 5).ones_count() == 0

    def test_site_probability_one_third_case(self):
        config = sample_canonical(10**6, T_HALF, BIT_ENERGY, 8675309)
        mean = config.ones_count() / 10**6
        assert 0.3323 <= mean <= 0.3343

    def test_identical_seeds_give_identical_configurations(self):
        assert sample_canonical(500, 1000.0, BIT_ENERGY, 3) == sample_canonical(500, 1000.0, BIT_ENERGY, 3)

    def test_mean_occupancy_matches_the_occupation_law(self):
        length, temperature = 2000, 800.0
        expected = twolevel.occupation_at(length, temperature, BIT_ENERGY)
        draws = np.array(
            [sample_canonical(length, temperature, BIT_ENERGY, seed).ones_count() for seed in range(200)],
            dtype=float,
        )
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - expected) < 4 * se

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            sample_canonical(10, 0.0, BIT_ENERGY, 0)

    def test_huge_length_is_rejected_before_allocating(self):
        with traced() as peak, pytest.raises(DomainError, match="budget"):
            sample_canonical(10**12, 300.0, BIT_ENERGY, 0)
        assert peak[0] < 2**20


class TestHFunction:
    def test_uniform_matches_the_multiplicity(self):
        dist, size = uniform_distribution(6, 2)
        assert size == 15
        assert h_function(dist) == pytest.approx(math.log(15), rel=1e-13)
        assert h_function(dist) == pytest.approx(twolevel.multiplicity_ln(6, 2), rel=1e-13)

    @pytest.mark.parametrize("length,ones", [(4, 1), (5, 2), (6, 3), (7, 2)])
    def test_uniform_matches_multiplicity_for_small_systems(self, length, ones):
        dist, _ = uniform_distribution(length, ones)
        assert h_function(dist) == pytest.approx(twolevel.multiplicity_ln(length, ones), rel=1e-12)

    def test_point_mass_carries_no_uncertainty(self):
        dist = ConfigDistribution(((Configuration(b"\x01\x00"), 1.0),))
        assert h_function(dist) == 0.0

    def test_biased_two_state_distribution(self):
        dist = ConfigDistribution(
            ((Configuration(b"\x00"), 0.9), (Configuration(b"\x01"), 0.1))
        )
        oracle = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert h_function(dist) == pytest.approx(oracle, rel=1e-14)
        assert h_function(dist) == pytest.approx(0.32508297339144824, rel=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_never_exceeds_log_support_size(self, seed, size):
        rng = np.random.default_rng(seed)
        weights = rng.random(size) + 1e-9
        probs = weights / weights.sum()
        configs = [Configuration(bytes(f"{i:08b}", "ascii").replace(b"0", b"\x00").replace(b"1", b"\x01")) for i in range(size)]
        dist = ConfigDistribution(tuple(zip(configs, probs.tolist())))
        assert h_function(dist) <= math.log(size) + 1e-12

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            ConfigDistribution(((Configuration(b"\x00"), 0.5), (Configuration(b"\x01"), 0.4)))

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistributionError):
            ConfigDistribution(((Configuration(b"\x00"), 1.2), (Configuration(b"\x01"), -0.2)))

    @pytest.mark.parametrize("prob", [math.nan, None, "0.5", math.inf])
    def test_a_probability_that_is_no_finite_number_is_a_domain_error(self, prob):
        with pytest.raises(DomainError):
            ConfigDistribution(((Configuration(b"\x00"), 0.5), (Configuration(b"\x01"), prob)))

    def test_duplicate_configurations_rejected(self):
        with pytest.raises(InvalidDistributionError):
            ConfigDistribution(((Configuration(b"\x00"), 0.5), (Configuration(b"\x00"), 0.5)))


class TestSimulateTransfer:
    @pytest.mark.parametrize(
        "length,steps,seed",
        [(20, 0, 0), (20, 1, 1), (50, 333, 2), (100, 2500, 3), (400, 20000, 4), (1000, 50000, 5)],
    )
    def test_matches_the_naive_sequential_oracle(self, length, steps, seed):
        ledger = simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seed)
        p_initial, p_final = naive_metropolis(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seed)
        assert ledger.p_initial == p_initial
        assert ledger.p_final == p_final

    def test_energy_conservation_is_exact(self):
        for seed in range(20):
            ledger = simulate_transfer(300, 2 * T_HALF, T_HALF, BIT_ENERGY, 10**4, seed)
            assert ledger.energy_initial - ledger.energy_final == ledger.heat_to_cold
            assert ledger.energy_initial == ledger.p_initial * BIT_ENERGY
            assert ledger.energy_final == ledger.p_final * BIT_ENERGY

    def test_identical_seeds_give_bit_identical_ledgers(self):
        first = simulate_transfer(500, 2 * T_HALF, T_HALF, BIT_ENERGY, 10**5, 77)
        second = simulate_transfer(500, 2 * T_HALF, T_HALF, BIT_ENERGY, 10**5, 77)
        assert first == second

    def test_zero_steps_returns_the_prepared_state(self):
        ledger = simulate_transfer(500, 2 * T_HALF, T_HALF, BIT_ENERGY, 0, 9)
        assert ledger.p_initial == ledger.p_final
        assert ledger.heat_to_cold == 0.0
        assert ledger.entropy_cold_bath == 0.0
        assert ledger.entropy_gas_change == 0.0
        assert ledger.total_entropy_change == 0.0

    def test_ledger_component_formulas(self):
        ledger = simulate_transfer(400, 2 * T_HALF, T_HALF, BIT_ENERGY, 10**4, 123)
        assert ledger.entropy_hot_bath == pytest.approx(-ledger.energy_initial / ledger.t_hot, rel=1e-14)
        assert ledger.entropy_cold_bath == pytest.approx(ledger.heat_to_cold / ledger.t_cold, rel=1e-14)
        gas = BOLTZMANN * (
            twolevel.multiplicity_ln(400, ledger.p_final) - twolevel.multiplicity_ln(400, ledger.p_initial)
        )
        assert ledger.entropy_gas_change == pytest.approx(gas, rel=1e-12)
        assert ledger.total_entropy_change == pytest.approx(
            ledger.entropy_cold_bath + ledger.entropy_gas_change, rel=1e-14
        )
        expected_full = twolevel.transfer_entropy_delta(
            400, ledger.p_initial, ledger.p_final, BIT_ENERGY
        ).delta_s_occupation
        assert ledger.entropy_full_transfer == pytest.approx(expected_full, rel=1e-12)

    def test_relaxes_to_the_cold_occupation_law(self):
        length, steps = 200, 3 * 10**4
        expected = twolevel.occupation_at(length, T_HALF, BIT_ENERGY)
        finals = np.array(
            [simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seed).p_final for seed in range(60)],
            dtype=float,
        )
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - expected) < 4 * se

    def test_near_equilibrium_null_case_produces_no_entropy(self):
        ledgers = run_ensemble(500, T_HALF, 0.999 * T_HALF, BIT_ENERGY, 5 * 10**4, range(100))
        totals = np.array([led.total_entropy_change for led in ledgers])
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean()) < 3 * se

    def test_ensemble_mean_entropy_production_is_positive(self):
        ledgers = run_ensemble(500, 2 * T_HALF, T_HALF, BIT_ENERGY, 5 * 10**4, range(100))
        totals = np.array([led.total_entropy_change for led in ledgers])
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert totals.mean() > 0
        assert totals.mean() > 5 * se
        assert totals.min() > totals.mean() - 4 * totals.std(ddof=1) - 1e-30

    def test_temperature_ordering_enforced(self):
        with pytest.raises(DomainError):
            simulate_transfer(100, T_HALF, T_HALF, BIT_ENERGY, 10, 0)
        with pytest.raises(DomainError):
            simulate_transfer(100, T_HALF, 2 * T_HALF, BIT_ENERGY, 10, 0)

    def test_negative_steps_rejected(self):
        with pytest.raises(DomainError):
            simulate_transfer(100, 2 * T_HALF, T_HALF, BIT_ENERGY, -5, 0)


class TestRelaxationKernel:
    """The closed-form kernel must reproduce the replay fold exactly."""

    @given(
        length=st.integers(min_value=1, max_value=64),
        steps=st.integers(min_value=0, max_value=3000),
        accept_probability=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_replay_fold(self, length, steps, accept_probability, seed):
        # All-reject and all-accept draws cannot come out of simulate_transfer,
        # but they drive the rule's two branches on their own.
        rng = np.random.default_rng(seed)
        initial = rng.random(length) < 0.5
        sites = rng.integers(0, length, size=steps)
        accepts = rng.random(steps) < accept_probability
        final = apply_chunk_map(initial, sites, accepts, length)
        expected = reference_relax_final_state(initial, sites, accepts, length)
        assert final.dtype == expected.dtype
        assert np.array_equal(final, expected)

    @pytest.mark.parametrize(
        "length,steps,seed,p_initial,p_final",
        [
            (1, 0, 0, 0, 0),
            (1, 50, 1, 0, 0),
            (64, 3000, 2, 25, 22),
            (1000, 10**5, 3, 415, 325),
            (15000, 1_500_000, 4, 6241, 4923),
            (200, 200, 2**64 - 1, 84, 87),
        ],
    )
    def test_pinned_occupations(self, length, steps, seed, p_initial, p_final):
        # Recorded with the replay fold; the RNG protocol is unchanged.
        ledger = simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seed)
        assert (ledger.p_initial, ledger.p_final) == (p_initial, p_final)

    def test_finite_step_mean_is_exact(self):
        # At steps = L the gas is far from the cold occupation law, so only
        # the exact finite-step mean fits.
        length, steps, t_hot = 200, 200, 8 * T_HALF
        b_cold = math.exp(-BIT_ENERGY / (BOLTZMANN * T_HALF))
        b_hot = math.exp(-BIT_ENERGY / (BOLTZMANN * t_hot))
        q_cold, q_hot = b_cold / (1 + b_cold), b_hot / (1 + b_hot)
        exact = length * (q_cold + (q_hot - q_cold) * (1 - (1 + b_cold) / length) ** steps)
        finals = np.array(
            [led.p_final for led in run_ensemble(length, t_hot, T_HALF, BIT_ENERGY, steps, range(400))],
            dtype=float,
        )
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - exact) < 4 * se
        assert abs(finals.mean() - length * q_cold) > 10 * se


#: The site probability at 2 T_HALF and the acceptance probability at T_HALF,
#: as ``simulate_transfer`` computes them.
PROB_HOT = twolevel.occupation_at(1, 2 * T_HALF, BIT_ENERGY)
ACCEPT = math.exp(-BIT_ENERGY / (BOLTZMANN * T_HALF))
#: Seeds of the pinned runs, the largest seed and one from the ledger tests.
KNOWN_SEEDS = [0, 1, 2, 3, 4, 5, 77, 123, 2**64 - 1]


class TestStreamedRelaxation:
    """Drawing and relaxing in chunks must reproduce the single-shot path exactly."""

    @given(
        length=st.one_of(st.integers(min_value=1, max_value=64), st.just(15000)),
        chunk_floor=st.sampled_from([1, 7, 4097, mcsim._CHUNK_STEPS]),
        seed=st.one_of(st.sampled_from(KNOWN_SEEDS), st.integers(min_value=0, max_value=2**64 - 1)),
        # exp(-1) as simulated; no rejection, so the fold reaches the first
        # step; rare rejection, so it stops somewhere in between.
        accept_probability=st.sampled_from([ACCEPT, 0.0, 1.0, 0.999, 1 - 1e-9]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_single_shot_path(self, length, chunk_floor, seed, accept_probability, data):
        chunk = max(chunk_floor, length)
        steps = data.draw(
            st.one_of(st.integers(min_value=0, max_value=3).map(lambda k: k * chunk),
                      st.integers(min_value=0, max_value=3 * chunk)),
            label="steps",
        )
        with mock.patch.object(mcsim, "_CHUNK_STEPS", chunk_floor):
            initial, final = mcsim._relax(length, PROB_HOT, accept_probability, steps, seed)
        expected_initial, expected_final = single_shot_relax(length, PROB_HOT, accept_probability, steps, seed)
        assert np.array_equal(initial, expected_initial)
        assert final.dtype == expected_final.dtype
        assert np.array_equal(final, expected_final)

    @given(
        length=st.integers(min_value=1, max_value=64),
        steps=st.integers(min_value=0, max_value=3000),
        accept_probability=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_maps_of_a_split_compose_to_the_map_of_the_whole(self, length, steps, accept_probability, seed, data):
        rng = np.random.default_rng(seed)
        sites = rng.integers(0, length, size=steps)
        accepts = rng.random(steps) < accept_probability
        split = data.draw(st.integers(min_value=0, max_value=steps), label="split")
        kept, flips = mcsim._chunk_map(sites, accepts, length)
        for state in (rng.random(length) < 0.5, np.zeros(length, bool), np.ones(length, bool)):
            halves = state
            for part in (slice(None, split), slice(split, None)):
                halves = apply_chunk_map(halves, sites[part], accepts[part], length)
            assert np.array_equal(halves, (state & kept) ^ flips)

    @pytest.mark.parametrize("length,steps,accept_probability",
                             [(1000, 10**5, ACCEPT), (15000, 1_500_000, ACCEPT), (64, 10**4, 1.0), (64, 10**4, 0.0)])
    def test_the_fold_stops_once_every_site_is_rejected(self, monkeypatch, length, steps, accept_probability):
        expected_initial, expected_final = single_shot_relax(length, PROB_HOT, accept_probability, steps, 3)
        relaxed, chunk_map = [], mcsim._chunk_map

        def spy(sites, accepts, length):
            relaxed.append(len(sites))
            return chunk_map(sites, accepts, length)

        monkeypatch.setattr(mcsim, "_chunk_map", spy)
        initial, final = mcsim._relax(length, PROB_HOT, accept_probability, steps, 3)
        assert np.array_equal(initial, expected_initial)
        assert np.array_equal(final, expected_final)
        # Without rejections every step is relaxed, once; otherwise most early steps are skipped.
        if accept_probability == 1.0:
            assert sum(relaxed) == steps
        else:
            assert 0 < sum(relaxed) < steps // 2
        assert max(relaxed) <= mcsim._chunk_steps(length)

    # Seeds whose fold takes more than one window.
    @pytest.mark.parametrize("length,steps,seed", [(1000, 10**5, 25), (15000, 1_500_000, 3)])
    def test_a_later_window_relaxes_only_the_sites_left_unrejected(self, monkeypatch, length, steps, seed):
        expected_initial, expected_final = single_shot_relax(length, PROB_HOT, ACCEPT, steps, seed)
        windows, chunk_map = [], mcsim._chunk_map

        def spy(sites, accepts, length):
            windows.append((sites.copy(), accepts.copy()))
            return chunk_map(sites, accepts, length)

        monkeypatch.setattr(mcsim, "_chunk_map", spy)
        initial, final = mcsim._relax(length, PROB_HOT, ACCEPT, steps, seed)
        assert np.array_equal(initial, expected_initial)
        assert np.array_equal(final, expected_final)
        assert len(windows) > 1
        rejected = np.zeros(length, dtype=bool)  # the sites that the windows relaxed so far rejected
        for sites, accepts in windows:
            assert not rejected[sites].any()
            rejected[sites[~accepts]] = True

    # Seeds whose fold takes more than one window.
    @pytest.mark.parametrize("length,steps,seed", [(1000, 10**5, 25), (15000, 1_500_000, 3)])
    def test_every_window_is_sized_for_the_sites_still_kept(self, monkeypatch, length, steps, seed):
        rng = np.random.default_rng(seed)
        rng.random(length)
        sites = rng.integers(0, length, size=steps)
        accepts = rng.random(steps) < ACCEPT
        windows, draw_sites = [], mcsim._draw_sites

        def spy(rng, site_stream, starts, length, start, stop):
            windows.append((start, stop))
            return draw_sites(rng, site_stream, starts, length, start, stop)

        monkeypatch.setattr(mcsim, "_draw_sites", spy)
        mcsim._relax(length, PROB_HOT, ACCEPT, steps, seed)
        assert len(windows) > 1
        assert windows[0] == (steps - mcsim._first_window(length, ACCEPT), steps)
        for (start, stop), (later_start, _) in zip(windows[1:], windows):
            assert stop == later_start
            # The sites kept by steps [stop, steps): those that no step there rejected.
            kept = length - np.unique(sites[stop:][~accepts[stop:]]).size
            assert stop - start == mcsim._first_window(length, ACCEPT, kept) or start == 0

    @pytest.mark.parametrize("length", [1, 64, 1000, 15000])
    @pytest.mark.parametrize("accept_probability", [ACCEPT, math.exp(-1)])
    def test_the_window_leaves_few_of_the_kept_sites_unrejected(self, length, accept_probability):
        reject = (1 - accept_probability) / length
        for kept in sorted({1, 60, length // 2, length} & set(range(1, length + 1))):
            window = mcsim._first_window(length, accept_probability, kept)
            assert 1 <= window <= mcsim._chunk_steps(length)
            if window < mcsim._chunk_steps(length):
                assert kept * (1 - reject) ** window <= 1 / 16
                # The fewest such steps, up to the rounding of the logarithms.
                assert kept * (1 - reject) ** (window - 1) > (1 - 1e-9) / 16

    def test_the_first_window_leaves_few_sites_unrejected(self):
        for length in (1, 64, 1000, 15000):
            window = mcsim._first_window(length, ACCEPT)
            assert 1 <= window <= mcsim._chunk_steps(length)
            if window < mcsim._chunk_steps(length):
                assert length * (1 - (1 - ACCEPT) / length) ** window <= 1 / 16
        assert mcsim._first_window(10, 1.0) == mcsim._chunk_steps(10)
        assert mcsim._first_window(1, 0.0) == 1

    @pytest.mark.parametrize(
        "length,steps,seed",
        [(15000, 3 * 2**18, 1), (15000, 2**18 + 1, 2), (64, 2**18, 2**64 - 1), (1, 2 * 2**18 - 1, 3)],
    )
    def test_ledgers_match_the_single_shot_path_at_the_real_chunk(self, length, steps, seed):
        ledger = simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seed)
        initial, final = single_shot_relax(length, PROB_HOT, ACCEPT, steps, seed)
        assert (ledger.p_initial, ledger.p_final) == (int(initial.sum()), int(final.sum()))

    @pytest.mark.parametrize("high", [1, 2, 7, 65536, 2**32 - 1, 2**32, 2**32 + 1])
    def test_bounded_draws_in_pieces_equal_one_draw(self, high):
        whole_rng, piece_rng = np.random.default_rng(11), np.random.default_rng(11)
        whole = whole_rng.integers(0, high, size=10_007)
        pieces = [piece_rng.integers(0, high, size=n) for n in (1, 2, 4097, 3, 5904)]
        assert np.array_equal(whole, np.concatenate(pieces))
        # The half-word buffer of the bounded 32-bit path is part of the state.
        assert whole_rng.bit_generator.state == piece_rng.bit_generator.state
        if high <= 2**32:
            # The sites are drawn as uint32: the same bounded 32-bit stream.
            uint32_rng = np.random.default_rng(11)
            uint32_pieces = [uint32_rng.integers(0, high, size=n, dtype=np.uint32) for n in (1, 2, 4097, 3, 5904)]
            assert np.array_equal(whole, np.concatenate(uint32_pieces))
            assert uint32_rng.bit_generator.state == whole_rng.bit_generator.state
        assert whole_rng.random() == piece_rng.random()

    @pytest.mark.parametrize("length", [1, 256, 257, 65536, 65537])
    def test_budget_grows_with_steps_only_by_the_block_counts(self, length):
        growth = mcsim._relax_bytes(length, 10**6) - mcsim._relax_bytes(length, 0)
        assert growth == 2 * 10**6 // mcsim._BLOCK_VALUES * mcsim._BLOCK_BYTES  # 7.8 kB, not one index per step


class TestSiteBlocks:
    """Counting the site stream's rejections on the raw words must locate numpy's own bounded draws.

    If numpy changes its bounded 32-bit algorithm, these fail instead of the
    ledgers changing silently.
    """

    @staticmethod
    def check(length, steps, seed, piece):
        """Windows of sites redrawn from the counts, and the floats after the sites, equal one plain draw's."""
        rng = np.random.default_rng(seed)
        expected = rng.integers(0, length, size=steps, dtype=np.uint32)
        floats = rng.random(5)
        rng = np.random.default_rng(seed)
        site_stream = rng.bit_generator.state
        starts, words = mcsim._site_blocks(rng.bit_generator, length, steps, piece)
        for start, stop in [(0, steps), (steps // 3, steps), (max(0, steps - 3), steps), (steps // 2, steps // 2 + 1)]:
            if start < stop <= steps:
                window = mcsim._draw_sites(rng, site_stream, starts, length, start, stop)
                assert window.dtype == np.uint32
                assert np.array_equal(window, expected[start:stop]), (start, stop)
        rng.bit_generator.state = site_stream
        rng.bit_generator.advance(words)
        assert np.array_equal(rng.random(5), floats)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 256, 1000, 15000, 65536, 2**31 + 11, 2**32 - 5])
    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 1001, 4095, 4096, 4097])
    def test_grid(self, length, steps):
        for seed in (0, 77, 2**64 - 1):
            for piece in (1, 4097, mcsim._CHUNK_STEPS):
                self.check(length, steps, seed, piece)

    @given(
        length=st.one_of(st.integers(min_value=1, max_value=2**32 - 1), st.integers(min_value=1, max_value=300)),
        steps=st.integers(min_value=0, max_value=9000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        piece=st.sampled_from([1, 7, 4097, mcsim._CHUNK_STEPS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_lengths_and_seeds(self, length, steps, seed, piece):
        self.check(length, steps, seed, piece)

    @pytest.mark.parametrize("seed,steps,index,position", [(390, 3 * 4096 + 5, 1, 4095), (1923, 6 * 4096 + 5, 4, 0)],
                             ids=["only-the-last-value", "only-the-first-value"])
    def test_pieces_with_and_without_a_rejection(self, seed, steps, index, position):
        # At this L about one raw value in 4096 is rejected, so some 4096-value
        # pieces have no rejection and skip the rejection bookkeeping; the
        # others have some. Piece ``index``'s only rejection is at ``position``.
        length = 2**32 - 2**20 + 1
        values = -(-steps // 4096) * 4096
        raw = np.random.default_rng(seed).bit_generator.random_raw(values // 2).astype("<u8").view("<u4")
        rejected = (raw * np.uint32(length) < (2**32 - length) % length).reshape(-1, 4096)
        assert np.flatnonzero(rejected[index]).tolist() == [position]
        assert 0 < rejected.any(axis=1).sum() < len(rejected)
        assert values - rejected.sum() < steps + 4096  # the count reads every one of these pieces
        self.check(length, steps, seed, 4096)

    def test_many_rejections_span_pieces(self):
        # Near L = 2**31 + 1 about half the raw values are rejected, so the
        # steps end several blocks past steps / 4096.
        self.check(2**31 + 1, 3 * 4096 + 5, 9, 4096)


class TestMemoryBudget:
    def test_one_benchmark_sized_run_stays_small(self):
        with traced() as peak:
            simulate_transfer(15000, 2 * T_HALF, T_HALF, BIT_ENERGY, 1_500_000, 4)
        assert peak[0] < 16 * 2**20  # measured 2.6 MiB; a site buffer took 4.7 MiB, the single-shot path 43 MiB

    @pytest.mark.parametrize("length,steps", [(1000, 10**6), (70000, 3 * 10**5), (2**18, 2**18), (15000, 0),
                                              (15000, 1_500_000), (1, 5 * 2**17 + 1)])
    def test_the_checked_estimate_bounds_the_traced_peak(self, length, steps):
        with traced() as peak:
            simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, 5)
        assert peak[0] <= mcsim._relax_bytes(length, steps)

    @pytest.mark.parametrize("length,steps,runs", [(1000, 10**5, 20), (15000, 1_500_000, 4), (200, 10**6, 3)])
    def test_the_checked_ensemble_estimate_bounds_the_traced_peak(self, monkeypatch, length, steps, runs):
        checked = []
        monkeypatch.setattr(mcsim, "require_within_budget", lambda nbytes, request: checked.append(nbytes))
        with traced() as peak:
            run_ensemble(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, range(runs))
        # The first check is the ensemble's own; each run then checks itself.
        assert checked[0] == runs * mcsim._RUN_BYTES + mcsim._relax_bytes(length, steps)
        assert len(checked) == 1 + runs
        assert peak[0] <= checked[0]

    @pytest.mark.parametrize("length,steps", [(1000, 10**12), (10**9, 10**11), (10**8, 0)])
    def test_over_budget_run_is_rejected_before_allocating(self, length, steps):
        with traced() as peak, pytest.raises(DomainError, match="budget"):
            simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, 0)
        assert peak[0] < 2**20

    def test_largest_run_within_budget_is_accepted_by_the_check(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_relax", lambda length, *args: (np.zeros(length, bool),) * 2)
        assert simulate_transfer(1000, 2 * T_HALF, T_HALF, BIT_ENERGY, STEP_BUDGET, 0).steps == STEP_BUDGET
        with pytest.raises(DomainError, match="budget"):
            simulate_transfer(1000, 2 * T_HALF, T_HALF, BIT_ENERGY, STEP_BUDGET + 1, 0)
        with pytest.raises(DomainError, match="budget"):
            run_ensemble(1000, 2 * T_HALF, T_HALF, BIT_ENERGY, STEP_BUDGET + 1, range(2))

    def test_ensemble_steps_are_bounded_over_all_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mcsim, "simulate_transfer", lambda *args: calls.append(args))
        run_ensemble(1000, 2 * T_HALF, T_HALF, BIT_ENERGY, STEP_BUDGET // 4, range(4))
        assert len(calls) == 4
        for steps, seeds in [(STEP_BUDGET // 4 + 1, range(4)), (2 * 10**9, range(500000)), (10**9, range(100))]:
            with pytest.raises(DomainError, match="budget") as refused:
                run_ensemble(1000, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seeds)
            assert "per run" not in str(refused.value)
        assert len(calls) == 4

    def test_the_traced_peak_does_not_grow_with_steps(self):
        peaks = []
        for steps in (10**5, 10**7):
            with traced() as peak:
                simulate_transfer(1000, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, 6)
            peaks += peak
        # Measured 0.5 and 1.0 MiB; a buffer of one site per step took 19.6 MiB at 1e7 steps.
        assert peaks[1] - peaks[0] < 2**20

    @pytest.mark.parametrize("seeds", [range(10**12), range(10**20), range(2**64 - 10**12, 2**64 + 5)])
    def test_over_budget_ensemble_is_rejected_before_any_run(self, monkeypatch, seeds):
        calls = []
        monkeypatch.setattr(mcsim, "simulate_transfer", lambda *args: calls.append(args))
        with traced() as peak, pytest.raises(DomainError, match="budget"):
            run_ensemble(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, seeds)
        assert peak[0] < 2**20
        assert calls == []


class TestSimulateValidation:
    @pytest.mark.parametrize("length", [0, -3])
    def test_nonpositive_length_rejected(self, length):
        with pytest.raises(DomainError):
            simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError):
            simulate_transfer(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, seed)
        with pytest.raises(DomainError):
            sample_equilibrium(10, 3, seed)
        with pytest.raises(DomainError):
            sample_canonical(10, T_HALF, BIT_ENERGY, seed)

    def test_largest_seed_accepted(self):
        assert simulate_transfer(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, 2**64 - 1).seed == 2**64 - 1

    def test_ensemble_checks_every_seed_before_running(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mcsim, "simulate_transfer", lambda *args: calls.append(args))
        with pytest.raises(DomainError):
            run_ensemble(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, range(2**64 - 2, 2**64 + 1))
        with pytest.raises(DomainError):
            run_ensemble(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, [3, -1, 5])
        with pytest.raises(DomainError):
            run_ensemble(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, [0, 0.5, 1])
        assert calls == []


class TestEnsemble:
    @pytest.mark.parametrize("length,steps,seeds", [(1000, 10**5, range(20)), (15000, 3 * 2**17 + 5, [77, 3, 2**64 - 1]),
                                                    (1, 50, [5, 0]), (64, 0, [9]), (10, 10, [])])
    def test_equals_simulate_transfer_seed_by_seed(self, length, steps, seeds):
        ledgers = run_ensemble(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seeds)
        assert ledgers == [simulate_transfer(length, 2 * T_HALF, T_HALF, BIT_ENERGY, steps, seed)
                           for seed in sorted(seeds)]

    def test_a_spy_on_the_runs_sees_every_seed(self, monkeypatch):
        # The ensemble's checks are tested with a spy on ``simulate_transfer``;
        # it must be the name through which every run starts.
        calls = []
        monkeypatch.setattr(mcsim, "simulate_transfer", lambda *args: calls.append(args))
        run_ensemble(10, 2 * T_HALF, T_HALF, BIT_ENERGY, 10, [3, 1, 2])
        assert [args[5] for args in calls] == [1, 2, 3]

    def test_runs_are_sorted_by_seed(self):
        ledgers = run_ensemble(50, 2 * T_HALF, T_HALF, BIT_ENERGY, 1000, [5, 1, 3])
        assert [led.seed for led in ledgers] == [1, 3, 5]

    def test_summary_statistics(self):
        ledgers = run_ensemble(50, 2 * T_HALF, T_HALF, BIT_ENERGY, 1000, range(10))
        summary = ensemble_summary(ledgers)
        totals = np.array([led.total_entropy_change for led in ledgers])
        assert summary.run_count == 10
        assert summary.mean_total_entropy_change == pytest.approx(totals.mean(), rel=1e-14)
        assert summary.se_total_entropy_change == pytest.approx(
            totals.std(ddof=1) / math.sqrt(10), rel=1e-12
        )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(DomainError):
            ensemble_summary([])
