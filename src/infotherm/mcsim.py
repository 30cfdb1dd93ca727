"""Sampling and relaxation dynamics for the two-level gas.

Microstates are explicit bit strings. Two samplers cover the two standard
ensembles: uniform over all C(L, p) arrangements at fixed occupation
(``sample_equilibrium``), and independent per-site occupation at a given
temperature (``sample_canonical``). ``h_function`` evaluates the entropy of
an arbitrary, possibly biased, distribution over microstates; it equals
ln(number of microstates) exactly when the distribution is uniform and is
strictly smaller otherwise.

``simulate_transfer`` prepares a gas in equilibrium with a hot bath and then
relaxes it in contact with a cold bath using single-site-flip Metropolis
dynamics: a uniformly chosen site flips down with certainty and flips up
with probability exp(-bit_energy / k_B T_cold). That rule satisfies detailed
balance at the cold temperature, so the gas relaxes to the equilibrium
occupation law. The dynamics are a modeling choice of this package.

Sites do not interact, so the final state has a closed form per site. A hit
maps a site's state s to a AND NOT s, where a is that step's acceptance
draw: a rejected hit leaves the site empty and every accepted hit toggles
it. A site therefore ends as the parity of its hits after its last rejected
hit, or, if it was never rejected, as its initial state XOR the parity of
all its hits. The mean follows in closed form too: each hit maps
P(s = 1) to b (1 - P) with b = exp(-bit_energy / k_B T_cold), so after n
steps E[p_final] = L [q_c + (q_h - q_c) (1 - (1 + b) / L)^n], where
q = b / (1 + b) at each bath's temperature.

All randomness comes from numpy's PCG64 generator seeded with the caller's
seed, an integer in [0, 2**64). The draws come in a fixed order: L floats
for the initial state, then ``steps`` site indices, then ``steps``
acceptance floats, one per step whether or not the site was empty.
Identical seeds give bit-identical ledgers.

Relaxation runs backwards from the last step. Any stretch of steps maps the
state s to (s & kept) ^ flips (``_chunk_map``), and these maps compose
exactly, so the run folds them in from the end in windows sized by one rule:
the fewest steps after which the sites still kept expect at most 1/16 of a
site unrejected, capped at one chunk (``_first_window``). Once every site
has been rejected, the earlier steps cannot change the final state and the
fold stops. Once some site has been rejected, a window passes the kernel
only its steps at sites still kept: a site that the later steps reject ends
as they leave it, whatever the window does to it. So at L = 15000 and b =
exp(-1) a later window of 131 072 steps relaxes about 600 of them. The
acceptance floats start only after the last site, and ``integers``
rejection-samples, so the run first counts the site stream's rejections on
the raw 32-bit values without producing any site (``_site_blocks``). That
locates both the acceptance stream and the raw block that holds any step's
site. A piece of raw values with no rejection, as nearly every piece is at L
= 1000 or 15000 (fewer than one raw value in a million is rejected), gives
blocks of 4096 sites each and is not searched for rejections. Each window's
sites and floats are then drawn at their place in the stream by advancing
the generator (``PCG64.advance``); the raw site values of steps that cannot
matter are only counted, and their floats are never generated. The ledgers
are those of the forward fold, bit for bit. At L = 15000 with 1.5e6 steps
and b = exp(-1), the fold usually stops within the last three chunks.

Memory: a run reads the raw stream, draws and relaxes in pieces, chunks or
windows of at most max(2**17, L) steps, one at a time, so its working set is
O(L + chunk). The only record that grows with steps is one 8-byte count per
block of 4096 raw values. One L=15000 run of 1.5e6 steps peaks at about
2.6 MiB traced, and L=1e6 with 1e8 steps at about 39 MiB. Before allocating
anything, ``simulate_transfer`` and ``run_ensemble`` check an upper bound
on the memory they need against ``errors.MEMORY_BUDGET`` (2 GiB), and the
steps they take, over all the runs of an ensemble, against
``errors.STEP_BUDGET`` (2**31), and raise DomainError if either is exceeded.

Everything runs on the calling thread; the module starts no threads.

Bookkeeping (see ``SimLedger``): the run's ``total_entropy_change`` is the
entropy production of the simulated relaxation leg - gas entropy change plus
cold-bath gain. The hot bath's preparation debit (-initial energy / T_hot)
is reported alongside but not summed into the total: its gas-side
counterpart (the entropy the gas acquired while equilibrating hot) lies
outside the simulated leg, and adding the debit alone would misstate the
second-law balance. A full-transfer ledger in the convention of
:func:`infotherm.twolevel.transfer_entropy_delta`, evaluated at the measured
occupations, is also reported for comparison.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidDistributionError, require_above, require_count, require_finite
from .errors import require_positive, require_quotient, require_within_budget, require_within_step_budget
from .quantities import K_B, unit
from .twolevel import multiplicity_ln, occupation_at, transfer_entropy_delta

_PROB_SUM_TOLERANCE = 1e-12

#: Steps drawn, or relaxed, per chunk, or L if that is larger, so that the
#: kernel's O(L) work per chunk is spread over at least L steps.
_CHUNK_STEPS = 2**17

#: Bytes per site and per chunk step that bound a run's working memory apart
#: from its block counts. Per step: one piece of raw site values with its
#: rejection mask, or one window's uint32 sites and float64 acceptance
#: draw with its bool, and the kernel's index, gather and mask temporaries.
#: Per site: the initial draw and state, the composed map and the kernel's
#: per-site arrays.
_WORK_BYTES = 64

#: Raw 32-bit values per block of the site stream. Even, so that every block
#: starts on a 64-bit output of the generator.
_BLOCK_VALUES = 4096

#: Bytes per block of the site stream: its int64 count of the sites before
#: it, held twice while the pieces' counts are joined.
_BLOCK_BYTES = 16

#: Bytes per site that a sampler holds at its peak: ``sample_canonical``'s
#: float64 draw, its bool, the uint8 copy and the configuration's bytes.
#: ``sample_equilibrium`` holds only the last two.
_SAMPLE_SITE_BYTES = 11

#: Bytes an ensemble keeps per finished run, rounded up: its ledger, its
#: entry in the sorted seed list and the row a caller builds from the ledger.
_RUN_BYTES = 4096


@dataclass(frozen=True)
class Configuration:
    """One microstate: an immutable string of 0/1 site values."""

    bits: bytes

    def __post_init__(self):
        if not set(self.bits) <= {0, 1}:
            raise DomainError("configuration bits must all be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def ones_count(self) -> int:
        return self.bits.count(1)


@dataclass(frozen=True)
class ConfigDistribution:
    """A probability distribution over distinct configurations."""

    support: tuple[tuple[Configuration, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        seen = set()
        for config, prob in self.support:
            if require_finite("probability", prob) < 0:
                raise InvalidDistributionError(f"negative probability {prob}")
            if config.bits in seen:
                raise InvalidDistributionError("support configurations must be distinct")
            seen.add(config.bits)
        total = math.fsum(prob for _, prob in self.support)
        if abs(total - 1.0) > _PROB_SUM_TOLERANCE:
            raise InvalidDistributionError(
                f"probabilities sum to {total!r}, not 1 within {_PROB_SUM_TOLERANCE}"
            )


@dataclass(frozen=True)
class SimLedger:
    """Full accounting of one hot->cold relaxation run.

    Energy conservation is exact: ``heat_to_cold`` is defined as
    ``energy_initial - energy_final`` (net accepted flips times the bit
    energy). ``total_entropy_change`` covers the simulated relaxation leg;
    ``entropy_hot_bath`` and ``entropy_full_transfer`` are reported for the
    broader bookkeeping pictures (module docstring).
    """

    seed: int = unit("count")
    steps: int = unit("count")
    length: int = unit("count")
    t_hot: float
    t_cold: float
    bit_energy: float
    p_initial: int = unit("count")
    p_final: int = unit("count")
    energy_initial: float = unit("J")
    energy_final: float = unit("J")
    heat_to_cold: float = unit("J")
    entropy_hot_bath: float = unit("J/K")
    entropy_cold_bath: float = unit("J/K")
    entropy_gas_change: float = unit("J/K")
    entropy_full_transfer: float | None = unit("J/K")
    total_entropy_change: float = unit("J/K")


@dataclass(frozen=True)
class EnsembleSummary:
    """Means and standard errors of the key per-run quantities of an ensemble.

    Every ``se_*`` is +inf for a one-run ensemble.
    """

    mean_total_entropy_change: float = unit("J/K")
    se_total_entropy_change: float = unit("J/K")
    mean_p_final: float = unit("count")
    se_p_final: float = unit("count")
    mean_heat_to_cold: float = unit("J")
    se_heat_to_cold: float = unit("J")
    run_count: int = unit("count")


def sample_equilibrium(length: int, ones: int, seed: int) -> Configuration:
    """Uniform draw over all C(length, ones) microstates.

    The placement is a Fisher-Yates shuffle (numpy's in-place ``shuffle``) of
    a string with the required ones count, so every arrangement is equally
    likely and the result is fixed by the seed. A sample over
    ``errors.MEMORY_BUDGET`` raises DomainError before anything is drawn.
    """
    require_count(1, length=length)
    require_count(0, length, ones=ones)
    require_count(0, 2**64 - 1, seed=seed)
    require_within_budget(_SAMPLE_SITE_BYTES * length, f"a sample of {length} sites")
    arr = np.zeros(length, dtype=np.uint8)
    arr[:ones] = 1
    np.random.default_rng(seed).shuffle(arr)
    return Configuration(arr.tobytes())


def sample_canonical(length: int, temperature: float, bit_energy: float, seed: int) -> Configuration:
    """Independent per-site draw at the given temperature.

    Each site is excited with probability 1 / (1 + exp(bit_energy / k_B T)),
    so the mean ones count matches the equilibrium occupation law. A sample
    over ``errors.MEMORY_BUDGET`` raises DomainError before anything is drawn.
    """
    require_count(1, length=length)
    prob = occupation_at(1, temperature, bit_energy)
    require_count(0, 2**64 - 1, seed=seed)
    require_within_budget(_SAMPLE_SITE_BYTES * length, f"a sample of {length} sites")
    draws = np.random.default_rng(seed).random(length)
    return Configuration((draws < prob).astype(np.uint8).tobytes())


def h_function(dist: ConfigDistribution) -> float:
    """Entropy of a distribution over microstates: -sum p ln p, in nats.

    Equals ln(support size) iff the distribution is uniform; biased
    distributions always score lower.
    """
    return -math.fsum(p * math.log(p) for _, p in dist.support if p > 0.0)


def _chunk_map(sites: np.ndarray, accepts: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The map ``s -> (s & kept) ^ flips`` by which one chunk of steps changes the state.

    A hit maps a site's state s to ``accept AND NOT s``, so a site is empty
    after its last rejected hit and toggles on every later hit. ``kept`` marks
    the sites that the chunk never rejected, and ``flips`` is the parity of
    each site's hits after its last rejection (of all its hits if it has
    none). Every such hit is accepted, so only the accepted steps are
    gathered and counted. ``np.maximum.at`` finds the last rejection whatever
    the order of repeated indices. The maps of consecutive chunks compose
    exactly, and applying them is bit-identical to the naive sequential loop.
    """
    last_reject = np.full(length, -1, dtype=np.int64)
    rejected = np.flatnonzero(~accepts)
    np.maximum.at(last_reject, sites[rejected], rejected)
    accepted = np.flatnonzero(accepts)
    hit = sites[accepted]
    flips = np.bincount(hit[accepted > last_reject[hit]], minlength=length) & 1
    return last_reject < 0, flips.astype(bool)


def _chunk_steps(length: int) -> int:
    return max(_CHUNK_STEPS, length)


def _relax_bytes(length: int, steps: int) -> int:
    """Upper bound, in bytes, on the memory of one run: one chunk's work plus the block counts.

    numpy rejects fewer than half of the raw values on average at any L, so
    a run's sites take at most about 2 * steps / 4096 blocks.
    """
    blocks = 2 * steps // _BLOCK_VALUES + 2
    return _WORK_BYTES * (length + _chunk_steps(length)) + _BLOCK_BYTES * blocks


def _first_window(length: int, accept_probability: float, kept: int | None = None) -> int:
    """Steps of the next window: the fewest in which ``kept`` sites (default L) expect at most 1/16 unrejected.

    A step rejects a given site with probability (1 - accept_probability) / L,
    so in n steps that site escapes with probability (1 - that)**n. The
    window is the fewest n for which ``kept`` times that is at most 1/16,
    capped at one chunk; the last window of a run is the case kept = L. A
    rejection-free chain (accept_probability = 1) gets a whole chunk.
    """
    chunk = _chunk_steps(length)
    reject = (1.0 - accept_probability) / length
    if reject >= 1.0:
        return 1
    if reject == 0.0:
        return chunk
    return min(chunk, math.ceil(math.log(16 * (length if kept is None else kept)) / -math.log1p(-reject)))


def _site_blocks(bits: np.random.PCG64, length: int, steps: int, piece: int) -> tuple[np.ndarray, int]:
    """The sites drawn before each block of the site stream, and the 64-bit outputs the stream takes.

    ``integers(0, L, dtype=np.uint32)`` is numpy's bounded 32-bit path,
    Lemire's multiply-and-reject method: a raw 32-bit value x (the low half
    of each 64-bit output first) is rejected when (x * L) mod 2**32 is below
    (2**32 - L) mod L, and otherwise gives the site (x * L) >> 32. So
    counting the rejections in each block of ``_BLOCK_VALUES`` raw values
    locates every step's site without producing any. The raw values are
    read from ``bits`` in pieces of at most ``piece`` values, rounded to
    whole blocks, and none is kept; a piece whose smallest product reaches
    the threshold has no rejection, so its blocks hold 4096 sites each. L = 1
    draws nothing, so its blocks take no raw values.
    """
    if length == 1:
        return np.arange(0, steps, _BLOCK_VALUES), 0
    threshold = (2**32 - length) % length
    piece = max(_BLOCK_VALUES, piece - piece % _BLOCK_VALUES)
    starts, drawn, words = [np.zeros(0, dtype=np.int64)], 0, 0
    while drawn < steps:
        size = min(piece, -(-(steps - drawn) // _BLOCK_VALUES) * _BLOCK_VALUES)
        raw = bits.random_raw(size // 2).astype("<u8", copy=False).view("<u4")
        np.multiply(raw, np.uint32(length), out=raw)
        if raw.min() >= threshold:  # no rejection: each block starts 4096 sites on
            starts.append(drawn + _BLOCK_VALUES * np.arange(size // _BLOCK_VALUES))
            k = 0
        else:
            rejected = np.flatnonzero(raw < threshold)
            rejects = np.bincount(rejected // _BLOCK_VALUES, minlength=size // _BLOCK_VALUES)
            starts.append(drawn + _BLOCK_VALUES * np.arange(rejects.size) - np.cumsum(rejects) + rejects)
            # rejected[i] - i sites come before the i-th rejection, so k rejections
            # come before the run's last site (all of them if it lies further on).
            k = int(np.searchsorted(rejected - np.arange(rejected.size), steps - drawn - 1, side="right"))
        values = min(size, steps - drawn + k)
        drawn, words = drawn + values - k, words + (values + 1) // 2
    return np.concatenate(starts), words


def _draw_sites(
    rng: np.random.Generator, site_stream: dict, starts: np.ndarray, length: int, start: int, stop: int
) -> np.ndarray:
    """The sites of steps [start, stop), given the site stream's state and ``_site_blocks``'s starts.

    ``integers`` itself draws them, from the start of the block that holds
    step ``start``; the leading sites of that block are dropped.
    """
    block = int(np.searchsorted(starts, start, side="right")) - 1
    skip = start - int(starts[block])
    rng.bit_generator.state = site_stream
    rng.bit_generator.advance(block * _BLOCK_VALUES // 2)
    return rng.integers(0, length, size=skip + stop - start, dtype=np.uint32)[skip:]


def _relax(
    length: int, prob_hot: float, accept_probability: float, steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Initial and final state of one run, drawn in the protocol's order.

    All site indices are drawn before any acceptance float, so the run first
    counts the site stream's rejections (``_site_blocks``). That gives the
    acceptance stream's start and the block that holds any step's site.

    The chunk maps are then folded in from the last step backwards (module
    docstring): a window's map is applied before the maps of the steps after
    it, and the fold stops once no site is kept. A window's sites are
    redrawn by ``_draw_sites``. Each acceptance float is one 64-bit output
    of the generator, so a window's floats are drawn after advancing from
    the acceptance stream's start past the steps before the window. Each
    window is sized by ``_first_window`` for the sites still kept, and once
    some site has left, it relaxes only its steps at kept sites.
    """
    rng = np.random.default_rng(seed)
    initial = rng.random(length) < prob_hot
    bits = rng.bit_generator
    site_stream = bits.state
    starts, words = _site_blocks(bits, length, steps, _chunk_steps(length))
    # (kept, flips) is the map of steps [stop, steps): the identity to begin with.
    kept, flips = np.ones(length, dtype=bool), np.zeros(length, dtype=bool)
    stop, left = steps, length
    while stop > 0 and left:
        start = max(0, stop - _first_window(length, accept_probability, left))
        sites = _draw_sites(rng, site_stream, starts, length, start, stop)
        bits.state = site_stream
        bits.advance(words + start)
        accepts = rng.random(stop - start) < accept_probability
        if left < length:  # only the steps at sites still kept can change the result
            live = np.flatnonzero(kept[sites])
            sites, accepts = sites[live], accepts[live]
        # Every step left hits a kept site, so the window's flips need no mask.
        window_kept, window_flips = _chunk_map(sites, accepts, length)
        flips ^= window_flips
        kept &= window_kept
        stop, left = start, int(np.count_nonzero(kept))
    return initial, (initial & kept) ^ flips


def simulate_transfer(
    length: int,
    t_hot: float,
    t_cold: float,
    bit_energy: float,
    steps: int,
    seed: int,
) -> SimLedger:
    """Prepare a gas hot, relax it cold, and account for the entropy.

    For reliable relaxation use steps >= 100 * length. ``steps = 0`` returns
    the prepared state unchanged. A run of more than ``errors.STEP_BUDGET``
    steps, or whose memory bound (module docstring) exceeds
    ``errors.MEMORY_BUDGET``, raises DomainError before anything is
    allocated, and so does a ratio bit_energy / k_B T_cold that overflows.
    """
    require_count(1, length=length)
    require_count(0, steps=steps)
    require_positive(t_cold=t_cold)
    require_above(t_cold, t_hot=t_hot)
    require_count(0, 2**64 - 1, seed=seed)

    prob_hot = occupation_at(1, t_hot, bit_energy)
    request = f"a run of L={length} with {steps} steps"
    require_within_step_budget(steps, request)
    require_within_budget(_relax_bytes(length, steps), request)
    exponent = require_quotient(f"the ratio of {bit_energy} J to k_B times {t_cold} K", bit_energy, K_B * t_cold)
    initial, final = _relax(length, prob_hot, math.exp(-exponent), steps, seed)

    p_initial = int(initial.sum())
    p_final = int(final.sum())
    energy_initial = p_initial * bit_energy
    energy_final = p_final * bit_energy
    heat_to_cold = energy_initial - energy_final

    entropy_hot_bath = -energy_initial / t_hot
    entropy_cold_bath = heat_to_cold / t_cold
    entropy_gas_change = K_B * (multiplicity_ln(length, p_final) - multiplicity_ln(length, p_initial))

    if 0 < p_initial < length and 0 < p_final < length:
        full_transfer = transfer_entropy_delta(
            length, p_initial, p_final, bit_energy
        ).delta_s_occupation
    else:
        full_transfer = None

    return SimLedger(
        seed=seed,
        steps=steps,
        length=length,
        t_hot=t_hot,
        t_cold=t_cold,
        bit_energy=bit_energy,
        p_initial=p_initial,
        p_final=p_final,
        energy_initial=energy_initial,
        energy_final=energy_final,
        heat_to_cold=heat_to_cold,
        entropy_hot_bath=entropy_hot_bath,
        entropy_cold_bath=entropy_cold_bath,
        entropy_gas_change=entropy_gas_change,
        entropy_full_transfer=full_transfer,
        total_entropy_change=entropy_cold_bath + entropy_gas_change,
    )


def run_ensemble(
    length: int,
    t_hot: float,
    t_cold: float,
    bit_energy: float,
    steps: int,
    seeds: "list[int] | range",
) -> list[SimLedger]:
    """Independent runs over the given seeds, in seed order.

    Every seed, and the steps and memory of the whole ensemble, are checked
    before the first run starts.
    """
    try:
        runs = len(seeds)
    except OverflowError:  # a range longer than sys.maxsize
        raise DomainError(f"an ensemble of more than {sys.maxsize} runs is over the memory budget") from None
    require_count(1, length=length)
    require_count(0, steps=steps)
    require_within_step_budget(runs * steps, f"an ensemble of {runs} runs of {steps} steps")
    require_within_budget(runs * _RUN_BYTES + _relax_bytes(length, steps), f"an ensemble of {runs} runs")
    for seed in seeds:
        require_count(0, 2**64 - 1, seed=seed)
    return [
        simulate_transfer(length, t_hot, t_cold, bit_energy, steps, seed)
        for seed in sorted(seeds)
    ]


def ensemble_summary(ledgers: list[SimLedger]) -> EnsembleSummary:
    """Means and standard errors of the key per-run quantities."""
    if not ledgers:
        raise DomainError("cannot summarize an empty ensemble")
    totals = np.array([led.total_entropy_change for led in ledgers])
    p_finals = np.array([led.p_final for led in ledgers], dtype=float)
    heats = np.array([led.heat_to_cold for led in ledgers])
    n = len(ledgers)

    def se(values: np.ndarray) -> float:
        return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf

    return EnsembleSummary(
        mean_total_entropy_change=float(totals.mean()),
        se_total_entropy_change=se(totals),
        mean_p_final=float(p_finals.mean()),
        se_p_final=se(p_finals),
        mean_heat_to_cold=float(heats.mean()),
        se_heat_to_cold=se(heats),
        run_count=n,
    )
