"""Thermodynamic analysis of a binary file as a frozen two-level gas.

A file of L bits with p ones and a caller-supplied one-bit energy
``bit_energy`` carries energy Q = p * bit_energy. Its information content is
estimated three ways, none privileged:

- order-0: the binary entropy of the empirical ones fraction (permutation
  invariant, blind to correlations),
- block-k: the entropy rate of overlapping k-bit blocks (sees short-range
  structure),
- compression: bits output by the frozen coder in :mod:`infotherm.lz`
  times ln 2 (an upper bound on the true information; the coder's overhead
  bound on incompressible input is 5%, in practice ~0.4%).

A maximally random file has p = L/2 and information L ln 2, which fixes its
temperature at bit_energy / (2 k_B ln 2) independent of content. Files whose
estimated information falls short of L ln 2 are hotter: the same energy
carries less information. A file is "in equilibrium" when it is
incompressible (equilibrium score >= 0.95).

Bit order within a byte is most-significant-bit first everywhere.

The ones count is a popcount of the input's 8-byte words; its temporary is
one byte per 8 input bytes. Block entropy reads the input in fixed pieces
of 64 KiB, so its temporaries are O(piece + 2^(k+g-1)) bytes whatever the
input length (see ``block_entropy``).
"""

import math
from dataclasses import dataclass

from . import lz
from .errors import EmptyFileError, SampleSizeError, UndefinedTemperatureError
from .errors import require_at_least, require_count, require_positive, require_quotient, require_result
from .quantities import K_B, LN2, unit

#: Block size used for the block-entropy field of a standard report.
DEFAULT_BLOCK_BITS = 8

#: Scores at or above this are reported as "equilibrium (incompressible)".
EQUILIBRIUM_THRESHOLD = 0.95

#: Minimum sample factor for block entropy: need at least 10 * 2^k bits.
_MIN_SAMPLES_PER_STATE = 10

#: Input bytes block entropy reads at a time; its working memory scales with this, not the input.
_PIECE_BYTES = 1 << 16


@dataclass(frozen=True)
class FileReport:
    """Per-file analysis; information fields are totals in nats."""

    bit_length: int = unit("bit")
    ones_count: int = unit("count")
    bit_energy: float = unit("J")
    energy: float = unit("J")
    info_max: float = unit("nats")
    info_order0: float = unit("nats")
    info_block_k: float | None = unit("nats")
    info_compression: float = unit("nats")
    file_temperature: float = unit("K")
    effective_temperature: float = unit("K")
    equilibrium_score: float = unit("dimensionless")

    @property
    def is_equilibrium(self) -> bool:
        return self.equilibrium_score >= EQUILIBRIUM_THRESHOLD


def _require_data(data: bytes) -> None:
    if len(data) == 0:
        raise EmptyFileError("cannot analyze an empty byte sequence")


def _ones_count(data: bytes) -> int:
    """The number of one bits: a popcount of the whole 8-byte words, then of the last 0-7 bytes."""
    import numpy as np  # here, not at module level: the calculator commands never import numpy

    whole = len(data) // 8 * 8
    words = np.frombuffer(data, dtype=np.uint64, count=whole // 8)
    return int(np.bitwise_count(words).sum()) + int.from_bytes(data[whole:], "big").bit_count()


def analyze_counts(data: bytes, bit_energy: float) -> tuple[int, int, float]:
    """(bit length, ones count, energy in J) of a byte sequence."""
    _require_data(data)
    require_positive(bit_energy=bit_energy)
    bit_length = 8 * len(data)
    ones = _ones_count(data)
    energy = require_result(f"energy of {ones} one bits at {bit_energy} J each", ones * bit_energy)
    return bit_length, ones, energy


def max_information(bit_length: int) -> float:
    """Largest information a file of bit_length bits can carry: L ln 2 nats."""
    require_count(0, bit_length=bit_length)
    if bit_length == 0:
        raise EmptyFileError(f"a file of {bit_length} bits holds no information")
    return bit_length * LN2


def file_temperature(bit_energy: float) -> float:
    """Temperature of a maximally random file: bit_energy / (2 k_B ln 2).

    Independent of length and content by construction (the ones fraction of
    a random file is 1/2). A temperature that overflows raises DomainError.
    """
    require_positive(bit_energy=bit_energy)
    return require_result(f"the file temperature at {bit_energy} J per bit", bit_energy / (2.0 * K_B * LN2))


def _binary_entropy(ones: int, bit_length: int) -> float:
    """Binary entropy of a ones fraction ones / bit_length, nats per bit."""
    q = ones / bit_length
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)


def shannon_entropy_order0(data: bytes) -> float:
    """Binary entropy of the empirical ones fraction, nats per bit."""
    _require_data(data)
    return _binary_entropy(_ones_count(data), 8 * len(data))


def block_entropy(data: bytes, block_bits: int) -> float:
    """Entropy rate of overlapping block_bits-bit windows, nats per bit.

    Bits are taken MSB-first. Requires at least 10 * 2^block_bits bits of
    data; undersampled block entropies are biased low, so short inputs are
    rejected rather than silently underestimated.

    The window histogram is counted from byte words, never from single bits:
    w[j] is the big-endian 32-bit word of bytes j..j+3 (the input followed by
    three zero bytes), so the window starting at bit 8j + r is
    (w[j] >> (32 - r - k)) & (2^k - 1), which fits because r + k <= 31. The
    offsets r in 0..7 are counted in groups a..a+g-1, where offset a + i
    reads bits [i, i + k) of the (k+g-1)-bit field at bit a of w[j] whatever
    a is; g divides 8, so all groups share one field histogram. g is the
    largest of 8, 4, 2 and 1 whose field fits in 16 bits and whose g
    marginals fold within 2^18 entries: 8 up to k = 8, 4 up to 13, 2 up to
    15, then 1. The counts hold one window per input bit; the k - 1 windows
    that start in the last k - 1 bits run into the zero padding and are
    subtracted. All counts are exact integers.

    The words are read in pieces of _PIECE_BYTES input bytes, and only the
    last piece is padded, so working memory is O(piece + 2^(k+g-1)) whatever
    the input length: one piece's words and codes (12 bytes per piece byte)
    and the 8-byte field histogram, summed over the pieces. The g marginals
    are summed in one fold at the end, a bit per step: step s drops the low
    bit of the sum so far (even plus odd entries) and adds the field less
    its top s bits (halves added), whose low bits the later steps drop.
    """
    _require_data(data)
    require_count(1, 24, block_bits=block_bits)
    bit_length = 8 * len(data)
    needed = _MIN_SAMPLES_PER_STATE * (1 << block_bits)
    if bit_length < needed:
        raise SampleSizeError(
            f"block entropy with k={block_bits} needs at least {needed} bits "
            f"({-(-needed // 8)} bytes), got {bit_length}"
        )
    import numpy as np  # here, not at module level: the calculator commands never import numpy

    n_blocks = bit_length - block_bits + 1
    mask = (1 << block_bits) - 1
    # g divides 8, so all groups share one histogram; wider fields or folds past 2^18 entries cost more than they save.
    group = next((g for g in (8, 4, 2) if block_bits + g <= 17 and g << (block_bits + g - 1) <= 1 << 18), 1)
    width = block_bits + group - 1
    counts = np.zeros(1 << width, dtype=np.int64)  # of the field; folded below into the windows' counts
    buffer = np.empty(min(len(data), _PIECE_BYTES), dtype=np.intp)
    for lo in range(0, len(data), _PIECE_BYTES):
        m = min(_PIECE_BYTES, len(data) - lo)
        piece = data[lo : lo + m + 3]
        if len(piece) < m + 3:
            piece += bytes(m + 3 - len(piece))
        words = np.ndarray((m,), dtype=">u4", buffer=piece, strides=(1,)).astype(np.uint32)
        codes = buffer[:m]
        for a in range(0, 8, group):
            np.right_shift(words, 32 - a - width, out=codes)
            codes &= (1 << width) - 1
            if group == 1:
                np.add.at(counts, codes, 1)
            else:
                counts += np.bincount(codes, minlength=counts.size)
    # Offset a + i's marginal is the field less its top i and low g - 1 - i bits; their sum folds one bit a step.
    top = counts
    for _ in range(group - 1):
        top = top[: top.size // 2] + top[top.size // 2 :]
        counts = counts[0::2] + counts[1::2]
        counts += top
    tail = int.from_bytes(data[-3:], "big") << block_bits
    for t in range(1, block_bits):  # the window t bits before the end runs into the padding
        counts[(tail >> t) & mask] -= 1
    probs = counts[counts > 0] / n_blocks
    return float(-(probs * np.log(probs)).sum() / block_bits)


def compression_information(data: bytes) -> float:
    """Information estimate from the frozen coder: compressed bits * ln 2, nats."""
    _require_data(data)
    return lz.compressed_size_bits(data) * LN2


def effective_temperature(energy: float, info_nats: float) -> float:
    """Temperature of a file given its energy and estimated information.

    energy / (k_B * info). Returns +inf when a file carries energy but no
    information (the degenerate fully-ordered limit). A negative or
    non-finite argument, or a temperature that overflows, raises DomainError.
    """
    require_at_least(0, energy=energy, information=info_nats)
    if info_nats == 0.0:
        if energy == 0.0:
            raise UndefinedTemperatureError("temperature of zero energy and zero information is undefined")
        return math.inf
    return require_quotient(f"the temperature of {energy} J carrying {info_nats} nats", energy, K_B * info_nats)


def _clamped_score(info_compression: float, info_max: float) -> float:
    return min(1.0, max(0.0, info_compression / info_max))


def equilibrium_score(data: bytes) -> float:
    """Compression information over maximum information, clamped to [0, 1]."""
    _require_data(data)
    return _clamped_score(compression_information(data), max_information(8 * len(data)))


def analyze(data: bytes, bit_energy: float, block_bits: int = DEFAULT_BLOCK_BITS) -> FileReport:
    """Full report for one byte sequence.

    ``info_block_k`` is None when the input is too short even for 1-bit
    blocks; otherwise the largest feasible block size up to ``block_bits``
    is used. The effective temperature uses the compression estimate, the
    tightest of the three information estimates for correlated files.
    """
    require_count(1, 24, block_bits=block_bits)
    bit_length, ones, energy = analyze_counts(data, bit_energy)
    info_max = max_information(bit_length)
    info_order0 = _binary_entropy(ones, bit_length) * bit_length

    # The largest k with bit_length >= 10 * 2^k, that is 2^k <= bit_length // 10.
    k = min(block_bits, (bit_length // _MIN_SAMPLES_PER_STATE).bit_length() - 1)
    info_block = block_entropy(data, k) * bit_length if k >= 1 else None

    info_comp = compression_information(data)
    return FileReport(
        bit_length=bit_length,
        ones_count=ones,
        bit_energy=bit_energy,
        energy=energy,
        info_max=info_max,
        info_order0=info_order0,
        info_block_k=info_block,
        info_compression=info_comp,
        file_temperature=file_temperature(bit_energy),
        effective_temperature=effective_temperature(energy, info_comp),
        equilibrium_score=_clamped_score(info_comp, info_max),
    )
