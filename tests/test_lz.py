import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infotherm import lz
from infotherm.errors import DomainError

MEGABYTE = 1 << 20


# Verbatim copy of the original coder (before the candidate-skip fast path),
# kept as the byte-identity oracle for lz.compress.
def _reference_match_length(data: bytes, src: int, cur: int, limit: int) -> int:
    length = 0
    maxlen = limit - cur
    while length < maxlen:
        chunk = min(512, maxlen - length)
        if data[src + length : src + length + chunk] == data[cur + length : cur + length + chunk]:
            length += chunk
        else:
            while length < maxlen and data[src + length] == data[cur + length]:
                length += 1
            break
    return length


def _reference_emit_length(out: bytearray, token_pos: int, high_nibble: bool, value: int) -> None:
    code = min(value, 15)
    if high_nibble:
        out[token_pos] |= code << 4
    else:
        out[token_pos] |= code
    if code == 15:
        rest = value - 15
        while rest >= 255:
            out.append(255)
            rest -= 255
        out.append(rest)


def reference_compress(data: bytes) -> bytes:
    n = len(data)
    out = bytearray()
    table: dict[bytes, list[int]] = {}
    i = 0
    anchor = 0
    misses = 0

    def emit(literal_end: int, match_len: int, offset: int) -> None:
        token_pos = len(out)
        out.append(0)
        lit_len = literal_end - anchor
        _reference_emit_length(out, token_pos, True, lit_len)
        out.extend(data[anchor:literal_end])
        if match_len:
            stored = offset - 1
            out.append(stored & 0xFF)
            out.append(stored >> 8)
            _reference_emit_length(out, token_pos, False, match_len - 3)

    while i + 3 <= n:
        key = data[i : i + 3]
        candidates = table.get(key)
        best_len = 0
        best_off = 0
        if candidates:
            for cand in reversed(candidates):
                if i - cand > 65536:
                    break  # positions are stored in increasing order
                length = _reference_match_length(data, cand, i, n)
                if length > best_len:
                    best_len = length
                    best_off = i - cand
        if candidates is None:
            table[key] = [i]
        else:
            candidates.append(i)
            if len(candidates) > 16:
                del candidates[0]

        if best_len >= 3:
            emit(i, best_len, best_off)
            i += best_len
            anchor = i
            misses = 0
        else:
            i += 1 + (misses >> 6)
            misses += 1

    if anchor < n:
        emit(n, 0, 0)
    return bytes(out)


CORPUS_BYTES = 64 << 10
_WORDS = (b"the", b"of", b"heat", b"bit", b"entropy", b"gas", b"energy", b"information",
          b"temperature", b"file", b"and", b"a", b"is", b"to", b"coder", b"window")


def low_entropy_corpus(kind: str, seed: int = 2006) -> bytes:
    """64 KiB of 4-symbol, 16-symbol, 10%-ones or word-text bytes."""
    rng = np.random.default_rng(seed)
    if kind in ("sym4", "sym16"):
        symbols = rng.choice(256, size=4 if kind == "sym4" else 16, replace=False).astype(np.uint8)
        return symbols[rng.integers(0, len(symbols), size=CORPUS_BYTES)].tobytes()
    if kind == "ones10":
        return np.packbits(rng.random(8 * CORPUS_BYTES) < 0.1).tobytes()
    words = rng.integers(0, len(_WORDS), size=CORPUS_BYTES // 2)
    return b" ".join(_WORDS[w] for w in words)[:CORPUS_BYTES]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"ab",
            b"abc",
            b"aaaa",
            b"abcabcabcabc",
            b"you've got to dig it to dig it, you dig?",
            bytes(range(256)) * 10,
            b"\x00" * 70000,  # run longer than the window
            b"ab" * 40000,
        ],
    )
    def test_fixed_cases(self, data):
        assert lz.decompress(lz.compress(data)) == data

    @given(st.binary(max_size=4096))
    @settings(max_examples=300)
    def test_arbitrary_bytes(self, data):
        assert lz.decompress(lz.compress(data)) == data

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=20000))
    @settings(max_examples=50)
    def test_seeded_random_buffers(self, seed, size):
        data = np.random.default_rng(seed).bytes(size)
        assert lz.decompress(lz.compress(data)) == data

    def test_megabyte_corpora(self, zeros_megabyte, sorted_megabyte, periodic_megabyte, random_megabyte):
        for data in (zeros_megabyte, sorted_megabyte, periodic_megabyte, random_megabyte):
            assert lz.decompress(lz.compress(data)) == data


class TestFrozenBehaviour:
    """The coder is a frozen reference; its exact output sizes are pinned."""

    def test_determinism(self, random_megabyte):
        assert lz.compress(random_megabyte) == lz.compress(random_megabyte)

    def test_pinned_sizes(
        self, zeros_megabyte, sorted_megabyte, periodic_megabyte, random_megabyte, balanced_random_megabyte
    ):
        assert len(lz.compress(zeros_megabyte)) == 4116
        assert len(lz.compress(sorted_megabyte)) == 4120
        assert len(lz.compress(periodic_megabyte)) == 4116
        assert len(lz.compress(random_megabyte)) == 1052692
        assert len(lz.compress(balanced_random_megabyte)) == 1052690

    def test_compressed_size_bits_is_eight_times_bytes(self):
        data = b"abcabcabc"
        assert lz.compressed_size_bits(data) == 8 * len(lz.compress(data))


class TestByteIdentity:
    """lz.compress must emit exactly the bytes of the reference coder."""

    @given(
        st.sampled_from([1, 2, 4, 16, 256]),
        st.integers(min_value=0, max_value=8192),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_over_alphabets(self, alphabet, size, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, alphabet, size=size, dtype=np.uint8).tobytes()
        assert lz.compress(data) == reference_compress(data)

    @given(
        st.binary(min_size=1, max_size=300),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=299),
        st.binary(max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_running_to_the_end(self, unit, repeats, cut, head):
        # The last match ends exactly at the end of the buffer, so the
        # search stops as soon as a candidate reaches it.
        data = head + unit * repeats + unit[: cut % len(unit)]
        assert lz.compress(data) == reference_compress(data)

    @pytest.mark.parametrize("data", [b"abcabc", b"\x00" * 5, b"xyzxyzxyz", b"ab" * 3000 + b"a", b"q" * 70001])
    def test_fixed_tails(self, data):
        assert lz.compress(data) == reference_compress(data)

    @pytest.mark.parametrize("value", [0, 14, 15, 16, 269, 270, 271, 524, 525, 70000])
    def test_length_extension_matches_reference(self, value):
        # The reference writes the code into the token at 0, then appends the extension.
        out = bytearray(1)
        _reference_emit_length(out, 0, True, value)
        assert lz._ext(value) == bytes(out[1:])

    @pytest.mark.parametrize(
        "kind,digest",
        [
            ("sym4", "0298f8b6cd129f301bc66870f957a8565379070d66c82e8e84259358f7bc9f2a"),
            ("sym16", "eb6d8600af6a39d1415d9fb741104ee0561d0e24d5d2fa3804896c17e165211a"),
            ("ones10", "f97991f8cf76d3f6690220b0dab4c2543334f43b6480aa689dcd334b4bc1ae0f"),
            ("text", "042b9023bffe3ff0cc85e0d2cd1debb86814eb8ca635934b7e75018fff3b1d7f"),
        ],
    )
    def test_pinned_low_entropy_digests(self, kind, digest):
        assert hashlib.sha256(lz.compress(low_entropy_corpus(kind))).hexdigest() == digest


class TestSizeOnlyConsumer:
    """compressed_size_bits adds up block sizes; it must equal the reference coder's output size."""

    @given(
        st.sampled_from([1, 2, 4, 16, 256]),
        st.integers(min_value=0, max_value=8192),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_over_alphabets(self, alphabet, size, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, alphabet, size=size, dtype=np.uint8).tobytes()
        assert lz.compressed_size_bits(data) == 8 * len(reference_compress(data))

    @given(
        st.binary(min_size=1, max_size=300),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=299),
        st.binary(max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_running_to_the_end(self, unit, repeats, cut, head):
        data = head + unit * repeats + unit[: cut % len(unit)]
        assert lz.compressed_size_bits(data) == 8 * len(reference_compress(data))

    def test_megabyte_corpora(
        self, zeros_megabyte, sorted_megabyte, periodic_megabyte, random_megabyte, balanced_random_megabyte
    ):
        for data in (zeros_megabyte, sorted_megabyte, periodic_megabyte, random_megabyte, balanced_random_megabyte):
            assert lz.compressed_size_bits(data) == 8 * len(reference_compress(data))

    def test_never_calls_compress(self, monkeypatch):
        def refuse(data):
            raise AssertionError("compressed_size_bits must not build the stream")

        monkeypatch.setattr(lz, "compress", refuse)
        assert lz.compressed_size_bits(b"abcabcabc" * 20) == 8 * len(reference_compress(b"abcabcabc" * 20))


#: Equal runs at the edges of _extend: the byte loop ends at 16 bytes, and
#: chunks of 16, 32, ... 4096 bytes then cover [16, 32), [32, 64), ...,
#: [4096, 8192), [8192, 12288). Matches of 18, 19 and 272..274 bytes have
#: the length codes 15, 16 and 269..271: the first extension byte, and its
#: rollover at 255.
_RUN_LENGTHS = (3, 4, 15, 16, 17, 18, 19, 31, 32, 33, 63, 64, 65, 272, 273, 274,
                4095, 4096, 4097, 8192, 8193, 12289)


def _three_copies(older: bytes, newer: bytes, current: bytes) -> bytes:
    """older, newer and current, split by runs of zeros and of ones.

    Each run ends in a match that stops at the next copy, so the scan lands on
    every copy's first byte with step 1. With copies of one random string r
    (bytes 3..255), the search at ``current`` tries ``newer`` first, then
    ``older``.
    """
    return older + b"\x00" * 64 + newer + b"\x01" * 64 + current


def _random_string(size: int, seed: int = 77) -> bytes:
    return bytes(np.random.default_rng(seed).integers(3, 256, size=size, dtype=np.uint8))


def _assert_matches_reference(data: bytes) -> None:
    expected = reference_compress(data)
    assert lz.compress(data) == expected
    assert lz.compressed_size_bits(data) == 8 * len(expected)


class TestExtendEdges:
    """Byte identity with the reference coder where _extend changes how it compares."""

    @pytest.mark.parametrize("run", _RUN_LENGTHS)
    def test_overlapping_run(self, run):
        # At position 1 the candidate at offset 1 matches exactly `run` bytes.
        data = b"\x00" * (run + 1) + b"\x01" + b"\x00" * 5
        _assert_matches_reference(data)

    @pytest.mark.parametrize("run", _RUN_LENGTHS)
    def test_overlapping_run_to_the_end(self, run):
        data = b"\x01" + b"\x00" * (run + 1)
        _assert_matches_reference(data)

    @pytest.mark.parametrize("short,long", [(3, 15), (14, 16), (15, 17), (16, 31), (17, 32), (31, 33),
                                            (3, 4097), (4096, 4097), (15, 12289)])
    def test_later_candidate_wins(self, short, long):
        # The newer copy matches `short` bytes, the older one `long` bytes.
        r = _random_string(long)
        data = _three_copies(r, r[:short], r + b"\x02")
        _assert_matches_reference(data)

    @pytest.mark.parametrize("short,long", [(3, 17), (16, 33), (40, 4097)])
    def test_later_candidate_runs_to_the_end(self, short, long):
        r = _random_string(long + 1)
        data = _three_copies(r, r[:short], r[:long])
        _assert_matches_reference(data)

    @pytest.mark.parametrize("short,long", [(5, 17), (20, 40)])
    def test_prefix_mismatch_is_skipped(self, short, long):
        # The older copy agrees with the current one at byte `short` but not at
        # byte 3, so it passes the byte test and must still not be measured.
        r = _random_string(long)
        decoy = r[:3] + bytes([r[3] ^ 1]) + r[4:]
        data = _three_copies(decoy, r[:short], r + b"\x02")
        _assert_matches_reference(data)

    @pytest.mark.parametrize("offset", [65536, 65537])
    def test_window_edge(self, offset):
        head = _random_string(40, seed=9)
        data = head + b"\x00" * (offset - len(head)) + head
        _assert_matches_reference(data)
        # Inside the window the repeated head is one 4-byte match block; outside it
        # is 40 literals after a token and one length extension byte.
        added = len(lz.compress(data)) - len(lz.compress(data[: -len(head)]))
        assert added == (4 if offset == 65536 else 42)

    def test_extension_starts_past_the_known_prefix(self, monkeypatch):
        # The first candidate is measured from MIN_MATCH (the key matched);
        # a later one only when it wins, from the previous best + 1.
        calls = []
        extend = lz._extend

        def spy(data, src, cur, length, maxlen):
            assert data[src : src + length] == data[cur : cur + length]
            result = extend(data, src, cur, length, maxlen)
            calls.append((cur, length, result))
            return result

        monkeypatch.setattr(lz, "_extend", spy)
        data = low_entropy_corpus("text")[:16384]
        assert lz.compress(data) == reference_compress(data)
        best = {}
        for cur, length, result in calls:
            assert length == (best[cur] + 1 if cur in best else lz.MIN_MATCH)
            best[cur] = result
        assert len(calls) > len(best)  # some later candidates won


def _miss_scans(n: int) -> list[int]:
    """The positions a scan of n bytes visits while every key is new."""
    scans, i, misses = [], 0, 0
    while i + lz.MIN_MATCH <= n:
        scans.append(i)
        i += 1 + (misses >> lz.SKIP_SHIFT)
        misses += 1
    return scans


#: Seeded so that no two keys at the miss scans repeat: a scan of a prefix of
#: _NOISE visits exactly _SCANS, with the step growing after every 64 misses.
_NOISE = np.random.default_rng(1717).bytes(80000)
_SCANS = _miss_scans(len(_NOISE))


class TestTableStates:
    """Byte identity where a key's table entry is new, a bare position, or a list."""

    @pytest.mark.parametrize("distance", [65536, 65537])
    def test_strided_singleton_at_the_window_edge(self, distance):
        # The repeat at q finds the key of one earlier scan p, made after the
        # step had grown, at exactly the window's reach or one byte past it.
        q = next(q for q in _SCANS if q - distance in _SCANS[2 << lz.SKIP_SHIFT :])
        p = q - distance
        data = _NOISE[:q] + _NOISE[p : p + 40]
        _assert_matches_reference(data)
        expected = (0, q, 40, distance) if distance == 65536 else (0, len(data), 0, 0)
        assert list(lz._blocks(data)) == [expected]

    @pytest.mark.parametrize("offset", [65536, 65537])
    def test_promoted_key_at_the_window_edge(self, offset):
        # The key r[:3] is scanned at 0, then at 104, where it becomes a list and
        # matches; its third scan is `offset` bytes after the second.
        r = _random_string(40, seed=11)
        data = r + b"\x00" * 64 + r + b"\x00" * (offset - 40) + r
        _assert_matches_reference(data)
        current = 104 + offset
        expected = (current, current, 40, offset) if offset == 65536 else (current, len(data), 0, 0)
        assert list(lz._blocks(data))[-1] == expected

    @pytest.mark.parametrize("tail", ["new", "repeat"])
    def test_miss_run_ending_at_the_last_key(self, tail):
        # The miss scans run up to exactly n - MIN_MATCH, whose key is new or
        # repeats an earlier strided scan.
        q, p = _SCANS[200], _SCANS[100]
        data = _NOISE[:q] + (_NOISE[q : q + 3] if tail == "new" else _NOISE[p : p + 3])
        _assert_matches_reference(data)
        expected = (0, len(data), 0, 0) if tail == "new" else (0, q, 3, q - p)
        assert list(lz._blocks(data)) == [expected]

    @given(st.integers(min_value=0, max_value=70000), st.integers(min_value=1, max_value=66000))
    @settings(max_examples=30, deadline=None)
    def test_planted_repeat_over_prefix_and_distance(self, prefix, distance):
        # Bytes of the last miss scan at least `distance` back are repeated at `prefix`.
        source = max((p for p in _SCANS if p <= prefix - distance), default=0)
        _assert_matches_reference(_NOISE[:prefix] + _NOISE[source : source + 12])

    def test_traced_peak_on_random_megabyte(self):
        # Nearly every key of random input is scanned once and holds a bare
        # position: measured 1.55 MiB, against 2.21 MiB when every key held a list.
        data = np.random.default_rng(2006).bytes(MEGABYTE)
        tracemalloc.start()
        try:
            lz.compressed_size_bits(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * MEGABYTE


class TestRatios:
    def test_constant_input_collapses(self, zeros_megabyte):
        assert len(lz.compress(zeros_megabyte)) < 0.01 * MEGABYTE

    def test_incompressible_input_overhead_bounds(self, random_megabyte):
        ratio = len(lz.compress(random_megabyte)) / MEGABYTE
        assert 0.98 <= ratio <= 1.05

    def test_ordered_input_collapses(self, sorted_megabyte):
        assert len(lz.compress(sorted_megabyte)) < 0.05 * MEGABYTE

    def test_compressed_output_is_near_incompressible(self, random_megabyte):
        blob = lz.compress(random_megabyte)
        again = lz.compress(blob)
        assert len(again) >= 0.95 * len(blob)

    def test_never_expands_beyond_documented_bound(self):
        # Adversarial-ish inputs: alternating noise and short repeats.
        rng = np.random.default_rng(5150)
        noise = rng.bytes(3000)
        samples = [
            noise,
            b"".join(noise[i : i + 3] * 2 for i in range(0, 3000, 3)),
            bytes(rng.integers(0, 4, 50000, dtype=np.uint8)),
        ]
        for data in samples:
            assert len(lz.compress(data)) <= 1.05 * len(data) + 16


class TestDecoderValidation:
    def test_truncated_literal_run(self):
        blob = lz.compress(b"hello hello hello hello")
        with pytest.raises(DomainError):
            lz.decompress(blob[:3])

    def test_match_before_stream_start(self):
        # token: 0 literals, minimum match, offset 10 into an empty history
        with pytest.raises(DomainError):
            lz.decompress(bytes([0x00, 0x09, 0x00]))
