"""Self-contained sliding-window match coder (LZ77 family), frozen parameters.

This is the package's reference "universal coder": the compressed size is a
deterministic, reproducible upper bound on the information content of a byte
sequence. It is deliberately simple and its parameters are frozen; tuning it
would silently change every information estimate built on top of it.

Frozen parameters
-----------------
- window: 64 KiB (matches may reach back up to 65536 bytes)
- minimum match length: 3 bytes
- parsing: greedy, with step acceleration through long literal runs
  (after every 64 consecutive match misses the scan step grows by one byte)
- match search: exact 3-byte key table, at most 16 remembered positions per
  key, most recent first; only scanned positions are inserted. A key never
  scanned before is a miss with no search, and its table entry holds its bare
  position until its second scan turns it into a list. The first candidate
  in the window is measured from its third byte on, since the key already
  matched. Once a match of length best_len is found, a later
  candidate is measured only if it is sure to win: its byte at offset
  best_len and its first best_len bytes must equal the current position's,
  so it is at least best_len + 1 long and extension starts there. The search
  stops when best_len reaches the end of the input. Only a strictly longer
  match replaces the best, and no skipped candidate can be longer, so the
  output is the same as measuring every candidate. Extension (``_extend``)
  compares byte by byte up to 16 bytes, then in doubling chunks of up to
  4 KiB, and finds the first difference in a chunk from the highest set bit
  of the XOR of the two chunks read as integers.

One parse, ``_blocks``, serves both consumers: ``compress`` emits each
block's bytes, and ``compressed_size_bits`` adds up their sizes without
building them.

Container format (little-endian)
--------------------------------
A stream of blocks. Each block is:

    token               1 byte: high nibble = literal run length code,
                        low nibble = match length code
    [literal run ext]   if literal code == 15: bytes each adding 0..255,
                        terminated by the first byte != 255
    literals            the literal bytes themselves
    [match]             absent only in a final literals-only block:
        offset          2 bytes, stored as (offset - 1), offset in [1, 65536]
        [match ext]     if match code == 15: same extension scheme

Match length = 3 + code (+ extension). A block whose literals end exactly at
end of stream has no match part; the decoder detects this by stream
exhaustion. Worst-case expansion on incompressible input is below 0.5%
(one token byte per 255-byte literal extension step); the documented bound
used by callers is 5%.
"""

from .errors import DomainError

WINDOW_SIZE = 65536
MIN_MATCH = 3
MAX_CANDIDATES = 16
SKIP_SHIFT = 6  # scan step = 1 + (consecutive misses >> SKIP_SHIFT)
_SHORT_RUN = 16  # _extend compares byte by byte up to this length, then in chunks
_MAX_CHUNK = 4096


def _extend(data: bytes, src: int, cur: int, length: int, maxlen: int) -> int:
    """Length of the common run of data[src:] and data[cur:], capped at maxlen.

    The caller guarantees that the first ``length`` bytes are equal. src < cur;
    the regions may overlap, which simply means the match replicates recent
    bytes (the decoder copies byte-serially).
    """
    while length < _SHORT_RUN:
        if length >= maxlen or data[src + length] != data[cur + length]:
            return length
        length += 1
    chunk = _SHORT_RUN
    while length < maxlen:
        step = min(chunk, maxlen - length)
        a = data[src + length : src + length + step]
        b = data[cur + length : cur + length + step]
        if a != b:
            # The first differing byte holds the highest set bit of a ^ b.
            diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            return length + step - (diff.bit_length() + 7) // 8
        length += step
        chunk = min(2 * chunk, _MAX_CHUNK)
    return length


def _ext(value: int) -> bytes:
    """Extension bytes of a length code value: none below 15, else (value - 15) // 255 bytes of 255, then the rest."""
    return b"" if value < 15 else b"\xff" * ((value - 15) // 255) + bytes(((value - 15) % 255,))


def _blocks(data: bytes):
    """Greedy parse of ``data``: yields (anchor, literal_end, match_len, offset) per block.

    The block holds the literals data[anchor:literal_end], then a match of
    match_len bytes at distance offset, or no match when match_len is 0 (only
    in a final literals-only block).
    """
    n = len(data)
    table: dict[bytes, int | list[int]] = {}  # one scanned position, or up to MAX_CANDIDATES
    get = table.get
    last = n - MIN_MATCH
    i = 0
    anchor = 0
    misses = 0

    while i <= last:
        key = data[i : i + MIN_MATCH]
        candidates = get(key)
        if candidates is None:  # a new key: a miss, with nothing to search
            table[key] = i
            i += 1 + (misses >> SKIP_SHIFT)
            misses += 1
            continue
        if isinstance(candidates, int):  # the key's second scan
            candidates = table[key] = [candidates]
        best_len = 0
        lo = i - WINDOW_SIZE
        maxlen = n - i
        older = reversed(candidates)  # positions are stored in increasing order
        for cand in older:  # the newest candidate
            if cand >= lo:
                best_len = _extend(data, cand, i, MIN_MATCH, maxlen)  # the key holds 3 equal bytes
                best_off = i - cand
            break
        if 0 < best_len < maxlen:
            next_byte = data[i + best_len]
            for cand in older:  # older candidates, measured only if sure to win
                if cand < lo:
                    break
                if data[cand + best_len] == next_byte and data[cand : cand + best_len] == data[i : i + best_len]:
                    best_len = _extend(data, cand, i, best_len + 1, maxlen)  # strictly longer, so it wins
                    best_off = i - cand
                    if best_len == maxlen:
                        break  # no longer match fits
                    next_byte = data[i + best_len]
        candidates.append(i)
        if len(candidates) > MAX_CANDIDATES:
            del candidates[0]

        if best_len:
            yield anchor, i, best_len, best_off
            i += best_len
            anchor = i
            misses = 0
        else:
            i += 1 + (misses >> SKIP_SHIFT)
            misses += 1

    if anchor < n:
        yield anchor, n, 0, 0


def compress(data: bytes) -> bytes:
    """Compress ``data``; identical input always yields identical output."""
    out = bytearray()
    for anchor, literal_end, match_len, offset in _blocks(data):
        lit, code = literal_end - anchor, match_len - MIN_MATCH
        out.append(min(lit, 15) << 4 | (min(code, 15) if match_len else 0))
        out += _ext(lit)
        out += data[anchor:literal_end]
        if match_len:
            out += (offset - 1).to_bytes(2, "little") + _ext(code)
    return bytes(out)


def compressed_size_bits(data: bytes) -> int:
    """Compressed size of ``data`` in bits, added up from the blocks without building them."""
    # Per block, as `compress` writes it: a token, the literals, and for a match two
    # offset bytes; a length code value v >= 15 adds (v - 15) // 255 + 1 bytes.
    size = 0
    for anchor, literal_end, match_len, _ in _blocks(data):
        lit = literal_end - anchor
        size += 1 + lit + (0 if lit < 15 else (lit - 15) // 255 + 1)
        if match_len:
            code = match_len - MIN_MATCH
            size += 2 + (0 if code < 15 else (code - 15) // 255 + 1)
    return 8 * size


def _read_length(blob: bytes, pos: int, code: int) -> tuple[int, int]:
    value = code
    if code == 15:
        while True:
            if pos >= len(blob):
                raise DomainError("truncated stream: unterminated length extension")
            byte = blob[pos]
            pos += 1
            value += byte
            if byte != 255:
                break
    return value, pos


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`."""
    out = bytearray()
    pos = 0
    n = len(blob)
    while pos < n:
        token = blob[pos]
        pos += 1
        lit_len, pos = _read_length(blob, pos, token >> 4)
        if pos + lit_len > n:
            raise DomainError("truncated stream: literal run past end")
        out += blob[pos : pos + lit_len]
        pos += lit_len
        if pos == n:
            break  # final literals-only block
        if pos + 2 > n:
            raise DomainError("truncated stream: missing match offset")
        offset = blob[pos] | (blob[pos + 1] << 8)
        offset += 1
        pos += 2
        match_len, pos = _read_length(blob, pos, token & 0x0F)
        match_len += MIN_MATCH
        start = len(out) - offset
        if start < 0:
            raise DomainError("corrupt stream: match reaches before stream start")
        # A match longer than its offset overlaps itself: it repeats the offset's bytes.
        piece = out[start : start + min(offset, match_len)]
        out += (piece * -(-match_len // len(piece)))[:match_len]
    return bytes(out)
