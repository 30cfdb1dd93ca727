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
  key, most recent first; only scanned positions are inserted. Once a match
  of length best_len is found, a candidate whose byte at offset best_len
  differs from the current position's is skipped, and the search stops when
  best_len reaches the end of the input. Only a strictly longer match
  replaces the best, and neither kind of candidate can be longer, so the
  output is the same as measuring every candidate.

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
_EXTEND_CHUNK = 512


def _match_length(data: bytes, src: int, cur: int, limit: int) -> int:
    """Length of the common run of data[src:] and data[cur:], up to limit - cur.

    src < cur; the regions may overlap, which simply means the match
    replicates recent bytes (the decoder copies byte-serially).
    """
    length = 0
    maxlen = limit - cur
    while length < maxlen:
        chunk = min(_EXTEND_CHUNK, maxlen - length)
        if data[src + length : src + length + chunk] == data[cur + length : cur + length + chunk]:
            length += chunk
        else:
            while length < maxlen and data[src + length] == data[cur + length]:
                length += 1
            break
    return length


def _emit_length(out: bytearray, token_pos: int, high_nibble: bool, value: int) -> None:
    """Write a 0..15(+ext) length code into the token at token_pos."""
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


def _emit(out: bytearray, data: bytes, anchor: int, literal_end: int, match_len: int, offset: int) -> None:
    """Append one block: the literals data[anchor:literal_end], then the match if any."""
    token_pos = len(out)
    out.append(0)
    _emit_length(out, token_pos, True, literal_end - anchor)
    out.extend(data[anchor:literal_end])
    if match_len:
        stored = offset - 1
        out.append(stored & 0xFF)
        out.append(stored >> 8)
        _emit_length(out, token_pos, False, match_len - MIN_MATCH)


def compress(data: bytes) -> bytes:
    """Compress ``data``; identical input always yields identical output."""
    n = len(data)
    out = bytearray()
    table: dict[bytes, list[int]] = {}
    i = 0
    anchor = 0
    misses = 0

    while i + MIN_MATCH <= n:
        key = data[i : i + MIN_MATCH]
        candidates = table.get(key)
        best_len = 0
        best_off = 0
        if candidates:
            for cand in reversed(candidates):
                if i - cand > WINDOW_SIZE or i + best_len >= n:
                    break  # positions are stored in increasing order; no longer match fits
                if best_len and data[cand + best_len] != data[i + best_len]:
                    continue  # cannot exceed best_len
                length = _match_length(data, cand, i, n)
                if length > best_len:
                    best_len = length
                    best_off = i - cand
        if candidates is None:
            table[key] = [i]
        else:
            candidates.append(i)
            if len(candidates) > MAX_CANDIDATES:
                del candidates[0]

        if best_len >= MIN_MATCH:
            _emit(out, data, anchor, i, best_len, best_off)
            i += best_len
            anchor = i
            misses = 0
        else:
            i += 1 + (misses >> SKIP_SHIFT)
            misses += 1

    if anchor < n:
        _emit(out, data, anchor, n, 0, 0)
    return bytes(out)


def compressed_size_bits(data: bytes) -> int:
    """Compressed size of ``data`` in bits."""
    return 8 * len(compress(data))


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
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping copy: replicate the trailing `offset` bytes.
            piece = bytes(out[start:])
            reps = -(-match_len // offset)
            out += (piece * reps)[:match_len]
    return bytes(out)
