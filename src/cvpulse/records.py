"""The text format of record CSVs, written and read by numpy, the digests that bind a
record to its sidecar, and the redraw that checks them.

:func:`cvpulse.simulate.write_records`, :func:`cvpulse.simulate.read_records` and the
reader ``analyze`` uses import this module on their first call, so a run without records
does not compile it, and importing cvpulse does not load ``hashlib`` (about 3.7 MB of
resident memory; numpy.random loads it too, through ``secrets``, once a run draws).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from itertools import chain
from typing import Iterator, NoReturn

import numpy as np
from numpy.typing import NDArray

from . import simulate  # loaded first: simulate imports this module on a records call

HEADER = "index,lo_phase_rad,value"


def config_hash(config: dict):
    """A SHA-256 that has taken the canonical JSON of a run's config (sorted keys, no
    spaces), as each digest of a sidecar takes it before the record's bytes or values."""
    return hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())


def drawn(config, chunk_size: int, sha):
    """(start, values) of each chunk of ``sample_pulses(config, chunk_size)``, drawn in
    turn into one reused buffer, each chunk's values hashed into ``sha`` as
    little-endian float64 before it is yielded: the loop that writes a record and the
    one that redraws it.  Sizes are checked before the first draw."""
    chunks = simulate._chunks(config, chunk_size, simulate._STREAM_FAST)
    buffer, scratch = np.empty((2, min(chunk_size, len(config.schedule))))
    draw = simulate._marginal_draw(config, chunk_size)

    def chunk_values():
        for start, stop, rng in chunks:
            values = draw(start, rng, buffer[: stop - start], scratch)
            sha.update(values.astype("<f8", copy=False))
            yield start, values

    return chunk_values()


def redrawn(csv_path: Path, block_size: int, sidecar, stored: dict | None):
    """The block columns, block variances and record count of the CSV that ``sidecar``
    binds, none of its bytes decoded; None where it does not bind it.  Both digests start
    from ``stored``, the sidecar file's own config object (by default its config as
    write_records stores it).  Bytes that give ``records_sha256`` are those write_records
    wrote of that config, so the record is redrawn as the writer drew it into a variance
    stitch, with the schedule's memoized block columns, and kept if it gives
    ``values_sha256``."""
    sha = config_hash(sidecar.config.to_dict() if stored is None else stored)
    values_sha = sha.copy()
    with open(csv_path, "rb") as fh:
        while chunk := fh.read(_READ_BLOCK):
            sha.update(chunk)
    if sha.hexdigest() != sidecar.records_sha256:
        return None
    variances = simulate._Stitch(block_size, simulate._reduce_blocks)
    for start, values in drawn(sidecar.config, sidecar.chunk_size, values_sha):
        variances.add(start, values)
    if values_sha.hexdigest() != sidecar.values_sha256:
        return None
    columns = simulate._block_columns(sidecar.config.schedule, block_size)
    return columns, variances.blocks(), sidecar.n_pulses


_SPLIT = 2.0**27 + 1.0
_WORD = np.dtype("<u8")
_POW10 = np.array([float(10**j) for j in range(23)])  # 10^j is exact for j <= 22
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _times_power_of_ten(a: NDArray[np.float64], scale) -> tuple[NDArray, NDArray]:
    """a 10^scale as p + e exactly, for 0 <= scale <= 22 (Dekker's product)."""
    p = a * _POW10[scale]
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[scale], _POW10_LO[scale]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# Rows are laid out by numpy in little-endian 8-byte words (17 significant
# digits round-trip every float64).  '%.17g' writes a value with
# 10^k <= |v| < 10^(k+1), -4 <= k <= 15, in fixed notation, and
# |v| 10^(16-k) = p + e exactly (10^(16-k) is exact, and so is Dekker's
# product).  p >= 1e16 > 2^53 is an even integer, so p + rint(e) is the
# half-even 17-digit rounding '%.17g' makes; it never reaches 10^17, as no
# float64 in this window lies within 5e-18 relative below a power of ten.
# Zeros are laid out too; '%.17g' itself writes every other value (smaller,
# larger or non-finite).


def _template(k: int | None, negative: int, fraction: int) -> bytes:
    """Fixed-notation '%.17g' of a value with exponent k (None: a zero), for
    its digits d0..d16 in bytes 0..16, as 11 little-endian words: its literal
    bytes, the masks of the digits before and after the point (three words
    each), and the bits each group is shifted by."""
    sign = b"-" * negative
    if k is None:
        literal, before, after, shift = sign + b"0", b"", b"", 0
    elif k < 0:
        literal = sign + b"0." + b"0" * (-k - 1)
        before, after, shift = b"", b"\xff" * 17, len(literal)
    else:
        literal = sign + b"\0" * (k + 1) + b"." * fraction
        before = b"\xff" * (k + 1)
        after, shift = b"\0" * (k + 1) + b"\xff" * (16 - k), len(sign) + 1
    words = b"".join(part.ljust(24, b"\0") for part in (literal, before, after))
    return words + (8 * len(sign)).to_bytes(8, "little") + (8 * shift).to_bytes(8, "little")


# template 4 (k + 4) + 2 negative + fraction, then 80 + negative for a zero
_TEMPLATES = np.frombuffer(
    b"".join(
        _template(k, negative, fraction)
        for k in range(-4, 16) for negative in (0, 1) for fraction in (0, 1)
    ) + _template(None, 0, 0) + _template(None, 1, 0),
    _WORD,
).reshape(-1, 11)
_DIGITS_TO = np.frombuffer(  # the masks of d0..dj
    b"".join((b"\xff" * (j + 1)).ljust(24, b"\0") for j in range(17)), _WORD
).reshape(17, 3)
# k = -5..17: no 10^k rounds below itself, so |v| >= 10^k iff |v| >= it
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 18)])


def _shift_left(words: NDArray[np.uint64], bits: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Multiword integers, least significant word first, shifted left by
    bits < 64 (a numpy shift by 64 gives 0)."""
    out = words << bits
    out[1:] |= words[:-1] >> 64 - bits
    return out


def _eight_digits(x: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """The decimal digits of x < 10^8 as bytes, the first in the low byte."""
    top = x // 10**4
    x = top | (x - top * 10**4) << 32  # 4-digit lanes
    top = x * 10486 >> 20 & 0x0000007F0000007F  # lane // 100
    x = top | (x - top * 100) << 16  # 2-digit lanes
    top = x * 103 >> 10 & 0x000F000F000F000F  # lane // 10
    return top | (x - top * 10) << 8


def _fixed_notation(v: NDArray[np.float64]) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
    """'%.17g' % x of each x of v as three NUL-padded words along axis 0, and
    the mask of the x these are right for: zeros and fixed-notation values."""
    negative = np.signbit(v)
    a = np.abs(v)
    zero = a == 0.0
    fixed = (a >= 1e-4) & (a < 1e16)
    a[~fixed] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= a < _DECADES[k + 5]  # log10 may be off by one next to a power of ten
    k += a >= _DECADES[k + 6]
    p, e = _times_power_of_ten(a, 16 - k)
    digits = (p.astype(np.int64) + np.rint(e).astype(np.int64)).view(np.uint64)

    # d0, then d1-d8 and d9-d16 a byte each; the last digit is the last nonzero one
    high = digits // 10**8
    d0 = high // 10**8
    eights = _eight_digits(np.stack((high - d0 * 10**8, digits - high * 10**8)))
    top_byte = (np.frexp(eights.astype(float))[1] - 1) >> 3  # -1 for no nonzero byte
    last = np.where(top_byte[1] >= 0, 9 + top_byte[1], 1 + top_byte[0])
    eights |= 0x3030303030303030
    x = np.stack((d0 | 0x30 | eights[0] << 8, eights[0] >> 56 | eights[1] << 8, eights[1] >> 56))
    x &= np.moveaxis(np.take(_DIGITS_TO, np.maximum(last, k), axis=0), -1, 0)  # 0s after the point

    index = 4 * (k + 4) + 2 * negative + (last > k)
    index[zero] = 80 + negative[zero]
    template = np.moveaxis(np.take(_TEMPLATES, index, axis=0), -1, 0)
    words = (
        template[:3]
        | _shift_left(x & template[3:6], template[9])
        | _shift_left(x & template[6:9], template[10])
    )
    return words, fixed | zero


def _rows(first: int, phases: NDArray[np.float64], values: NDArray[np.float64]) -> bytes:
    """CSV bytes of pulses first, first + 1, ... with their LO phases and values.

    Each row is laid out in a row of 8-byte words, NUL where it has no byte:
    the index and its comma, then each value in three words and its separator
    in one.  The rows' bytes are all that are not NUL.
    """
    n = len(values)
    width = len(str(first + n - 1))
    lead = width // 8 + 1  # words of the index and its comma
    row = np.zeros(lead + 8, _WORD)
    row.view(np.uint8)[8 * lead - 1] = ord(",")
    row[lead + 3 :: 4] = (ord(","), ord("\n"))
    text = np.empty((n, lead + 8), _WORD)
    text[:] = row
    chars = text.view(np.uint8)
    rest = np.arange(first, first + n)
    for i in range(width):
        quotient = rest // 10
        chars[:, 8 * lead - 2 - i] = rest - 10 * quotient + ord("0")
        rest = quotient
    for i in range(1, width):  # no leading zeros: rows below 10^i have i digits or fewer
        chars[: max(10**i - first, 0), 8 * lead - 2 - i] = 0

    v = np.stack((phases, values), axis=1)
    words, laid_out = _fixed_notation(v)
    fields = text[:, lead:].reshape(n, 2, 4)
    for word in range(3):
        fields[..., word] = words[word]
    rows, columns = np.nonzero(~laid_out)
    written = b"".join((b"%.17g" % x).ljust(24, b"\0") for x in v[rows, columns].tolist())
    fields[rows, columns, :3] = np.frombuffer(written, _WORD).reshape(-1, 3)
    return chars[chars != 0].tobytes()


# Rows per _rows call: a 250k-pulse write_records peaks at 3.1 MB traced with
# 2048 and at 4.6 MB with 4096, which was no faster.
_FORMAT_BATCH = 2048


def format_rows(first: int, phases: NDArray, values: NDArray) -> Iterator[bytes]:
    """The bytes of pulses first, first + 1, ..., a batch of rows at a time."""
    for i in range(0, len(values), _FORMAT_BATCH):
        yield _rows(first + i, phases[i : i + _FORMAT_BATCH], values[i : i + _FORMAT_BATCH])


# Records are read back by a parser that inverts _rows, a block of whole
# lines at a time.  A line takes the fast path when its index is 1-16 digits
# with no leading zero and each value is an optional '-', then 1-8 integer
# digits with no leading zero, then optionally '.' and 1-22 digits, with at
# most 19 significant digits in all.  Each field's digits are read 8 bytes at
# a time from a 1-byte-strided view of the block, in windows that end where
# the field ends (and one that ends at its point): XOR with '0' leaves a
# digit as 0-9, a mask clears the bytes before the digits, and three
# multiply-shift steps sum the word.  The same words mark every byte that is
# not a digit.  A CRLF or a lone CR is read as a newline, as text mode reads
# it.  Every other line (exponent notation, whitespace, '#', '+', leading
# zeros, nan, blank lines) is read by _fields, in Python.  Where a line is
# rejected, or a check fails, a rescan names the first line that fails.
# Bytes read per block: a 250k-pulse file reads in 104 ms with 2^17 (best of
# 12, 2 CPUs), 101 ms with 2^18 and 119 ms with 2^16, at traced peaks of
# 6.1, 8.1 and 5.1 MB (its arrays are 4 MB).
_READ_BLOCK = 2**17
_LOOKBACK = 24  # bytes kept before a block's first line: a field's windows reach back 24
_HEADER_LINE = (HEADER + "\n").encode()
_ZEROS, _LOW_7 = 0x3030303030303030, 0x7F7F7F7F7F7F7F7F
_POW10_INT = _POW10[:20].astype(np.uint64)
_LAST_BYTES = np.frombuffer(  # the masks of the last t of 24 bytes
    b"".join(b"\0" * (24 - t) + b"\xff" * t for t in range(25)), "V24"
)


def _non_digits(x: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """The low bit of each byte of x (XORed with '0') that is not a digit."""
    flags = x & _LOW_7
    flags += 0x7676767676767676  # no byte carries into the next
    flags |= x
    flags >>= 7
    flags &= 0x0101010101010101
    return flags


def _sum_digits(x: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """The number whose decimal digits are the bytes of x, first byte first."""
    x *= 2561  # 10 * 2^8 + 1: 2-digit lanes
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 6553601  # 100 * 2^16 + 1: 4-digit lanes
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 42949672960001  # 10^4 * 2^32 + 1: the 8-digit number
    x >>= 32
    return x


def _decimal_value(digits: NDArray[np.uint64], places: NDArray[np.intp]):
    """The double nearest digits / 10^places, and where it is certainly that.

    q = D / 10^f in float, its residual r = D - q 10^f by Dekker's product,
    then q + r / 10^f, rounded once.  The result is accepted only where the
    residual, carried over to it, lies within 0.95 of the half-gap to the
    neighbouring double on its side: then it is the correctly rounded value,
    the one np.loadtxt (PyOS_string_to_double) gives, and a tie or
    near-tie, where one rounding might err, is never taken.  The residual
    carries about one rounding of itself, far inside that margin.

    Every fixed-notation value _rows writes is accepted: a 17-digit '%.17g'
    of a double v, 10^k <= |v|, is within 0.5 10^(k-16) of v, and the
    half-gap on its side is 2^(e-53) for 2^e <= |v| < 2^(e+1), or 2^(e-54)
    below |v| = 2^e; so it lies within 2^53 / 10^16 ~ 0.9007 of that half-gap.
    """
    power = _POW10[places]
    high = digits.astype(np.float64)  # digits = high + low exactly
    low = (digits - high.astype(np.uint64)).view(np.int64)
    q = high / power
    p, e = _times_power_of_ten(q, places)
    r = high - p  # exact, as p is within 2 ulps of high
    r += low
    r -= e
    rounded = r / power
    rounded += q
    q -= rounded
    q *= power
    r += q
    limit = (rounded.view(np.uint64) & 0x7FF0000000000000).view(np.float64)  # 2^e <= |rounded|
    limit *= power
    # the half-gap is 2^(e-53), and 2^(e-54) below a power of two
    below = (r < 0) & (rounded.view(np.uint64) << 12 == 0)
    limit *= np.where(below, 0.95 * 2.0**-54, 0.95 * 2.0**-53)
    return rounded, np.abs(r) <= limit


def _decimals(a: NDArray[np.uint8], data: bytes, start: NDArray[np.intp], end: NDArray[np.intp]):
    """The doubles of the fields data[start:end] (arrays of one shape), and the mask of
    those the fast path reads: an optional '-', then 1-8 integer digits with no leading
    zero, then optionally '.' and 1-22 digits, at most 19 significant digits in all."""
    negative = a[start] == ord("-")
    start = start + negative
    # the 24 bytes before each field's end as 3 words, and its last byte that
    # is not a digit (gathered as 24-byte items, 3 times faster than words)
    x = np.ndarray((len(a) - 23,), "V24", data, 0, (1,))[end - 24].view(_WORD)
    x = x.reshape(*end.shape, 3)
    x ^= _ZEROS
    top = _non_digits(x).view(np.int64).astype(np.float64).view(np.int64) >> 52  # 1023 + 8 byte
    point = np.maximum(np.maximum(top[..., 0], top[..., 1] + 64), top[..., 2] + 128)
    point -= 1023
    point >>= 3  # 8 word + byte of the last flag, or -1 or less
    np.maximum(point, -1, out=point)
    point += end - 24
    tail = end - point - 1  # digits after it
    x &= _LAST_BYTES[tail].view(_WORD).reshape(x.shape)
    dot = a[point] == ord(".")
    whole = np.where(dot, point - start, 0)  # digits before a point
    y = np.ndarray((len(a) - 7,), "V8", data, 0, (1,))[point - 8].view(_WORD)
    y ^= _ZEROS
    y &= _LAST_BYTES.view(_WORD)[2::3][np.clip(whole, 0, 8)]

    lead = np.where(dot, whole, tail)  # digits before the point, or in all
    ok = np.where(dot, tail >= 1, point == start - 1)
    ok &= (_non_digits(y) == 0) & (lead >= 1) & (lead <= 8) & (tail <= 22)
    ok &= (lead == 1) | (a[start] != ord("0"))
    x, y = _sum_digits(x), _sum_digits(y)
    ok &= (whole + tail <= 19) | ((y == 0) & (x[..., 0] < 1000))  # significant digits
    d = x[..., 0] * 10**16 + x[..., 1] * 10**8 + x[..., 2]
    d += y * _POW10_INT[np.minimum(tail, 19)]
    value, exact = _decimal_value(d * ok, tail * (ok & dot))
    value.view(np.uint64)[:] |= negative.astype(np.uint64) << 63
    return value, ok & exact


def _parse_block(data: bytes, stop: int) -> NDArray[np.float64] | None:
    """The index, phase and value rows (3, n) of the lines of
    data[_LOOKBACK:stop], each ending in a newline; None where a line the
    fast path declines is not UTF-8 or _fields rejects it."""
    a = np.frombuffer(data, np.uint8, stop)
    seps = np.flatnonzero(a < ord("-"))  # ',', '\n', and bytes no fast line has
    seps = seps[np.searchsorted(seps, _LOOKBACK - 1) :]
    kind = a[seps]
    newlines = np.flatnonzero(kind == ord("\n"))
    ends = newlines[1:]
    candidates = np.flatnonzero(
        (ends - newlines[:-1] == 3) & (kind[ends - 1] == ord(",")) & (kind[ends - 2] == ord(","))
    )
    # the first byte and the end of each candidate's index, phase and value
    bounds = seps[ends[candidates] - np.arange(3, -1, -1)[:, None]]
    start, end = bounds[:3] + 1, bounds[1:]
    value, fast = _decimals(a, data, start[1:], end[1:])
    # an index is 1-16 digits with no leading zero: the last of the 24 bytes before its end
    width = end[0] - start[0]
    x = np.ndarray((stop - 23,), "V24", data, 0, (1,))[end[0] - 24].view(_WORD).reshape(-1, 3)
    x ^= _ZEROS
    x &= _LAST_BYTES[np.minimum(width, 24)].view(_WORD).reshape(x.shape)
    fast = fast.all(axis=0) & (_non_digits(x) == 0).all(axis=1) & (width >= 1) & (width <= 16)
    fast &= (width == 1) | (a[start[0]] != ord("0"))
    x = _sum_digits(x)
    table = np.empty((3, len(fast)))
    table[0], table[1:] = x[:, 0] * 10**16 + x[:, 1] * 10**8 + x[:, 2], value

    kept = candidates[fast]
    if len(kept) == len(ends):
        return table
    declined = np.delete(np.arange(len(ends)), kept)
    starts, stops = (seps[newlines[declined]] + 1).tolist(), seps[ends[declined]].tolist()
    at, rows = [], []
    for i, (line, start, stop) in enumerate(zip(declined.tolist(), starts, stops)):
        try:
            fields = _fields(data[start:stop].decode())
        except ValueError:  # UnicodeDecodeError included
            return None
        if fields is not None:
            at.append(line - i)  # the fast lines before it
            rows.append(fields)
    return np.insert(table[:, fast], at, np.reshape(rows, (-1, 3)).T, axis=1)


def _text_blocks(fh) -> Iterator[bytes]:
    """The blocks of a binary file with each CRLF and lone CR made a newline,
    as text mode reads them (a CRLF split between blocks adds an empty line)."""
    while chunk := fh.read(_READ_BLOCK):
        if b"\r" in chunk:  # rebound, so the block as read is not held while it is parsed
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield chunk


def read(csv_path: Path) -> Iterator[tuple[NDArray[np.float64], NDArray[np.float64], int]]:
    """(LO phases, values, file offset of the end) of each block of whole lines of csv_path,
    its index checked, as read_records reads them; the header matches after str.strip()."""
    rows, header = 0, b""
    with open(csv_path, "rb") as fh:
        blocks = chain(_text_blocks(fh), [b"\n"])  # a last line may have no newline
        while b"\n" not in header:
            header += next(blocks)
        header, _, chunk = header.partition(b"\n")
        if header.decode("utf-8", "replace").strip() != HEADER:
            _raise_at_first_bad_line(csv_path)
        data = _HEADER_LINE[-_LOOKBACK:]
        while chunk is not None:
            data += chunk
            stop = data.rfind(b"\n", _LOOKBACK) + 1
            if stop:
                table = _parse_block(data, stop)
                if table is None or np.any(table[0] != np.arange(rows, rows + table.shape[1])):
                    _raise_at_first_bad_line(csv_path)
                rows += table.shape[1]
                yield table[1], table[2], fh.tell() - len(data) + stop
                data = data[stop - _LOOKBACK :]
            chunk = next(blocks, None)
    if rows == 0:
        _raise_at_first_bad_line(csv_path)


# A field np.loadtxt reads (PyOS_string_to_double after stripping whitespace).
_FLOAT_FIELD = re.compile(
    r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE
)


def _fields(line: str) -> list[float] | None:
    """The index, phase and value of a records line (without its newline) as
    np.loadtxt reads them, or None for a line it skips; raises ValueError,
    naming the fault, where np.loadtxt rejects the line or a value is not finite."""
    text = line.split("#", 1)[0]
    if not text:  # np.loadtxt skips empty and comment lines, not blank ones
        return None
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 3 fields, got {len(parts)}")
    if not all(_FLOAT_FIELD.fullmatch(part) for part in parts):
        raise ValueError(f"non-numeric field in {line.strip()!r}")
    fields = [float(part) for part in parts]
    if not all(map(math.isfinite, fields)):
        raise ValueError(f"non-finite field in {line.strip()!r}")
    return fields


def _raise_at_first_bad_line(csv_path: Path) -> NoReturn:
    """Rescan a records file and raise ValueError at its first line that is
    not UTF-8 text, or that np.loadtxt or the checks of read_records reject;
    a file read rejects with no such line holds no records."""
    name, row = csv_path.name, 0
    with open(csv_path, encoding="utf-8", errors="surrogateescape") as fh:
        # an empty file's line 1 is ''
        for lineno, line in enumerate(chain([fh.readline()], fh), start=1):
            text = line.rstrip("\n")
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as error:
                    byte = ord(text[error.start]) - 0xDC00
                    raise ValueError(
                        f"{name} line {lineno}: byte 0x{byte:02x} is not UTF-8 text"
                    ) from None
            if lineno == 1:
                if text.strip() != HEADER:
                    raise ValueError(
                        f"{name} line 1: expected header {HEADER!r}, got {text.strip()!r}"
                    )
                continue
            try:
                fields = _fields(text)
                if fields is not None and fields[0] != row:
                    raise ValueError(f"expected index {row}, got {text.split(',', 1)[0].strip()}")
            except ValueError as error:
                raise ValueError(f"{name} line {lineno}: {error}") from None
            if fields is not None:
                row += 1
    raise ValueError(f"{name}: no records")
