"""The text format of record CSVs, written by a vectorized formatter and read by
np.loadtxt, the digests that bind a record to its sidecar, and :func:`blocks`, the one
route by which ``analyze`` refuses, redraws or reads a record.

:func:`cvpulse.simulate.write_records`, :func:`cvpulse.simulate.read_records` and
``analyze`` import this module on their first call, so a run without records
does not compile it, and importing cvpulse does not load ``hashlib`` (about 3.7 MB of
resident memory; numpy.random loads it too, through ``secrets``, once a run draws).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from itertools import chain
from typing import Iterator, NoReturn

import numpy as np
from numpy.typing import NDArray

from . import simulate  # loaded first: simulate imports this module on a records call


def config_hash(version: int, chunk_size: int, config: dict):
    """A SHA-256 that has taken what both digests of a sidecar of ``version`` take before
    the record's bytes or values: the canonical JSON (sorted keys, no spaces) of its
    config object, from version 7 of ``{"chunk_size": chunk_size, "config": config}``."""
    bound = config if version < 7 else {"chunk_size": chunk_size, "config": config}
    return hashlib.sha256(json.dumps(bound, sort_keys=True, separators=(",", ":")).encode())


_READ_BLOCK = 2**17  # bytes hashed per read


def blocks(csv_path: Path, block_size: int, sidecar, stored: dict | None):
    """The block columns, block variances and record count of ``csv_path``, those of
    ``block_variance_trace(read_records(csv_path), block_size)`` bit for bit (no full
    block is no error), by the first route that applies.  Bytes that do not give a
    ``sidecar``'s ``records_sha256``, hashed after ``stored``, the sidecar file's own
    config object (from version 7 with its chunk size), raise ValueError after one hash:
    one of the two was changed after write_records wrote them.  Bytes that give it are
    those write_records wrote of that config, so the record is redrawn as the writer drew
    it into a variance stitch, with the schedule's memoized block columns, none of its
    bytes decoded, and kept if it gives the sidecar's ``values_sha256``.  Otherwise each
    np.loadtxt call's rows are added to a column stitch and a variance stitch as they are
    read, in O(block + rows per call) memory, and a count other than the sidecar's
    raises ValueError."""
    if sidecar is not None and sidecar.records_sha256:
        sha = config_hash(sidecar.format_version, sidecar.chunk_size, stored)
        values_sha = sha.copy()
        with open(csv_path, "rb") as fh:
            while chunk := fh.read(_READ_BLOCK):
                sha.update(chunk)
        if sha.hexdigest() != sidecar.records_sha256:
            raise ValueError(
                f"{csv_path.name} is not the record its sidecar binds: the sidecar and the "
                "record's bytes do not give its records_sha256, so one of them was changed "
                "after simulate wrote them"
            )
        if sidecar.values_sha256:
            variances = simulate._Stitch(block_size, simulate._reduce_blocks)
            for start, values in simulate._drawn(sidecar.config, sidecar.chunk_size):
                values_sha.update(values.astype("<f8", copy=False))  # before the stitch overwrites
                variances.add(start, values)
            if values_sha.hexdigest() == sidecar.values_sha256:
                columns = simulate._block_columns(sidecar.config.schedule, block_size)
                return columns, variances.blocks(), sidecar.n_pulses
    columns = simulate._Stitch(block_size, simulate._fringe_columns)
    variances = simulate._Stitch(block_size, simulate._reduce_blocks)
    fits = block_size <= csv_path.stat().st_size // 6  # no row is shorter than "0,0,0\n"
    rows = 0
    for phases, values, _ in read(csv_path):
        if fits:
            columns.add(rows, phases)
            variances.add(rows, values)
        rows += len(values)
    if sidecar is not None and rows != sidecar.n_pulses:
        raise ValueError(
            f"{csv_path.name} holds {rows} records, its sidecar says {sidecar.n_pulses}"
        )
    return columns.blocks(), variances.blocks(), rows


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
# Zeros are laid out too, as the digit 0 with k = 0; '%.17g' itself writes
# every other value (smaller, larger or non-finite).


def _template(k: int, negative: int, fraction: int) -> bytes:
    """Fixed-notation '%.17g' of a value with exponent k, for its digits
    d0..d16 in bytes 0..16, as 8 little-endian words: its literal bytes and
    the mask of the digits before the point (three words each), and the bits
    the digits before and after the point are shifted by."""
    sign = b"-" * negative
    if k < 0:
        literal = sign + b"0." + b"0" * (-k - 1)
        before, shift = b"", len(literal)
    else:
        literal = sign + b"\0" * (k + 1) + b"." * fraction
        before, shift = b"\xff" * (k + 1), len(sign) + 1
    words = b"".join(part.ljust(24, b"\0") for part in (literal, before))
    return words + (8 * len(sign)).to_bytes(8, "little") + (8 * shift).to_bytes(8, "little")


# template 4 (k + 4) + 2 negative + fraction; the tables are stored word-major,
# so a take along axis 1 gives contiguous words
_TEMPLATES = np.frombuffer(
    b"".join(
        _template(k, negative, fraction)
        for k in range(-4, 16) for negative in (0, 1) for fraction in (0, 1)
    ),
    _WORD,
).reshape(-1, 8).T.copy()
_DIGITS_TO = np.frombuffer(  # the masks of d0..dj
    b"".join((b"\xff" * (j + 1)).ljust(24, b"\0") for j in range(17)), _WORD
).reshape(17, 3).T.copy()
# the digits of 0..9999 as 4 bytes, the first in the low byte
_GROUPS = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)), "<u4").astype(_WORD)
# k = -5..17: no 10^k rounds below itself, so |v| >= 10^k iff |v| >= it
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 18)])


def _shift_left(words: NDArray[np.uint64], bits: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Multiword integers, least significant word first, shifted left by
    bits < 64 (a numpy shift by 64 gives 0)."""
    out = words << bits
    out[1:] |= words[:-1] >> 64 - bits
    return out


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
    digits[zero] = 0

    # d0, then d1-d8 and d9-d16 as ASCII bytes; the last digit is the last nonzero one
    high = digits // 10**8
    d0 = high // 10**8
    eights = np.stack((high - d0 * 10**8, digits - high * 10**8)).view(np.int64)
    fours = eights // 10**4
    eights = np.take(_GROUPS, fours) | np.take(_GROUPS, eights - fours * 10**4) << 32
    ahead, behind = (eights ^ 0x3030303030303030).astype(float)  # d1-d8, d9-d16 a byte each
    last = np.frexp(behind * 2.0**64 + ahead)[1] + 7 >> 3  # 0 if d1-d16 are all 0
    x = np.stack((d0 | 0x30 | eights[0] << 8, eights[0] >> 56 | eights[1] << 8, eights[1] >> 56))
    x &= np.take(_DIGITS_TO, np.maximum(last, k), axis=1)  # 0s after the point

    template = np.take(_TEMPLATES, 4 * (k + 4) + 2 * negative + (last > k), axis=1)
    before = x & template[3:6]
    words = template[:3] | _shift_left(before, template[6]) | _shift_left(x ^ before, template[7])
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
    quads = np.empty((n, -(-width // 4)), "<u4")  # the index's 4-digit groups, in order
    rest = np.arange(first, first + n)
    for group in reversed(range(quads.shape[1])):
        quotient = rest // 10**4
        quads[:, group] = np.take(_GROUPS, rest - quotient * 10**4)
        rest = quotient
    chars[:, 8 * lead - 1 - width : 8 * lead - 1] = quads.view(np.uint8)[:, -width:]
    for i in range(1, width):  # no leading zeros: rows below 10^i have i digits or fewer
        chars[: max(10**i - first, 0), 8 * lead - 2 - i] = 0

    v = np.stack((phases, values), axis=1)
    words, laid_out = _fixed_notation(v)
    fields = text[:, lead:].reshape(n, 2, 4)
    for word in range(3):
        fields[..., word] = words[word]
    if not laid_out.all():
        rows, columns = np.nonzero(~laid_out)
        written = b"".join((b"%.17g" % x).ljust(24, b"\0") for x in v[rows, columns].tolist())
        fields[rows, columns, :3] = np.frombuffer(written, _WORD).reshape(-1, 3)
    return text.tobytes().translate(None, b"\0")


# Rows per _rows call: a 250k-pulse write_records peaks at 3.1 MB traced with
# 2048 and at 4.6 MB with 4096, which takes 96 against 86 ms of CPU (medians of
# 30 alternating runs in one process, 2 CPUs).
_FORMAT_BATCH = 2048


def format_rows(first: int, phases: NDArray, values: NDArray) -> Iterator[bytes]:
    """The bytes of pulses first, first + 1, ..., a batch of rows at a time."""
    for i in range(0, len(values), _FORMAT_BATCH):
        yield _rows(first + i, phases[i : i + _FORMAT_BATCH], values[i : i + _FORMAT_BATCH])


# Rows per np.loadtxt call: read_records of a 250k-pulse file takes 146-149 ms with
# 2^13 to 2^16 (medians of 9, 2 CPUs), at traced peaks of 5.0 MB with 2^14 and 7.7 MB
# with 2^16 (its arrays are 4 MB).
_LOAD_ROWS = 2**14


def _next_rows(fh) -> NDArray[np.float64]:
    """The next _LOAD_ROWS rows of a records file open in text mode, (n, k) as np.loadtxt
    reads them; none at its end."""
    with warnings.catch_warnings():  # of a comment or blank line, and of no rows at the end
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, delimiter=",", max_rows=_LOAD_ROWS, ndmin=2)


def read(csv_path: Path) -> Iterator[tuple[NDArray[np.float64], NDArray[np.float64], int]]:
    """(LO phases, values, file offset read to) of each np.loadtxt call's rows of
    csv_path, one UTF-8 text-mode handle read _LOAD_ROWS rows at a time, so a CRLF or
    a lone CR ends a line; the header matches after str.strip(), and each row must
    have 3 finite fields, its index running 0, 1, ...  Where a check fails, a rescan
    names the first line that fails.  An existing path that is not a regular file (a
    pipe, say: the reader asks for its offset and may rescan it) raises ValueError first."""
    if not csv_path.is_file() and csv_path.exists():
        raise ValueError(f"{csv_path} is not a regular file, so not a records CSV")
    rows = 0
    try:
        with open(csv_path, encoding="utf-8") as fh:
            if fh.readline().strip() != simulate.HEADER:
                raise ValueError("not the header")
            while len(table := _next_rows(fh)):
                if (table.shape[1] != 3 or not np.isfinite(table).all()
                        or np.any(table[:, 0] != np.arange(rows, rows + len(table)))):
                    raise ValueError("a row fails a check")
                rows += len(table)
                yield table[:, 1], table[:, 2], fh.buffer.tell()
    except ValueError:  # UnicodeDecodeError included
        rows = 0
    if rows == 0:
        _raise_at_first_bad_line(csv_path)


def _fields(line: str) -> NDArray[np.float64] | None:
    """The index, phase and value of a records line (without its newline) as
    np.loadtxt reads them, or None for a line it skips; raises ValueError,
    naming the fault, where np.loadtxt rejects the line or a value is not finite."""
    text = line.split("#", 1)[0]
    if not text:  # np.loadtxt skips empty and comment lines, not blank ones
        return None
    if (count := text.count(",") + 1) != 3:
        raise ValueError(f"expected 3 fields, got {count}")
    try:
        fields = np.loadtxt([text], delimiter=",")
    except ValueError:
        raise ValueError(f"non-numeric field in {line.strip()!r}") from None
    if not np.isfinite(fields).all():
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
                if text.strip() != simulate.HEADER:
                    raise ValueError(
                        f"{name} line 1: expected header {simulate.HEADER!r}, got {text.strip()!r}"
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
