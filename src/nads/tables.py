"""Deterministic table serialization.

Data files are CSV with a '#'-prefixed header block that embeds the fully
resolved scenario, so every artifact is self-describing. Numbers are
written with 17 significant digits (round-trip exact for doubles), complex
values as paired Re/Im columns, and rows in grid order; repeated runs of
the same scenario produce byte-identical files.

:func:`format_number` is the one definition of a cell (``"%.17g"``).
All-numeric tables are written by a NumPy formatter that produces the same
bytes without a Python call per cell, :data:`BLOCK_ROWS` rows at a time.
As in fixed-precision printing from a table of powers (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019), each double x
is scaled to its 17-digit integer n = round(x * 10**(16 - k)), here by a
double-double product with error below 1e-14 (Dekker's error-free
product, Numer. Math. 18:224, 1971; NumPy has no fused multiply-add). The
decimal exponent k comes from log10 and is corrected by a range check on
the product; n is rounded half-even on the low word, and a carry to 10**17
increments k. Digits come from a 4-digit lookup table and are laid out as
``%g`` does: fixed notation for -4 <= k < 17, exponent notation otherwise,
trailing zeros and a bare ``.`` stripped. Cells the fast path cannot prove
exact go through :func:`format_number`: zero, infinities, NaN, magnitudes
outside [1e-280, 1e280), and cells whose low word lies within 2**-30 of a
half (ties and near-ties).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from types import SimpleNamespace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "format_number",
    "scenario_header",
    "table_text",
    "table_json",
    "write_text",
]

#: Rows formatted per NumPy pass on the all-numeric path. Bounds the
#: per-cell word buffer (32 bytes a cell) on long tables; on 20-column
#: tables 256 rows keep a block's temporaries in cache and beat 128 or 512.
BLOCK_ROWS = 256

#: Magnitudes the fast path formats; outside it the double-double product
#: could leave the normal range.
_FAST_MIN = 1e-280
_FAST_MAX = 1e280
#: Cells whose low word lies this close to a half go through format_number.
_TIE_MARGIN = 2.0 ** -30
#: Decimal exponents k the fast path meets: floor(log10) of the fast range,
#: one step of correction and one of carry. Scaling powers are 10**(16 - k).
_K_MIN = -282
_K_MAX = 281
_DEKKER = 134217729.0  # 2**27 + 1
#: Cells are built as four little-endian 8-byte words of ASCII, NUL
#: padded: sign and "0.000" lead (bytes 0-5), digits and point (6-23),
#: exponent and separator (24-31). NUL bytes are dropped when the block is
#: joined.
_WORD = np.dtype("<u8")


def _split(a):
    """Dekker split: a == hi + lo with both halves of at most 26 bits."""
    t = a * _DEKKER
    hi = t - (t - a)
    return hi, a - hi


def _power_table():
    """10**(16 - k) for k in [_K_MIN, _K_MAX] as hi + lo, with hi split.

    hi is the double nearest the power and lo the double nearest the
    remainder, both from exact integer arithmetic.
    """
    hi, lo = [], []
    v = 10 ** (16 - _K_MIN)
    while v:  # 10**298 down to 10**0
        h = float(v)
        hi.append(h)
        lo.append(float(v - int(h)))
        v //= 10
    d = 10
    while len(hi) < _K_MAX - _K_MIN + 1:  # 10**-1 down to 10**-265
        h = 1 / d  # correctly rounded integer division
        num, den = h.as_integer_ratio()  # den = 2**(bits - 1)
        hi.append(h)
        lo.append(math.ldexp((den - num * d) / d, 1 - den.bit_length()))
        d *= 10
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _words(rows) -> np.ndarray:
    """NUL-padded byte strings as rows of little-endian words."""
    raw = np.array(rows, "S%d" % (8 * -(-max(map(len, rows)) // 8)))
    return raw.view(_WORD).reshape(len(rows), -1)


def _digit_tables():
    """Per 4-digit group q: its ASCII word (low and high half of a word),
    and for the group at position i of the 16 digits after the lead digit,
    how many of the 17 digits end at its last nonzero digit (1 if q is 0)."""
    ascii = np.arange(10, dtype=_WORD) + np.uint64(ord("0"))
    d0, d1, d2, d3 = np.ix_(ascii, ascii, ascii, ascii)
    quads = (d0 | d1 << np.uint64(8) | d2 << np.uint64(16) | d3 << np.uint64(24)).ravel()
    p0, p1, p2, p3 = np.ix_(*[(np.arange(10) > 0) * j for j in (1, 2, 3, 4)])
    last = np.maximum(np.maximum(p0, p1), np.maximum(p2, p3)).ravel()
    sig = np.where(last > 0, last + 1 + 4 * np.arange(4)[:, None], 1)
    return quads, quads << np.uint64(32), sig.astype(np.int8)


def _layout_table():
    """Masks of the three number words per (integer digits, kept digits).

    Number byte r sits at byte 6 + r of the cell. Integer digits come from
    the copy with digit r at byte r, fraction digits from the copy shifted
    one byte on, which frees the byte after the integer digits for the
    point.
    """
    size = np.arange(18)
    r = np.arange(24) - 6
    whole, keep = size[:, None, None], size[None, :, None]
    in_whole = np.broadcast_to((r >= 0) & (r < whole), (18, 18, 24))
    in_frac = (r > whole) & (r <= keep)
    dot = (r == whole) & (whole > 0) & (keep > whole)
    table = np.concatenate(
        [in_whole * 0xFF, in_frac * 0xFF, dot * ord(".")], axis=2
    ).astype(np.uint8)
    return table.reshape(18 * 18, 72).view(_WORD)


def _exponent_tables():
    """Per decimal exponent k: integer digits shown, the "0.000" lead word
    (from byte 1, byte 0 is the sign) and the "e+NN"/"e-NNN" word."""
    k = range(_K_MIN, _K_MAX + 1)
    whole = [max(j + 1, 0) if -4 <= j < 17 else 1 for j in k]
    lead = [b"\0" + b"0." + b"0" * (-j - 1) if -4 <= j < 0 else b"" for j in k]
    exponent = [b"" if -4 <= j < 17 else b"e%+03d" % j for j in k]
    return np.array(whole), _words(lead)[:, 0], _words(exponent)[:, 0]


@functools.cache
def _tables() -> SimpleNamespace:
    """The formatter's lookup tables, built on first use (about 1 ms), so
    commands that write no table do not pay for them."""
    pow_hi, pow_hi_hi, pow_hi_lo, pow_lo = _power_table()
    quad_lo, quad_hi, quad_sig = _digit_tables()
    whole, lead, exponent = _exponent_tables()
    return SimpleNamespace(
        pow_hi=pow_hi, pow_hi_hi=pow_hi_hi, pow_hi_lo=pow_hi_lo, pow_lo=pow_lo,
        quad_lo=quad_lo, quad_hi=quad_hi, quad_sig=quad_sig,
        layout=_layout_table(), whole=whole, lead=lead, exponent=exponent,
    )


def _scale(a, k, t):
    """a * 10**(16 - k) as an unevaluated sum hi + lo, error below 1e-14."""
    i = k - _K_MIN
    b, b_hi, b_lo = t.pow_hi[i], t.pow_hi_hi[i], t.pow_hi_lo[i]
    a_hi, a_lo = _split(a)
    p = a * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err + a * t.pow_lo[i]


def _format_cells(x, separators) -> bytes:
    """Cells of a row-major (rows, cols) block, each followed by its
    column's separator byte, as the bytes of ``format_number`` per cell."""
    t = _tables()
    cells = x.ravel()
    mag = np.abs(cells)
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    mag = np.where(fast, mag, 1.0)
    k = np.floor(np.log10(mag)).astype(np.intp)
    hi, lo = _scale(mag, k, t)
    # log10 can miss by one next to a power of ten: rescale those cells.
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    redo = np.flatnonzero(low | high)
    if len(redo):
        k[redo] += high[redo].astype(np.intp) - low[redo]
        hi[redo], lo[redo] = _scale(mag[redo], k[redo], t)
    # hi is an even integer (it is at least 1e16 > 2**53), so rounding lo
    # half-even rounds the sum half-even.
    whole = np.rint(lo)
    slack = np.abs(np.abs(lo - whole) - 0.5)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    fallback = np.flatnonzero(~fast | (slack < _TIE_MARGIN))

    # 17 digits: lead digit, then groups of four as quads[0..3].
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    eights = rest // 10 ** 8
    quads = []
    for half in (eights, rest - eights * 10 ** 8):
        top = half // 10000
        quads += [top, half - top * 10000]
    first = np.take(t.quad_lo, quads[0]) | np.take(t.quad_hi, quads[1])
    second = np.take(t.quad_lo, quads[2]) | np.take(t.quad_hi, quads[3])
    sig = np.maximum(
        np.maximum(np.take(t.quad_sig[0], quads[0]), np.take(t.quad_sig[1], quads[1])),
        np.maximum(np.take(t.quad_sig[2], quads[2]), np.take(t.quad_sig[3], quads[3])),
    )
    lead = lead.astype(_WORD) + ord("0")
    b8, b48, b56 = (np.uint64(s) for s in (8, 48, 56))
    digits = (lead << b48 | first << b56, first >> b8 | second << b56, second >> b8)
    shifted = (lead << b56, first, second)

    # %g: fixed notation for -4 <= k < 17, exponent notation otherwise.
    i = k - _K_MIN
    whole_digits = np.take(t.whole, i)
    keep = np.maximum(sig, whole_digits)
    masks = np.take(t.layout, whole_digits * 18 + keep, axis=0)
    out = np.empty((len(cells), 4), _WORD)
    for j in range(3):
        out[:, j] = digits[j] & masks[:, j] | shifted[j] & masks[:, 3 + j] | masks[:, 6 + j]
    out[:, 0] |= np.take(t.lead, i)
    out.view(np.uint8)[:, 0] = (cells < 0) * ord("-")
    out[:, 3] = (np.take(t.exponent, i).reshape(x.shape) | separators).ravel()
    if len(fallback):
        # Mostly zeros: format each distinct bit pattern once.
        values, where = np.unique(cells[fallback].view(np.int64), return_inverse=True)
        text = [format_number(value).encode() for value in values.view(float).tolist()]
        out[fallback, :3] = np.array(text, "S24").view(_WORD).reshape(-1, 3)[where]
        out[fallback, 3] = separators[fallback % x.shape[1]]
    return out.tobytes().translate(None, b"\0")


def format_number(value: Any) -> str:
    """17-significant-digit decimal form of a float; strings pass through."""
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def scenario_header(title: str, resolved: Mapping) -> list[str]:
    """Header comment lines embedding the resolved scenario as one JSON line."""
    return [
        f"# {title}",
        "# scenario: " + json.dumps(resolved, sort_keys=True),
    ]


def table_text(
    header_lines: Sequence[str],
    names: Sequence[str],
    columns: Sequence[Sequence[Any]],
) -> str:
    """Render comment lines plus a CSV table with fixed formatting.

    Tables whose columns are all numeric go through the NumPy formatter of
    this module, :data:`BLOCK_ROWS` rows at a time; the cells it cannot
    prove exact (zero, infinities, NaN, magnitudes outside [1e-280, 1e280),
    ties and near-ties of the 17-digit rounding) go through
    :func:`format_number`. A table with any string cell goes through
    ``csv.writer`` row by row. Both give the bytes of :func:`format_number`
    per cell (numbers never need CSV quoting).
    """
    if len(names) != len(columns):
        raise ValueError("one name per column required")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    buffer = io.StringIO()
    for line in header_lines:
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    arrays = [np.asarray(col) for col in columns]
    if arrays and all(arr.dtype.kind in "biuf" for arr in arrays):
        # Separator per column, at byte 5 of a cell's exponent word.
        separators = np.full(len(arrays), ord(","), _WORD) << np.uint64(40)
        separators[-1] = ord("\n") << 40
        for start in range(0, len(arrays[0]), BLOCK_ROWS):
            block = np.column_stack([arr[start:start + BLOCK_ROWS] for arr in arrays])
            block = block.astype(float, copy=False)
            buffer.write(_format_cells(block, separators).decode("ascii"))
    else:
        for row in zip(*columns):
            writer.writerow([format_number(cell) for cell in row])
    return buffer.getvalue()


def table_json(
    title: str,
    resolved: Mapping,
    names: Sequence[str],
    columns: Sequence[Sequence[Any]],
) -> str:
    """JSON mirror of a table: scenario plus per-column value lists.

    Non-finite numbers are written as ``null``: RFC 8259 JSON has no NaN or
    Infinity tokens.
    """
    payload = {
        "title": title,
        "scenario": resolved,
        "columns": {
            name: [_json_cell(cell) for cell in col]
            for name, col in zip(names, columns)
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _json_cell(cell: Any):
    if isinstance(cell, str):
        return cell
    value = float(cell)
    return value if math.isfinite(value) else None


def write_text(text: str, out: Optional[str]) -> None:
    """Write to a file (LF newlines regardless of platform) or stdout.

    Raises ConfigError naming the file when it cannot be written.
    """
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
