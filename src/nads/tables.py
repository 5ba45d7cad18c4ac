"""Deterministic table serialization.

Data files are CSV with a '#'-prefixed header block that embeds the fully
resolved scenario, so every artifact is self-describing. Numbers are
written with 17 significant digits (round-trip exact for doubles), complex
values as paired Re/Im columns, and rows in grid order; repeated runs of
the same scenario produce byte-identical files.

:func:`format_number` is the one definition of a cell (``"%.17g"``).
All-numeric tables are written by a NumPy formatter that produces the same
bytes without a Python call per cell, in blocks of whole rows of about
:data:`BLOCK_CELLS` cells. Each block's text goes to its destination as
soon as it is formatted (:func:`write_table`), and :func:`table_text` is
the join of the same blocks. The block-sized arrays are allocated once per
table and reused by every block.

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
exact are written apart: signed zeros directly, and through
:func:`format_number` the infinities, NaN, magnitudes outside
[1e-280, 1e280), and cells whose low word lies within 2**-30 of a half
(ties and near-ties).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import sys
from types import SimpleNamespace
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, ValidationError

__all__ = [
    "format_number",
    "scenario_header",
    "table_text",
    "table_json",
    "write_table",
    "write_text",
]

#: Cells per block on the all-numeric path, rounded down to whole rows (at
#: least one). A table's formatter arrays take about 160 bytes a cell of a
#: block (1.3 MB), whatever the table's length. Each block pays a fixed
#: cost of about 100 NumPy calls: on the shipped tables 8192 cells beat
#: 6144 and matched 12288 at less memory.
BLOCK_CELLS = 8192

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
#: Bit pattern of _FAST_MIN and the width of the fast range in bit
#: patterns: non-negative doubles order as their bits, so one unsigned
#: comparison of bits(|x|) - _FAST_BITS tests the range, and NaN, whose
#: bits lie above those of inf, falls outside it.
_FAST_BITS = np.float64(_FAST_MIN).view(_WORD)
_FAST_SPAN = np.float64(_FAST_MAX).view(_WORD) - _FAST_BITS
#: Offsets into the digit-count table of the groups held as (q1, q3, q0, q2).
_QUAD_POSITION = np.array([[1], [3], [0], [2]]) * 10 ** 4
#: Words 0-2 of "0" and "-0", by sign bit.
_ZERO_WORDS = np.array([b"0", b"-0"], "S24").view(_WORD).reshape(2, 3)


def _split(a, hi, lo):
    """Dekker split into hi and lo: a == hi + lo with both halves of at
    most 26 bits."""
    np.multiply(a, _DEKKER, out=hi)
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)
    return hi, lo


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
    return (hi, *_split(hi, np.empty_like(hi), np.empty_like(hi)), np.array(lo))


def _words(rows) -> np.ndarray:
    """NUL-padded byte strings as rows of little-endian words."""
    raw = np.array(rows, "S%d" % (8 * -(-max(map(len, rows)) // 8)))
    return raw.view(_WORD).reshape(len(rows), -1)


def _digit_tables():
    """Per 4-digit group q: its ASCII (the low half of a word), and at
    index 10**4 i + q, for the group at position i of the 16 digits after
    the lead digit, how many of the 17 digits end at its last nonzero digit
    (1 if q is 0)."""
    ascii = np.arange(10, dtype=_WORD) + np.uint64(ord("0"))
    d0, d1, d2, d3 = np.ix_(ascii, ascii, ascii, ascii)
    quads = (d0 | d1 << np.uint64(8) | d2 << np.uint64(16) | d3 << np.uint64(24)).ravel()
    p0, p1, p2, p3 = np.ix_(*[(np.arange(10) > 0) * j for j in (1, 2, 3, 4)])
    last = np.maximum(np.maximum(p0, p1), np.maximum(p2, p3)).ravel()
    sig = np.where(last > 0, last + 1 + 4 * np.arange(4)[:, None], 1)
    return quads, sig.astype(np.int8).ravel()


def _layout_table():
    """Masks of the three number words per (integer digits, kept digits),
    one row per mask: digits for words 0-2, shifted digits for words 0-2,
    then the point for words 0-2.

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
    return np.ascontiguousarray(table.reshape(18 * 18, 72).view(_WORD).T)


def _exponent_tables():
    """Per decimal exponent k: integer digits shown, the "0.000" lead word
    (from byte 1, byte 0 is the sign) and the "e+NN"/"e-NNN" word."""
    k = range(_K_MIN, _K_MAX + 1)
    whole = [max(j + 1, 0) if -4 <= j < 17 else 1 for j in k]
    lead = [b"\0" + b"0." + b"0" * (-j - 1) if -4 <= j < 0 else b"" for j in k]
    exponent = [b"" if -4 <= j < 17 else b"e%+03d" % j for j in k]
    return np.array(whole, np.int64), _words(lead)[:, 0], _words(exponent)[:, 0]


@functools.cache
def _tables() -> SimpleNamespace:
    """The formatter's lookup tables, built on first use (about 1 ms), so
    commands that write no table do not pay for them."""
    pow_hi, pow_hi_hi, pow_hi_lo, pow_lo = _power_table()
    quad_lo, quad_sig = _digit_tables()
    whole, lead, exponent = _exponent_tables()
    return SimpleNamespace(
        pow_hi=pow_hi, pow_hi_hi=pow_hi_hi, pow_hi_lo=pow_hi_lo, pow_lo=pow_lo,
        quad_lo=quad_lo, quad_sig=quad_sig,
        layout=_layout_table(), whole=whole, lead=lead, exponent=exponent,
    )


def _scale(a, i, t, hi, lo, b, a_hi, a_lo, tmp):
    """a * 10**(16 - k), for i = k - _K_MIN, as the unevaluated sum hi + lo
    with error below 1e-14, written into hi and lo; b .. tmp are scratch."""
    np.multiply(a, t.pow_hi.take(i, out=b, mode="clip"), out=hi)
    _split(a, a_hi, a_lo)
    # lo = (((a_hi b_hi - hi) + a_hi b_lo) + a_lo b_hi) + a_lo b_lo + a pow_lo
    t.pow_hi_hi.take(i, out=b, mode="clip")
    np.multiply(a_hi, b, out=lo)
    lo -= hi
    np.multiply(a_lo, b, out=b)
    t.pow_hi_lo.take(i, out=tmp, mode="clip")
    lo += np.multiply(a_hi, tmp, out=a_hi)
    lo += b
    lo += np.multiply(a_lo, tmp, out=a_lo)
    lo += np.multiply(a, t.pow_lo.take(i, out=tmp, mode="clip"), out=tmp)
    return hi, lo


def _divide(x, d: int, q, tmp):
    """q = x // d, and x becomes x % d. NumPy divides integers by a
    constant fast; its remainder is four times slower."""
    np.floor_divide(x, d, out=q)
    np.subtract(x, np.multiply(q, d, out=tmp), out=x)


def _place(digits, shifted, masks, j: int, idx, tmp, out):
    """Number word j into ``out``: integer digits from ``digits``, fraction
    digits from ``shifted`` and the point, each under its layout mask.
    ``digits`` and ``shifted`` are overwritten, ``tmp`` is scratch."""
    digits &= masks[j].take(idx, out=tmp, mode="clip")
    shifted &= masks[3 + j].take(idx, out=tmp, mode="clip")
    digits |= shifted
    np.bitwise_or(digits, masks[6 + j].take(idx, out=tmp, mode="clip"), out=out)


class _BlockFormatter:
    """Formats the blocks of one all-numeric table, each of at most ``rows``
    rows of ``len(separators)`` cells, into arrays allocated once and
    reused by every block.

    A block allocates nothing of its own size but its text. That saves
    about a dozen block-sized allocations per block and, for a library
    caller that keeps glibc's default mmap and trim thresholds (the CLI
    raises them, see ``cli._keep_heap``), the fresh pages each of them
    would fault in. A block's arrays are
    contiguous ``(count, cells)`` rows cut from flat buffers, so a stage
    can work on several rows in one call, and the integer stage reuses the
    rows of the floating-point stage, which is over by then. Each word is
    built in a row, and the last operation on it writes its column of the
    cell-major output, which is the memory of a bytearray, so the NUL
    padding is dropped without a copy to bytes. Lookups use
    ``take(mode="clip")``, which does not buffer its output; every index is
    in range.
    """

    def __init__(self, rows: int, separators):
        cols = len(separators)
        size = rows * cols
        self.block = np.empty((rows, cols))
        self.floats = np.empty(7 * size)
        self.index = np.empty(size, np.int64)
        self.words = np.empty(6 * size, _WORD)
        self.small = np.empty(5 * size, np.int8)
        self.flags = np.empty(4 * size, bool)
        self.text = bytearray(32 * size)
        self.out = np.frombuffer(self.text, _WORD).reshape(size, 4)
        self.separators = separators

    def __call__(self, columns) -> str:
        """The text of the rows given as one equal-length slice per column."""
        t = _tables()
        rows, cols = len(columns[0]), len(columns)
        x = self.block[:rows]
        np.stack(columns, axis=1, out=x)
        cells = x.ravel()
        size = len(cells)

        def cut(buffer, count):
            return buffer[:count * size].reshape(count, size)

        floats = cut(self.floats, 7)
        mag, hi, lo, b, a_hi, a_lo, tmp = floats
        i = self.index[:size]  # k - _K_MIN
        # The integer stage works in the same memory, row for row, once the
        # floating-point rows are spent: lead, z0, z1 and quads over mag,
        # hi, lo and b .. tmp. The 17 digits are a lead digit and four
        # groups of four, held as the rows (q1, q3, q0, q2) of quads; n (the
        # row of q3, over a_hi) holds the 16 after the lead first.
        ints = floats.view(np.int64)
        lead, z0, z, quads = ints[0], ints[1], ints[1:3], ints[3:]
        n = quads[1]
        words = cut(self.words, 6)
        first, second, w0, w1 = words[0], words[1], words[2], words[3]
        small = cut(self.small, 5)
        sig, quad_sig = small[0], small[1:]
        slow, m0, m1, m2 = cut(self.flags, 4)
        out = self.out[:size]
        if size < len(self.out):  # the last block: NUL the rest of the text
            self.out[size:] = 0

        np.abs(cells, out=mag)
        np.greater_equal(np.subtract(mag.view(_WORD), _FAST_BITS, out=w0), _FAST_SPAN, out=slow)
        # A placeholder for the fallback cells whose product is exact and in
        # range, so that they take no rescaling.
        np.copyto(mag, 2.0, where=slow)
        np.log10(mag, out=hi)
        np.floor(hi, out=hi)
        np.copyto(i, np.subtract(hi, _K_MIN, out=hi), casting="unsafe")
        _scale(mag, i, t, hi, lo, b, a_hi, a_lo, tmp)
        # log10 can miss by one next to a power of ten: move k by one where
        # hi + lo lies outside [1e16, 1e17), and scale again. The sums below
        # have the sign of the exact ones.
        low = np.less(np.add(np.subtract(hi, 1e16, out=b), lo, out=b), 0.0, out=m0)
        high = np.greater_equal(np.add(np.subtract(hi, 1e17, out=b), lo, out=b), 0.0, out=m1)
        redo = np.logical_or(low, high, out=m2).nonzero()[0]
        if len(redo):
            i[redo] += high[redo].astype(np.int64) - low[redo]
            hi[redo], lo[redo] = _scale(mag[redo], i[redo], t, *np.empty((6, len(redo))))
        # hi is an even integer (it is at least 1e16 > 2**53), so rounding lo
        # half-even rounds the sum half-even. A cell is a near-tie when lo
        # lies within _TIE_MARGIN of a half-integer.
        rounded = np.rint(lo, out=b)
        np.abs(np.subtract(lo, rounded, out=a_hi), out=a_hi)
        np.greater(a_hi, 0.5 - _TIE_MARGIN, out=m0)
        fallback = np.logical_or(slow, m0, out=m0).nonzero()[0]
        np.copyto(n, hi, casting="unsafe")  # in this order: z0 is over hi
        np.copyto(z0, rounded, casting="unsafe")
        n += z0
        carry = np.equal(n, 10 ** 17, out=m0).nonzero()[0]
        if len(carry):
            n[carry] = 10 ** 16
            i[carry] += 1

        _divide(n, 10 ** 16, lead, z0)
        _divide(n, 10 ** 8, quads[0], z0)
        _divide(quads[:2], 10 ** 4, quads[2:], z)
        # Digits as ASCII: first holds q0 q1, second q2 q3.
        group = t.quad_lo.take(quads, out=words[2:], mode="clip")
        group[:2] <<= 32
        np.bitwise_or(group[2:], group[:2], out=words[:2])
        # Digits shown: through the last nonzero one.
        quads += _QUAD_POSITION
        t.quad_sig.take(quads, out=quad_sig, mode="clip")
        np.maximum.reduce(quad_sig, axis=0, out=sig)

        # %g: fixed notation for -4 <= k < 17, exponent notation otherwise.
        # The layout masks are indexed by (integer digits, kept digits).
        idx = t.whole.take(i, out=quads[0], mode="clip")
        np.maximum(idx, sig, out=quads[1])
        idx *= 18
        idx += quads[1]
        masks = t.layout
        digit = np.add(lead, ord("0"), out=lead).view(_WORD)
        np.left_shift(digit, 48, out=w0)
        w0 |= np.left_shift(first, 56, out=w1)
        _place(w0, np.left_shift(digit, 56, out=digit), masks, 0, idx, w1, out=w0)
        w0 |= t.lead.take(i, out=w1, mode="clip")
        np.multiply(np.signbit(cells, out=m0), np.uint64(ord("-")), out=w1)
        np.bitwise_or(w0, w1, out=out[:, 0])
        np.right_shift(first, 8, out=w0)
        w0 |= np.left_shift(second, 56, out=w1)
        _place(w0, first, masks, 1, idx, w1, out=out[:, 1])
        _place(np.right_shift(second, 8, out=w0), second, masks, 2, idx, w1, out=out[:, 2])
        t.exponent.take(i, out=w0, mode="clip")
        np.bitwise_or(w0.reshape(rows, cols), self.separators,
                      out=out.reshape(rows, cols, 4)[:, :, 3])
        if len(fallback):
            _write_fallback(out, cells, fallback)
            out[fallback, 3] = self.separators[fallback % cols]
        return self.text.translate(None, b"\0").decode("ascii")


def _write_fallback(out, cells, fallback):
    """Words 0-2 of the cells the fast path cannot prove exact: signed
    zeros directly, the rest from format_number once per bit pattern."""
    bits = cells.view(_WORD)[fallback]
    zero = bits << np.uint64(1) == 0
    out[fallback[zero], :3] = _ZERO_WORDS[bits[zero] >> np.uint64(63)]
    rest = ~zero
    if rest.any():
        values, where = np.unique(bits[rest], return_inverse=True)
        text = [format_number(value).encode() for value in values.view(float).tolist()]
        out[fallback[rest], :3] = np.array(text, "S24").view(_WORD).reshape(-1, 3)[where]


def _numeric_blocks(arrays) -> Iterator[str]:
    """The rows of an all-numeric table, in blocks of about BLOCK_CELLS
    cells."""
    rows = len(arrays[0])
    step = max(1, BLOCK_CELLS // len(arrays))
    # Separator per column, at byte 5 of a cell's exponent word.
    separators = np.full(len(arrays), ord(","), _WORD) << np.uint64(40)
    separators[-1] = ord("\n") << 40
    formatter = _BlockFormatter(min(step, rows), separators)
    for start in range(0, rows, step):
        yield formatter([arr[start:start + step] for arr in arrays])


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


def _table_blocks(
    header_lines: Sequence[str],
    names: Sequence[str],
    columns: Sequence[Sequence[Any]],
) -> Iterator[str]:
    """The text of a table in consecutive pieces: the comment lines and
    the column names, then the rows (see :func:`table_text`). The columns
    are checked, and a table with a string cell rendered whole, before the
    first piece is taken; all-numeric rows are formatted a block per piece."""
    if len(names) != len(columns):
        raise ValidationError("one name per column required")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValidationError(f"columns have unequal lengths {sorted(lengths)}")
    buffer = io.StringIO()
    for line in header_lines:
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    arrays = [np.asarray(col) for col in columns]
    if arrays and all(arr.dtype.kind in "biuf" for arr in arrays):
        return itertools.chain([buffer.getvalue()], _numeric_blocks(arrays))
    for row in zip(*columns):
        writer.writerow([format_number(cell) for cell in row])
    return iter([buffer.getvalue()])


def table_text(
    header_lines: Sequence[str],
    names: Sequence[str],
    columns: Sequence[Sequence[Any]],
) -> str:
    """Render comment lines plus a CSV table with fixed formatting.

    Tables whose columns are all numeric go through the NumPy formatter of
    this module, in blocks of whole rows of about :data:`BLOCK_CELLS`
    cells; the cells it cannot prove exact (zero, infinities, NaN,
    magnitudes outside [1e-280, 1e280), ties and near-ties of the 17-digit
    rounding) are written apart, signed zeros directly and the rest by
    :func:`format_number`. A table with any string cell goes through
    ``csv.writer`` row by row. Both give the bytes of :func:`format_number`
    per cell (numbers never need CSV quoting).

    The text is the join of the blocks :func:`write_table` streams.
    """
    return "".join(_table_blocks(header_lines, names, columns))


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


def _write(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write each piece as it comes to stdout, or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def write_table(
    header_lines: Sequence[str],
    names: Sequence[str],
    columns: Sequence[Sequence[Any]],
    out: Optional[str],
) -> None:
    """Write the text of :func:`table_text` block by block, each as soon as
    it is formatted, to a file or stdout (see :func:`write_text`). The
    whole table is never held in memory."""
    _write(_table_blocks(header_lines, names, columns), out)


def write_text(text: str, out: Optional[str]) -> None:
    """Write to a file (LF newlines regardless of platform) or stdout.

    Raises ConfigError naming the file when it cannot be written.
    """
    _write((text,), out)
