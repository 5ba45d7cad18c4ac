"""Deterministic table serialization.

Data files are CSV with a '#'-prefixed header block that embeds the fully
resolved scenario, so every artifact is self-describing. Numbers are
written with 17 significant digits (round-trip exact for doubles), complex
values as paired Re/Im columns, and rows in grid order; repeated runs of
the same scenario produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Any, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "format_number",
    "scenario_header",
    "table_text",
    "table_json",
    "write_text",
]

#: Rows formatted per string-format call on the all-numeric path; bounds the
#: temporary list of Python floats on long tables.
BLOCK_ROWS = 4096


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

    Tables whose columns are all numeric are formatted a block of rows at a
    time with one ``%`` per block; a table with any string cell goes through
    ``csv.writer`` row by row. Both give the bytes of
    :func:`format_number` per cell (numbers never need CSV quoting).
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
        matrix = np.column_stack(arrays).astype(float)
        row_format = ",".join(["%.17g"] * len(arrays)) + "\n"
        for start in range(0, len(matrix), BLOCK_ROWS):
            block = matrix[start:start + BLOCK_ROWS]
            buffer.write(row_format * len(block) % tuple(block.ravel().tolist()))
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
    """JSON mirror of a table: scenario plus per-column value lists."""
    payload = {
        "title": title,
        "scenario": resolved,
        "columns": {
            name: [cell if isinstance(cell, str) else float(cell) for cell in col]
            for name, col in zip(names, columns)
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_text(text: str, out: Optional[str]) -> None:
    """Write to a file (LF newlines regardless of platform) or stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
