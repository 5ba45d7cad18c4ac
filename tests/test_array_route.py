"""The whole-series array route: overlap arrays against the per-point
formulas, branch tracking, and table formatting against the row-by-row
``csv.writer`` rendering.

The dressed-state quantities themselves are pinned by the seed-code tables
in ``tests/test_reference_tables.py``.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from nads.errors import BranchAmbiguity, ValidationError
from nads.nads_core import _track_branches
from nads.overlap_transitions import (
    amplitude_ratios,
    eg_overlap,
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from nads.tables import BLOCK_CELLS, format_number, table_text, write_table

from reference import expanded_overlaps

REL = 1e-12


def _prefix_integral(values, grid, k):
    return np.trapezoid(values[: k + 1], grid[: k + 1]) if k else 0.0


def test_overlap_arrays_match_point_formulas(shipped_series):
    for name, (scenario, series) in shipped_series.items():
        gg_arr, ee_arr = norms(series)
        gg_exp_arr, ee_exp_arr, eg_exp_arr = expanded_overlaps(series)
        arrays = {
            "gg": gg_arr,
            "gg_expanded": gg_exp_arr,
            "ee": ee_arr,
            "ee_expanded": ee_exp_arr,
            "eg": eg_overlap(series),
            "eg_expanded": eg_exp_arr,
            "ge": ge_overlap(series),
            "p": mixing_probability(series.sin_half, series.cos_half),
            "p_via_overlaps": p_via_overlaps(series),
        }
        grid = series.grid
        carrier = series.field.carrier_omega
        for k in range(0, len(series), 97):
            s = complex(series.sin_half[k])
            c = complex(series.cos_half[k])
            weight = abs(s) ** 2 + abs(c) ** 2
            bracket = s * c.conjugate() - s.conjugate() * c
            damping = -series.params.gamma_sum_half * (grid[k] - grid[0])

            def integral(values):
                return _prefix_integral(values, grid, k)

            gg = weight * np.exp(2.0 * integral(series.omega_G.imag))
            ee = weight * np.exp(2.0 * integral(series.omega_E.imag))
            eg = bracket * cmath.exp(
                1j * integral(np.conj(series.omega_E) - series.omega_G - carrier)
            )
            ge = (c * s.conjugate() - c.conjugate() * s) * cmath.exp(
                1j * integral(np.conj(series.omega_G) - series.omega_E + carrier)
            )
            expected = {
                "gg": gg,
                "gg_expanded": weight * np.exp(
                    damping + integral(series.log_deriv - series.omega_tilde.imag)
                ),
                "ee": ee,
                "ee_expanded": weight * np.exp(
                    damping + integral(series.log_deriv + series.omega_tilde.imag)
                ),
                "eg": eg,
                "eg_expanded": bracket * cmath.exp(
                    damping + integral(series.log_deriv + 1j * series.omega_tilde.real)
                ),
                "ge": ge,
                "p": abs(bracket) ** 2 / weight**2,
                "p_via_overlaps": abs(eg) ** 2 / (gg * ee),
            }
            for key, ref in expected.items():
                got = arrays[key][k]
                assert abs(got - ref) <= 1e-9 * abs(ref) + 1e-15, (name, key, k)
            phase = cmath.exp(
                -1j * carrier * (grid[k] - grid[0]) - 1j * float(series.phi[k])
            )
            want = s / c * phase if scenario.initial_state == "ground" else -s / c / phase
            ratio = amplitude_ratios(series, scenario.initial_state)[k]
            assert abs(ratio - want) <= REL * abs(want), (name, k)


class TestTrackBranches:
    def test_flip_keeps_nearest_root(self):
        principal = np.array([[[1.0, -0.9 + 0.1j, -0.8 + 0.1j]]])
        roots, signs, errors = _track_branches(principal, (1,), ("x",))
        assert signs.tolist() == [[[1, -1, -1]]]
        assert signs.dtype == np.int8
        assert errors == [None]
        np.testing.assert_array_equal(roots, [[[1.0, 0.9 - 0.1j, 0.8 - 0.1j]]])

    def test_first_sign_applies_to_first_point(self):
        roots, signs, _ = _track_branches(np.array([[[2.0, 2.1]]]), (-1,), ("x",))
        assert signs.tolist() == [[[-1, -1]]]
        np.testing.assert_array_equal(roots, [[[-2.0, -2.1]]])

    # From 1.1 to x + 1j the two roots' distances differ by about x relative:
    # a tie inside BRANCH_AMBIGUITY_RTOL = 1e-14, none outside it.
    @pytest.mark.parametrize("principal, index", [
        ([1.0, 1.1, 1.2, 1.2j, 1.3j], 3),
        ([1.0, 1.1, 1e-15 + 1j], 2),
        ([1.0, 1.1, 1e-13 + 1j], None),
    ], ids=["exact", "margin-1e-15", "margin-1e-13"])
    def test_tie_raises_with_grid_index(self, principal, index):
        _, _, (error,) = _track_branches(np.array([[principal]]), (1,), ("ctx",))
        if index is None:
            assert error is None
            return
        assert isinstance(error, BranchAmbiguity)
        assert str(error).startswith("ctx: both roots")
        assert error.grid_index == index

    def test_earliest_tie_across_rows_wins(self):
        principal = np.array([
            [[1.0, 1.1, 1.2, 1.2j]],   # tie at grid index 3
            [[1.0, 1.0j, 1.0, 1.0]],   # tie at grid index 1
        ])
        _, _, (error,) = _track_branches(principal, (1, 1), ("first", "second"))
        assert str(error).startswith("second")
        assert error.grid_index == 1

    def test_each_run_reports_its_own_tie(self):
        # Run 0 ties at grid index 2 on the first quantity, run 1 nowhere,
        # run 2 at grid index 1 on the second; the signs of every run are
        # those of the run alone.
        principal = np.array([
            [[1.0, 1.1, 1.1j], [1.0, 1.1, 1.2], [1.0, 1.1, 1.2]],
            [[1.0, 1.1, 1.2], [1.0, 1.1, 1.2], [1.0, 1.0j, 1.0]],
        ])
        roots, signs, errors = _track_branches(principal, [[1, -1, 1], [1, 1, -1]],
                                               ("first", "second"))
        assert [type(e).__name__ if e else None for e in errors] == [
            "BranchAmbiguity", None, "BranchAmbiguity"]
        assert (errors[0].grid_index, errors[2].grid_index) == (2, 1)
        assert str(errors[0]).startswith("first") and str(errors[2]).startswith("second")
        for j in range(3):
            alone, alone_signs, _ = _track_branches(
                principal[:, j:j + 1], [[1, -1, 1][j], [1, 1, -1][j]], ("first", "second"))
            assert np.array_equal(roots[:, j:j + 1], alone)
            assert np.array_equal(signs[:, j:j + 1], alone_signs)


def csv_writer_table(header_lines, columns) -> str:
    """The row-by-row ``csv.writer`` rendering every table once went through."""
    buffer = io.StringIO()
    for line in header_lines:
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns.keys())
    for row in zip(*columns.values()):
        writer.writerow([format_number(cell) for cell in row])
    return buffer.getvalue()


def assert_same_table(got: str, want: str) -> None:
    """got == want, reporting only the first differing line: pytest's own
    diff of two megabyte strings takes minutes."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for line, (a, b) in enumerate(zip(got_lines, want_lines)):
        assert a == b, f"line {line}"
    assert len(got_lines) == len(want_lines)


def _neighbours(values, steps):
    """values with the doubles up to ``steps`` ulps above and below them."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up = down = values
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


def _powers_of_ten():
    return np.array([float(f"1e{p}") for p in range(-300, 301)])


def _seventeen_digits(x: float) -> Fraction:
    """x scaled to the 17-digit range [1e16, 1e17), exactly."""
    exact = Fraction(x)
    k = math.floor(math.log10(x))
    scaled = exact * Fraction(10) ** (16 - k)
    while scaled < 10 ** 16:
        scaled *= 10
    while scaled >= 10 ** 17:
        scaled /= 10
    return scaled


def _dyadic_ties(count, seed):
    """Doubles m / 2**j whose 18th significant digit is a final 5: exact
    ties of the 17-digit rounding."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        j = rng.randint(1, 60)
        m = rng.randrange(1, 2 ** 53) | 1
        if len(str(m * 5 ** j)) == 18:
            out.append(m / 2 ** j)
    return np.array(out)


def _near_ties(spread=3):
    """Doubles m * 2**q whose 17-digit rounding is within 1e-13 of a tie
    but not on it: m solves m * a = b // 2 + d (mod b) for the reduced
    fraction a / b = 2**q * 10**(16 - k)."""
    out = []
    for k in range(-40, 60):
        q_low = math.floor((k - 16) * math.log2(10)) - 1
        q_high = math.ceil((k - 15) * math.log2(10)) + 1
        for q in range(q_low, q_high):
            ratio = Fraction(2) ** q * Fraction(10) ** (16 - k)
            a, b = ratio.numerator, ratio.denominator
            if b < 2 ** 47:
                continue
            inverse = pow(a, -1, b)
            for d in range(-spread, spread + 1):
                if 2 * (b // 2 + d) == b:
                    continue
                first = (b // 2 + d) * inverse % b
                if first < 2 ** 52:  # lift into the range of 53-bit significands
                    first += -(-(2 ** 52 - first) // b) * b
                for m in range(first, 2 ** 53, b):
                    scaled = Fraction(m * a, b)
                    if 10 ** 16 <= scaled < 10 ** 17:
                        out.append(math.ldexp(m, q))
    return np.array(out)


class TestTableText:
    SPECIAL = [
        0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308 / 3,
        1.7976931348623157e308, 0.1, -1e-300, 123456789.0, 1.0 / 3.0,
    ]

    def test_special_floats_byte_identical(self):
        n = len(self.SPECIAL)
        columns = {
            "a": np.array(self.SPECIAL),
            "b": list(reversed(self.SPECIAL)),
            "k": np.arange(n),
            "z": np.full(n, -0.0),
        }
        header = ["# title", "# scenario: {}"]
        assert table_text(header, columns) == csv_writer_table(header, columns)

    @pytest.mark.parametrize("cols", [1, 3, 8, 20, 21])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_cell_block_edges(self, cols, extra):
        # Blocks hold BLOCK_CELLS // cols whole rows; rows * cols lands one
        # row short of, on and one row past the edges of one and two blocks.
        step = BLOCK_CELLS // cols
        for blocks in (1, 2):
            rows = blocks * step + extra
            rng = np.random.default_rng(rows * cols)
            x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-30, 30, size=(rows, cols))
            # +0.0 and -0.0 in every column position, in the first and the
            # last rows.
            c = np.arange(cols)
            x[c, c] = 0.0
            x[rows - 1 - c, c] = -0.0
            if blocks == 2 and cols > 1:
                x[:, cols // 2] = 1.0  # a constant column, at a power of ten
            self.assert_columns_byte_identical(list(x.T))

    @pytest.mark.parametrize("cols", [1, 8, 20])
    @pytest.mark.parametrize("value", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_special_blocks(self, cols, value):
        # The middle of three blocks holds only the value.
        step = BLOCK_CELLS // cols
        x = np.random.default_rng(cols).normal(size=(3 * step, cols))
        x[step:2 * step] = value
        self.assert_columns_byte_identical(list(x.T))

    @staticmethod
    def assert_columns_byte_identical(columns):
        columns = {f"c{i}": col for i, col in enumerate(columns)}
        assert_same_table(table_text([], columns), csv_writer_table([], columns))

    def test_string_cells_byte_identical(self):
        columns = {
            "a.b": [0.5, -0.0, np.nan],
            "maxP": [1.0, np.inf, 2.0],
            "error": ["", 'ValidationError: a, "quoted" value', "x,y"],
        }
        text = table_text(["# sweep"], columns)
        assert text == csv_writer_table(["# sweep"], columns)
        assert '"ValidationError: a, ""quoted"" value"' in text

    def test_no_rows(self):
        assert table_text([], {"a": np.array([]), "b": np.array([])}) == "a,b\n"

    @pytest.mark.parametrize("columns, message", [
        ({"a": [1.0], "b": [1.0, 2.0]}, "columns have unequal lengths [1, 2]"),
    ], ids=["lengths"])
    @pytest.mark.parametrize("render", [
        lambda columns: table_text([], columns),
        lambda columns: write_table([], columns, None),
    ], ids=["table_text", "write_table"])
    def test_mismatched_columns_are_a_validation_error(self, render, columns, message):
        # A library caller's mistake, so a ValidationError (also a ValueError).
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            render(columns)

    def assert_signed_byte_identical(self, values):
        values = np.asarray(values, dtype=float)
        columns = {"x": values, "minus_x": -values, "reversed": values[::-1]}
        assert_same_table(table_text([], columns), csv_writer_table([], columns))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        values = bits.view(np.float64)
        assert np.signbit(values).any() and not np.signbit(values).all()
        self.assert_columns_byte_identical(list(values.reshape(8, -1)))

    def test_powers_of_ten_and_neighbours(self):
        # Next to 10**p, floor(log10) may miss the decimal exponent by one.
        self.assert_signed_byte_identical(_neighbours(_powers_of_ten(), 1))

    def test_carry_to_the_next_power_of_ten(self):
        below = [float(f"9.99999999999999999e{p}") for p in range(-300, 300)]
        halfway = [float(f"9.99999999999999995e{p}") for p in range(-300, 300)]
        values = _neighbours(below + halfway + list(_powers_of_ten()), 3)
        # Cells whose 17-digit rounding carries up to the next power of ten.
        carries = [x for x in values.tolist()
                   if _seventeen_digits(x) > 10 ** 17 - Fraction(1, 2)]
        assert len(carries) >= 4
        self.assert_signed_byte_identical(values)

    def test_g_notation_switch_points(self):
        self.assert_signed_byte_identical(_neighbours([1e-5, 1e-4, 1e16, 1e17], 1))
        assert format_number(np.nextafter(1e16, 0)) == "9999999999999998"
        assert format_number(1e17) == "1e+17"

    def test_exact_ties_round_half_even(self):
        values = _dyadic_ties(3000, seed=5)
        assert all(_seventeen_digits(x) % 1 == Fraction(1, 2) for x in values[:100])
        self.assert_signed_byte_identical(np.append(values, 2.0 ** -25))

    def test_near_ties(self):
        values = _near_ties()
        assert len(values) > 500
        distance = [abs(_seventeen_digits(x) % 1 - Fraction(1, 2)) for x in values]
        assert 0 < min(distance) and max(distance) < Fraction(1, 10 ** 13)
        self.assert_signed_byte_identical(values)

    def test_fast_path_edges_and_special_values(self):
        tiny = np.random.default_rng(3).integers(1, 2 ** 52, size=1000).astype(np.uint64)
        values = np.concatenate([
            tiny.view(np.float64),  # subnormals
            _neighbours([5e-324, 2.2250738585072014e-308, 1e-280, 1e280,
                         1.7976931348623157e308], 2),
            [0.0, -0.0, np.nan, np.inf, -np.inf],
        ])
        self.assert_signed_byte_identical(values)
