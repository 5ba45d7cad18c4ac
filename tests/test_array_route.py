"""The whole-series array route against the per-point scalar functions.

The scalar functions of ``nads_core`` and the per-point overlap formulas are
kept as the oracle: each test rebuilds the point-by-point computation from
them and compares it with the arrays. The branch-tracked Rabi frequency
and every branch log must match bitwise (the radicand is evaluated in the
same operation order); the other quantities move in the last digits
because NumPy and Python round complex division differently.
"""

from __future__ import annotations

import cmath
import csv
import io

import numpy as np
import pytest

from nads.errors import BranchAmbiguity
from nads.field_model import phase_at, rabi_at
from nads.nads_core import (
    _track_branches,
    lambdas,
    mixing_functions,
    nads_frequencies,
    nonadiabatic_detuning,
    nonadiabatic_rabi,
    snapshot_series,
)
from nads.overlap_transitions import (
    amplitude_ratios,
    overlap_arrays,
    reconstruct_bare_amplitudes,
    transition_probability,
)
from nads.tables import BLOCK_ROWS, format_number, table_text

REL = 1e-12


def point_by_point(series):
    """The dressed-state quantities of ``series`` one grid point at a time,
    from the public scalar functions."""
    params, field = series.params, series.field
    n = len(series)
    out = {key: np.empty(n, dtype=complex) for key in (
        "delta_tilde", "d_delta_tilde", "omega_tilde", "lambda1", "lambda2",
        "lambda_t1", "lambda_t2", "cos_half", "sin_half", "omega_G", "omega_E",
    )}
    logs = {key: np.empty(n, dtype=np.int8)
            for key in ("omega_tilde", "cos_half", "sin_half")}
    samples = []
    prev = None
    for k, t in enumerate(series.grid):
        env = rabi_at(params, field, t)
        phase = phase_at(field, t)
        dt, ddt = nonadiabatic_detuning(params, env, phase, series.delta)
        root = nonadiabatic_rabi(env.omega, dt, ddt, series.sign_delta, prev)
        principal = cmath.sqrt(env.omega * env.omega + dt * dt - 2j * ddt)
        logs["omega_tilde"][k] = 1 if abs(root - principal) <= abs(root + principal) else -1
        out["delta_tilde"][k], out["d_delta_tilde"][k], out["omega_tilde"][k] = dt, ddt, root
        samples.append((env, phase))
        prev = root
    prev_pair = None
    for k, (env, phase) in enumerate(samples):
        ot = complex(out["omega_tilde"][k])
        lam1, lam2, lt1, lt2 = lambdas(
            complex(out["delta_tilde"][k]), ot, complex(series.d_omega_tilde[k])
        )
        c, s = mixing_functions(lt1, lt2, ot, series.sign_delta, prev_pair)
        for key, value, principal in (
            ("cos_half", c, cmath.sqrt(lt1 / ot)),
            ("sin_half", s, cmath.sqrt(-lt2 / ot)),
        ):
            logs[key][k] = 1 if abs(value - principal) <= abs(value + principal) else -1
        omega_g, omega_e = nads_frequencies(params, lam2, env, phase)
        for key, value in (
            ("lambda1", lam1), ("lambda2", lam2), ("lambda_t1", lt1),
            ("lambda_t2", lt2), ("cos_half", c), ("sin_half", s),
            ("omega_G", omega_g), ("omega_E", omega_e),
        ):
            out[key][k] = value
        prev_pair = (c, s)
    return out, logs


def test_series_matches_point_by_point(shipped_series):
    for name, (_, series) in shipped_series.items():
        expected, logs = point_by_point(series)
        assert series.omega_tilde.tobytes() == expected["omega_tilde"].tobytes(), name
        for key, log in logs.items():
            assert series.branch_log[key].tobytes() == log.tobytes(), (name, key)
        for key, ref in expected.items():
            # Lambda'_2 cancels to ~1e-9 in adiabatic stretches, so the
            # tolerance is relative to the value or to the series' scale.
            scale = float(np.max(np.abs(ref)))
            np.testing.assert_allclose(
                getattr(series, key), ref, rtol=REL, atol=REL * scale,
                err_msg=f"{name} {key}",
            )


def _prefix_integral(values, grid, k):
    return np.trapezoid(values[: k + 1], grid[: k + 1]) if k else 0.0


def test_overlap_arrays_match_point_formulas(shipped_series):
    for name, (scenario, series) in shipped_series.items():
        arrays = overlap_arrays(series)
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
                "p_ge": transition_probability(series.snapshot(k)),
                "p_ge_via_overlaps": abs(eg) ** 2 / (gg * ee),
            }
            for key, ref in expected.items():
                got = getattr(arrays, key)[k]
                assert abs(got - ref) <= 1e-9 * abs(ref) + 1e-15, (name, key, k)
            rec = reconstruct_bare_amplitudes(series, k, scenario.initial_state)
            ratio = amplitude_ratios(series, scenario.initial_state)[k]
            assert abs(ratio - rec.ratio) <= REL * abs(rec.ratio), (name, k)


def test_amplitude_ratios_mark_undefined_points(flagship):
    scenario, _ = flagship
    series = snapshot_series(scenario.system, scenario.field, scenario.grid()[:5])
    patched = np.array(series.cos_half)
    patched[3] = 0.0
    series.cos_half = patched
    for init in ("ground", "excited"):
        ratios = amplitude_ratios(series, init)
        assert np.isnan(ratios[3])
        assert np.all(np.isfinite(ratios[[0, 1, 2, 4]]))


class TestTrackBranches:
    def test_flip_keeps_nearest_root(self):
        principal = np.array([[1.0, -0.9 + 0.1j, -0.8 + 0.1j]])
        roots, signs = _track_branches(principal, (1,), ("x",))
        assert signs.tolist() == [[1, -1, -1]]
        assert signs.dtype == np.int8
        np.testing.assert_array_equal(roots, [[1.0, 0.9 - 0.1j, 0.8 - 0.1j]])

    def test_first_sign_applies_to_first_point(self):
        roots, signs = _track_branches(np.array([[2.0, 2.1]]), (-1,), ("x",))
        assert signs.tolist() == [[-1, -1]]
        np.testing.assert_array_equal(roots, [[-2.0, -2.1]])

    def test_tie_raises_with_grid_index(self):
        principal = np.array([[1.0, 1.1, 1.2, 1.2j, 1.3j]])
        with pytest.raises(BranchAmbiguity, match="ctx: both roots") as info:
            _track_branches(principal, (1,), ("ctx",))
        assert info.value.grid_index == 3

    def test_earliest_tie_across_rows_wins(self):
        principal = np.array([
            [1.0, 1.1, 1.2, 1.2j],   # tie at grid index 3
            [1.0, 1.0j, 1.0, 1.0],   # tie at grid index 1
        ])
        with pytest.raises(BranchAmbiguity, match="second") as info:
            _track_branches(principal, (1, 1), ("first", "second"))
        assert info.value.grid_index == 1


def csv_writer_table(header_lines, names, columns) -> str:
    """The row-by-row ``csv.writer`` rendering every table once went through."""
    buffer = io.StringIO()
    for line in header_lines:
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in zip(*columns):
        writer.writerow([format_number(cell) for cell in row])
    return buffer.getvalue()


class TestTableText:
    SPECIAL = [
        0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308 / 3,
        1.7976931348623157e308, 0.1, -1e-300, 123456789.0, 1.0 / 3.0,
    ]

    def test_special_floats_byte_identical(self):
        n = len(self.SPECIAL)
        columns = [
            np.array(self.SPECIAL),
            list(reversed(self.SPECIAL)),
            np.arange(n),
            np.full(n, -0.0),
        ]
        names = ["a", "b", "k", "z"]
        header = ["# title", "# scenario: {}"]
        assert table_text(header, names, columns) == csv_writer_table(
            header, names, columns
        )

    def test_multiple_blocks_byte_identical(self):
        rng = np.random.default_rng(7)
        n = 2 * BLOCK_ROWS + 5
        columns = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
                   for _ in range(3)]
        names = ["x", "y", "z"]
        assert table_text([], names, columns) == csv_writer_table([], names, columns)

    def test_string_cells_byte_identical(self):
        columns = [
            [0.5, -0.0, np.nan],
            [1.0, np.inf, 2.0],
            ["", 'ValidationError: a, "quoted" value', "x,y"],
        ]
        names = ["a.b", "maxP", "error"]
        text = table_text(["# sweep"], names, columns)
        assert text == csv_writer_table(["# sweep"], names, columns)
        assert '"ValidationError: a, ""quoted"" value"' in text

    def test_no_rows(self):
        columns = [np.array([]), np.array([])]
        assert table_text([], ["a", "b"], columns) == "a,b\n"
