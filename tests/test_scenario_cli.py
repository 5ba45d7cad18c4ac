"""Scenario loading, sweep specifications and the command-line interface.

CLI tests call main() in-process with --out into tmp_path, then parse the
emitted CSV; nothing here shells out.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads.cli import main
from nads.errors import ParseError, ValidationError
from nads.nads_core import snapshot_series
from nads.scenario import (
    list_shipped,
    load_scenario,
    load_shipped,
    parse_axis,
    scenario_from_dict,
    serialize,
    shipped_path,
    with_axis_values,
)
from nads.validation import check_lambda_consistency

from conftest import FLAGSHIP, SLOW_ADIABATIC


def minimal_doc() -> dict:
    return {
        "name": "minimal",
        "system": {"omega_g": 0.0, "omega_e": 5.0},
        "field": {
            "carrier_omega": 4.0,
            "envelope": {"kind": "constant", "omega0": 0.5},
        },
        "grid": {"t_start": 0.0, "t_end": 1.0, "step": 0.1},
    }


def write_doc(tmp_path, doc, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_table(path) -> tuple[list[str], list[str], list[list[str]]]:
    comments, data = [], []
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                data.append(line)
    rows = list(csv.reader(data))
    return comments, rows[0], rows[1:]


def column(names, rows, name) -> np.ndarray:
    idx = names.index(name)
    return np.array([float(row[idx]) for row in rows])


class TestScenarioLoading:
    def test_defaults_filled(self, tmp_path):
        scenario = load_scenario(write_doc(tmp_path, minimal_doc()))
        assert scenario.rtol == 1e-10
        assert scenario.atol == 1e-12
        assert scenario.frame == "rotating"
        assert scenario.step_policy == "error"
        assert scenario.outputs == ("snapshot",)
        assert scenario.initial_state == "ground"
        assert scenario.system.mu == 1.0
        assert scenario.system.gamma_g == 0.0
        assert scenario.field.phase.beta == 0.0

    def test_round_trip_every_shipped_scenario(self, tmp_path):
        for name in list_shipped():
            scenario = load_shipped(name)
            path = tmp_path / f"{name}-echo.json"
            path.write_text(serialize(scenario), encoding="utf-8")
            assert load_scenario(str(path)) == scenario

    def test_grid_points(self, tmp_path):
        doc = minimal_doc()
        doc["grid"] = {"t_start": -1.0, "t_end": 1.0, "step": 0.5}
        scenario = load_scenario(write_doc(tmp_path, doc))
        assert np.allclose(scenario.grid(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_unknown_key_suggestion(self):
        doc = minimal_doc()
        doc["system"]["gammma_e"] = 0.1
        with pytest.raises(ParseError, match="did you mean 'gamma_e'"):
            scenario_from_dict(doc)

    def test_negative_tau_names_field(self):
        doc = minimal_doc()
        doc["field"]["envelope"] = {
            "kind": "gaussian", "omega0": 1.0, "tau": -1.0,
        }
        with pytest.raises(ValidationError, match="field.envelope.tau"):
            scenario_from_dict(doc)

    def test_bool_is_not_a_number(self):
        doc = minimal_doc()
        doc["system"]["omega_e"] = True
        with pytest.raises(ParseError, match="must be a number"):
            scenario_from_dict(doc)

    def test_missing_section(self):
        doc = minimal_doc()
        del doc["field"]
        with pytest.raises(ParseError, match="missing required key 'field'"):
            scenario_from_dict(doc)

    def test_level_ordering_enforced(self):
        doc = minimal_doc()
        doc["system"]["omega_e"] = -1.0
        with pytest.raises(ValidationError, match="omega_e"):
            scenario_from_dict(doc)

    def test_negative_damping_rejected(self):
        doc = minimal_doc()
        doc["system"]["gamma_e"] = -0.1
        with pytest.raises(ValidationError, match="gamma"):
            scenario_from_dict(doc)

    def test_step_must_divide_interval(self):
        doc = minimal_doc()
        doc["grid"]["step"] = 0.3
        with pytest.raises(ValidationError, match="whole number"):
            scenario_from_dict(doc)

    def test_step_policy_error_and_warn(self):
        doc = minimal_doc()
        doc["field"]["envelope"] = {
            "kind": "gaussian", "omega0": 1.0, "tau": 1.0, "t_center": 0.5,
        }
        doc["grid"] = {"t_start": 0.0, "t_end": 1.0, "step": 0.01}
        with pytest.raises(ValidationError, match="tau/400"):
            scenario_from_dict(doc)
        doc["grid"]["step_policy"] = "warn"
        with pytest.warns(UserWarning, match="tau/400"):
            scenario = scenario_from_dict(doc)
        assert scenario.step == 0.01

    def test_reversed_grid_rejected(self):
        doc = minimal_doc()
        doc["grid"] = {"t_start": 1.0, "t_end": 0.0, "step": 0.1}
        with pytest.raises(ValidationError, match="t_end"):
            scenario_from_dict(doc)

    def test_outputs_validation(self):
        doc = minimal_doc()
        doc["outputs"] = "snapshot"
        with pytest.raises(ParseError, match="list of strings"):
            scenario_from_dict(doc)
        doc["outputs"] = ["snapshots"]
        with pytest.raises(ValidationError, match="did you mean 'snapshot'"):
            scenario_from_dict(doc)

    def test_initial_state_validation(self):
        doc = minimal_doc()
        doc["initial_state"] = "Ground"
        with pytest.raises(ValidationError, match="initial_state"):
            scenario_from_dict(doc)

    def test_non_object_document(self):
        with pytest.raises(ParseError, match="must be an object"):
            scenario_from_dict(["not", "a", "mapping"])

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  bad}', encoding="utf-8")
        with pytest.raises(ParseError, match="broken.json:2"):
            load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))


class TestSweepSpecs:
    @pytest.fixture
    def resolved(self):
        return load_shipped("sech-damped").resolved()

    def test_parse_axis_forms(self, resolved):
        path, values = parse_axis("system.gamma_e:0:0.5:5", resolved)
        assert path == "system.gamma_e"
        assert np.array_equal(values, np.linspace(0.0, 0.5, 5))
        path, values = parse_axis("field.envelope.tau:1:100:4:log", resolved)
        assert path == "field.envelope.tau"
        assert np.array_equal(values, np.geomspace(1.0, 100.0, 4))
        _, values = parse_axis("field.envelope.tau:1:100:4:linear", resolved)
        assert np.array_equal(values, np.linspace(1.0, 100.0, 4))

    def test_parse_axis_errors(self, resolved):
        with pytest.raises(ParseError, match="form"):
            parse_axis("system.gamma_e:0:1", resolved)
        with pytest.raises(ParseError, match="bounds"):
            parse_axis("p:zero:1:3", resolved)
        with pytest.raises(ParseError, match="count"):
            parse_axis("p:0:1:many", resolved)
        with pytest.raises(ParseError, match="trailing"):
            parse_axis("p:0:1:3:cubic", resolved)
        with pytest.raises(ParseError, match="finite"):
            parse_axis("p:nan:1:3", resolved)
        with pytest.raises(ParseError, match="finite"):
            parse_axis("p:0:inf:3", resolved)

    def test_axis_bounds_validation(self, resolved):
        with pytest.raises(ValidationError, match="axis p: count must be >= 2"):
            parse_axis("p:0:1:1", resolved)
        with pytest.raises(ValidationError, match="log spacing requires positive"):
            parse_axis("p:0:1:3:log", resolved)

    def test_axis_path_validation(self, tmp_path):
        resolved = load_scenario(write_doc(tmp_path, minimal_doc())).resolved()
        parse_axis("field.envelope.omega0:0:1:3", resolved)
        with pytest.raises(ValidationError, match="did you mean 'envelope'"):
            parse_axis("field.envelop.omega0:0:1:3", resolved)
        with pytest.raises(ValidationError, match="numeric"):
            parse_axis("field.envelope.kind:0:1:3", resolved)
        with pytest.raises(ValidationError, match="no key 'tau' under field.envelope"):
            parse_axis("field.envelope.tau:1:2:3", resolved)

    def test_with_axis_values_copies(self, tmp_path):
        resolved = load_scenario(write_doc(tmp_path, minimal_doc())).resolved()
        before = copy.deepcopy(resolved)
        patched = with_axis_values(
            resolved, [("system.gamma_e", 0.25), ("field.envelope.omega0", 2.0)]
        )
        assert patched["system"]["gamma_e"] == 0.25
        assert patched["field"]["envelope"]["omega0"] == 2.0
        assert resolved == before


class TestShippedScenarios:
    def test_corpus_spans_the_feature_grid(self):
        names = list_shipped()
        assert len(names) >= 6
        scenarios = [load_shipped(name) for name in names]
        kinds = {s.field.envelope.kind for s in scenarios}
        assert kinds == {"constant", "gaussian", "sech"}
        assert any(s.system.gamma_e > 0 for s in scenarios)
        assert any(s.system.gamma_e == 0 for s in scenarios)
        assert any(s.field.phase.beta != 0 for s in scenarios)
        assert any(s.field.phase.beta == 0 for s in scenarios)

    def test_unknown_shipped_name(self):
        with pytest.raises(ValidationError, match="did you mean"):
            shipped_path("gaussian-chirped-dampd")


class TestCliSnapshot:
    def test_table_shape_and_header(self, tmp_path):
        out = tmp_path / "snap.csv"
        rc = main(["snapshot", str(shipped_path("constant-detuned")),
                   "--out", str(out)])
        assert rc == 0
        comments, names, rows = read_table(out)
        assert comments[0] == "# snapshot table"
        assert comments[1].startswith("# scenario: {")
        assert names == [
            "t", "omega", "delta",
            "Re_delta_tilde", "Im_delta_tilde",
            "Re_omega_tilde", "Im_omega_tilde",
            "Re_cos_half", "Im_cos_half",
            "Re_sin_half", "Im_sin_half",
            "Re_omega_G", "Im_omega_G",
            "Re_omega_E", "Im_omega_E",
            "gg", "ee", "Re_eg", "Im_eg", "P",
        ]
        assert len(rows) == 401

    def test_static_scenario_has_zero_p_column(self, tmp_path):
        out = tmp_path / "snap.csv"
        main(["snapshot", str(shipped_path("constant-detuned")),
              "--out", str(out)])
        _, names, rows = read_table(out)
        assert np.max(column(names, rows, "P")) < 1e-12

    def test_p_peaks_with_nonadiabatic_detuning(self, tmp_path):
        out = tmp_path / "snap.csv"
        main(["snapshot", str(shipped_path(FLAGSHIP)), "--out", str(out)])
        _, names, rows = read_table(out)
        p = column(names, rows, "P")
        ratio = np.abs(column(names, rows, "Im_delta_tilde")) / np.abs(
            column(names, rows, "Re_omega_tilde")
            + 1j * column(names, rows, "Im_omega_tilde")
        )
        assert ratio[np.argmax(p)] > 0.9 * np.max(ratio)

    def test_two_point_grid(self, tmp_path):
        doc = minimal_doc()
        doc["grid"] = {"t_start": 0.0, "t_end": 0.1, "step": 0.1}
        out = tmp_path / "snap.csv"
        rc = main(["snapshot", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        _, _, rows = read_table(out)
        assert len(rows) == 2

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "snap.json"
        rc = main(["snapshot", str(shipped_path("constant-detuned")),
                   "--json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["title"] == "snapshot table"
        assert payload["scenario"]["name"] == "constant-detuned"
        assert len(payload["columns"]["P"]) == 401


class TestCliEvolve:
    def test_compare_long_damped_excited_start_is_finite(self, tmp_path):
        # The component weights over- and underflow on this grid; the
        # closed-form ratio must not.
        doc = json.loads(shipped_path("constant-damped").read_text())
        doc["initial_state"] = "excited"
        doc["grid"] = {"t_start": 0, "t_end": 6000, "step": 0.5}
        out = tmp_path / "evolve.csv"
        assert main(["evolve", write_doc(tmp_path, doc), "--compare",
                     "--out", str(out)]) == 0
        _, names, rows = read_table(out)
        ratio_model = column(names, rows, "ratio_model")
        assert len(ratio_model) == 12001
        assert np.all(np.isfinite(ratio_model))

    def test_pi_pulse_final_population(self, tmp_path):
        out = tmp_path / "evolve.csv"
        rc = main(["evolve", str(shipped_path("constant-rabi-resonant")),
                   "--out", str(out)])
        assert rc == 0
        _, names, rows = read_table(out)
        p_e = (column(names, rows, "Re_c_e") ** 2
               + column(names, rows, "Im_c_e") ** 2)
        assert abs(p_e[-1] - 1.0) < 1e-8

    def test_decay_norm_column(self, tmp_path):
        doc = minimal_doc()
        doc["name"] = "decay"
        doc["system"] = {"omega_g": 0.0, "omega_e": 5.0, "gamma_e": 0.5}
        doc["field"] = {
            "carrier_omega": 5.0,
            "envelope": {"kind": "constant", "omega0": 1e-20},
        }
        doc["grid"] = {"t_start": 0.0, "t_end": 2.0, "step": 0.02}
        doc["initial_state"] = "excited"
        out = tmp_path / "evolve.csv"
        rc = main(["evolve", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        _, names, rows = read_table(out)
        t = column(names, rows, "t")
        norm = column(names, rows, "norm")
        assert np.max(np.abs(norm - np.exp(-0.5 * t))) < 1e-8

    def test_compare_mode_ratio_agreement_at_pulse_center(self, tmp_path):
        out = tmp_path / "evolve.csv"
        rc = main(["evolve", str(shipped_path(SLOW_ADIABATIC)),
                   "--compare", "--out", str(out)])
        assert rc == 0
        _, names, rows = read_table(out)
        assert names[-2:] == ["ratio_tdse", "ratio_model"]
        t = column(names, rows, "t")
        center = int(np.argmin(np.abs(t)))
        tdse = column(names, rows, "ratio_tdse")[center]
        model = column(names, rows, "ratio_model")[center]
        assert abs(tdse - model) / tdse < 0.05


class TestCliSweep:
    def test_two_axis_cardinality_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "field.envelope.omega0:1:3:5",
            "--axis", "system.gamma_e:0:0.4:5",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 0
        _, names, rows = read_table(out)
        assert names == ["field.envelope.omega0", "system.gamma_e",
                         "maxP", "error"]
        assert len(rows) == 25
        omega0 = column(names, rows, "field.envelope.omega0")
        gamma = column(names, rows, "system.gamma_e")
        assert np.array_equal(omega0, np.repeat(np.linspace(1, 3, 5), 5))
        assert np.array_equal(gamma, np.tile(np.linspace(0, 0.4, 5), 5))
        assert all(row[names.index("error")] == "" for row in rows)

    def test_chirp_rate_drives_max_p(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "field.phase.beta:0:0.25:6",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 0
        _, names, rows = read_table(out)
        max_p = column(names, rows, "maxP")
        assert max_p[0] < 1e-12
        assert np.all(np.diff(max_p) > -1e-15)

    def test_per_point_failure_lands_in_error_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gamma_e:-0.4:0.4:3",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 0
        _, names, rows = read_table(out)
        errors = [row[names.index("error")] for row in rows]
        assert errors[0].startswith("ValidationError")
        assert errors[1] == "" and errors[2] == ""
        assert math.isnan(float(rows[0][names.index("maxP")]))

    def test_failed_point_is_null_in_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gamma_e:-0.4:0.4:3",
            "--reduce", "maxP",
            "--json", "--out", str(out),
        ])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        columns = doc["columns"]
        assert columns["maxP"][0] is None
        assert columns["error"][0].startswith("ValidationError")
        assert all(isinstance(v, float) for v in columns["maxP"][1:])

    def test_axis_path_typo_fails_fast(self, tmp_path, capsys):
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gammma_e:0:0.4:3",
            "--reduce", "maxP",
        ])
        assert rc == 1
        assert "did you mean 'gamma_e'" in capsys.readouterr().err

    def test_axis_path_typo_in_minimal_scenario(self, tmp_path, capsys):
        rc = main([
            "sweep", write_doc(tmp_path, minimal_doc()),
            "--axis", "system.gammma_e:0:1:3",
            "--reduce", "maxP",
        ])
        assert rc == 1
        assert "did you mean 'gamma_e'" in capsys.readouterr().err

    def test_three_axes_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", write_doc(tmp_path, minimal_doc()),
            "--axis", "system.gamma_e:0:0.4:2",
            "--axis", "system.gamma_g:0:0.4:2",
            "--axis", "field.envelope.omega0:0.5:1:2",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 1
        assert "1 or 2 axes" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_axis_path_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", write_doc(tmp_path, minimal_doc()),
            "--axis", "system.omega_e:1:2:3",
            "--axis", "system.omega_e:1:2:2",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 1
        assert "system.omega_e twice" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_reducer(self, tmp_path, capsys):
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gamma_e:0:0.4:3",
            "--reduce", "maxQ",
        ])
        assert rc == 1
        assert "--reduce" in capsys.readouterr().err


class TestCliValidate:
    def test_all_checks_pass(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 16
        assert all(line.startswith("PASS ") for line in lines)
        assert any("landau_zener" in line for line in lines)
        assert any("exponential_cancellation" in line for line in lines)

    def test_json_report(self, capsys):
        rc = main(["validate", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert len(report) == 16
        assert all(entry["passed"] for entry in report)
        by_name = {entry["name"]: entry for entry in report}
        assert by_name["exponential_cancellation"]["worst"] < 1e-9
        assert by_name["exponential_cancellation"]["bound"] == 1e-9

    def test_injected_sign_flip_fails_by_name(self):
        scenario = load_shipped("constant-detuned")
        series = snapshot_series(
            scenario.system, scenario.field, scenario.grid()
        )
        series.lambda2 = -series.lambda2
        result = check_lambda_consistency([series])
        assert not result.passed
        assert result.name == "lambda_consistency"
        assert result.line().startswith("FAIL lambda_consistency")


#: Every numeric field of a scenario with a pulsed, chirped field.
NUMERIC_FIELDS = (
    ("system", "omega_g"), ("system", "omega_e"), ("system", "mu"),
    ("system", "gamma_g"), ("system", "gamma_e"),
    ("field", "carrier_omega"),
    ("field", "envelope", "omega0"), ("field", "envelope", "t_center"),
    ("field", "envelope", "tau"),
    ("field", "phase", "phi0"), ("field", "phase", "beta"),
    ("field", "phase", "t_center"),
    ("grid", "t_start"), ("grid", "t_end"), ("grid", "step"),
    ("integrator", "rtol"), ("integrator", "atol"),
)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("path", NUMERIC_FIELDS, ids=".".join)
    def test_rejected_with_exit_one_and_no_table(self, tmp_path, capsys, path, value):
        doc = minimal_doc()
        doc["field"]["envelope"] = {
            "kind": "gaussian", "omega0": 1.0, "t_center": 0.5, "tau": 400.0,
        }
        doc["field"]["phase"] = {"phi0": 0.0, "beta": 0.001, "t_center": 0.0}
        doc["integrator"] = {"rtol": 1e-10, "atol": 1e-12}
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        out = tmp_path / "table.csv"
        # json.dumps writes NaN/Infinity/-Infinity, which json.loads accepts.
        rc = main(["snapshot", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_integer_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(minimal_doc()).replace('"omega_e": 5.0', '"omega_e": 1' + "0" * 400),
            encoding="utf-8",
        )
        assert main(["snapshot", str(path)]) == 1
        assert "finite" in capsys.readouterr().err


#: Fields a fuzzed scenario may set out of bounds (to 0 or -1).
BREAKABLE = (
    ("system", "mu"), ("system", "gamma_g"), ("system", "gamma_e"),
    ("field", "carrier_omega"), ("field", "envelope", "omega0"),
    ("grid", "step"),
)


@st.composite
def scenario_docs(draw, out_of_bounds=True):
    """Scenario documents across the schema on grids of at most 600 steps;
    with ``out_of_bounds``, one in four has one field out of bounds."""
    kind = draw(st.sampled_from(["constant", "gaussian", "sech"]))
    tau = draw(st.floats(0.05, 50.0))
    step = tau / 400.0 * draw(st.floats(0.1, 1.2))
    t_start = draw(st.floats(-60.0, 60.0))
    envelope = {"kind": kind, "omega0": draw(st.floats(1e-3, 10.0))}
    if kind != "constant":
        envelope["t_center"] = t_start + tau * draw(st.floats(-10.0, 10.0))
        envelope["tau"] = tau
    omega_g = draw(st.floats(-10.0, 10.0))
    doc = {
        "name": "fuzz",
        "system": {
            "omega_g": omega_g,
            "omega_e": omega_g + draw(st.floats(1e-3, 10.0)),
            "mu": draw(st.floats(0.1, 3.0)),
            "gamma_g": draw(st.floats(0.0, 2.0)),
            "gamma_e": draw(st.floats(0.0, 2.0)),
        },
        "field": {
            "carrier_omega": draw(st.floats(0.1, 10.0)),
            "envelope": envelope,
            "phase": {
                "phi0": draw(st.floats(-3.0, 3.0)),
                "beta": draw(st.floats(-1.0, 1.0)),
                "t_center": draw(st.none() | st.floats(-60.0, 60.0)),
            },
        },
        "grid": {
            "t_start": t_start,
            "t_end": t_start + draw(st.integers(1, 600)) * step,
            "step": step,
            "step_policy": draw(st.sampled_from(["error", "warn"])),
        },
        "initial_state": draw(st.sampled_from(["ground", "excited"])),
    }
    if out_of_bounds and draw(st.integers(0, 3)) == 0:
        *parents, key = draw(st.sampled_from(BREAKABLE))
        node = doc
        for part in parents:
            node = node[part]
        node[key] = draw(st.sampled_from([0.0, -1.0]))
    return doc


@given(doc=scenario_docs())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:grid.step")
def test_snapshot_fuzz_exit_codes_and_finite_tables(doc):
    """Any scenario: no bare exception, exit 0, 1 or 2, and a table written
    with exit 0 holds only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "table.csv"
        rc = main(["snapshot", str(path), "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc == 0:
            _, names, rows = read_table(out)
            cells = np.array([[float(cell) for cell in row] for row in rows])
            assert cells.shape[1] == len(names)
            assert np.all(np.isfinite(cells))


#: Optional keys of a fuzzed document and their defaults as the README
#: documents them.
OPTIONAL_DEFAULTS = {
    ("system", "mu"): 1.0,
    ("system", "gamma_g"): 0.0,
    ("system", "gamma_e"): 0.0,
    ("field", "envelope", "t_center"): 0.0,
    ("field", "envelope", "tau"): 1.0,
    ("field", "phase"): {"phi0": 0.0, "beta": 0.0, "t_center": None},
    ("field", "phase", "phi0"): 0.0,
    ("field", "phase", "beta"): 0.0,
    ("field", "phase", "t_center"): None,
    ("initial_state",): "ground",
}


def at_path(doc, path):
    for part in path:
        doc = doc[part]
    return doc


@given(doc=scenario_docs(out_of_bounds=False), data=st.data())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:grid.step")
def test_round_trip_with_optional_keys_dropped(doc, data):
    """A key left out reads back as its documented default, and loading the
    serialized scenario reproduces the scenario."""
    # The drawn step need not resolve tau, drawn or the default 1.
    doc["grid"]["step_policy"] = "warn"
    present = [
        path for path in OPTIONAL_DEFAULTS if path[-1] in at_path(doc, path[:-1])
    ]
    dropped = data.draw(st.lists(st.sampled_from(present), unique=True))
    for *parents, key in dropped:
        node = doc
        for part in parents:
            node = node.get(part, {})
        node.pop(key, None)
    scenario = scenario_from_dict(doc)
    assert scenario_from_dict(json.loads(serialize(scenario))) == scenario
    resolved = scenario.resolved()
    for path in dropped:
        assert at_path(resolved, path) == OPTIONAL_DEFAULTS[path], path


class TestCliPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "snapshot" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = main(["snapshot", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_scenario_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        rc = main(["snapshot", str(path)])
        assert rc == 1
        assert "binary.json: not UTF-8" in capsys.readouterr().err

    def test_scenario_json_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        rc = main(["snapshot", str(path)])
        assert rc == 1
        assert "deep.json: JSON nested too deeply" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["field"]["envelope"] = {
            "kind": "gaussian", "omega0": 1.0, "t_center": 0.0, "tau": 1.0,
        }
        doc["grid"] = {"t_start": -9.0, "t_end": 9.0, "step": 0.0025}
        rc = main(["snapshot", write_doc(tmp_path, doc)])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err

    # Both requests ask for about 7 PiB, more than the address space, so the
    # allocation fails at once without touching memory.
    def test_oversized_grid_exits_one_by_name(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["grid"]["step"] = 1e-15
        out = tmp_path / "table.csv"
        rc = main(["snapshot", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 1
        assert "error: out of memory" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_sweep_count_exits_one_by_name(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", write_doc(tmp_path, minimal_doc()),
            "--axis", "system.gamma_e:0:1:1000000000000000",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 1
        assert "error: out of memory" in capsys.readouterr().err
        assert not out.exists()

    # Two axes of 10^7 values (80 MB each) make 10^14 points: the axis
    # columns ask for 728 TiB at once, so the sweep fails before any point.
    def test_oversized_two_axis_sweep_exits_one_by_name(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", write_doc(tmp_path, minimal_doc()),
            "--axis", "system.gamma_e:0:1:10000000",
            "--axis", "system.gamma_g:0:1:10000000",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 1
        assert "error: out of memory" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_without_text(self, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr("nads.cli.load_scenario", exhausted)
        assert main(["snapshot", "scenario.json"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_unwritable_out_path(self, tmp_path, capsys):
        target = tmp_path / "absent" / "x.csv"
        rc = main(["snapshot", str(shipped_path("constant-detuned")),
                   "--out", str(target)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write" in err and str(target) in err

    def test_snapshot_byte_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["snapshot", str(shipped_path("sech-damped")),
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
