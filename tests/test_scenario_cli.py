"""Scenario loading, sweep specifications and the command-line interface.

CLI tests call main() in-process with --out into tmp_path, then parse the
emitted CSV; nothing here shells out.
"""

from __future__ import annotations

import copy
import csv
import json
import math

import numpy as np
import pytest

from nads.cli import main
from nads.errors import ParseError, ValidationError
from nads.nads_core import snapshot_series
from nads.scenario import (
    SweepAxis,
    SweepSpec,
    axis_values,
    list_shipped,
    load_scenario,
    load_shipped,
    parse_axis,
    scenario_from_dict,
    serialize,
    shipped_path,
    validate_axis_path,
    with_axis_value,
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
    def test_parse_axis_forms(self):
        axis = parse_axis("system.gamma_e:0:0.5:5")
        assert axis == SweepAxis("system.gamma_e", 0.0, 0.5, 5, "linear")
        axis = parse_axis("field.envelope.tau:1:100:4:log")
        assert axis.spacing == "log"
        assert np.allclose(axis_values(axis), np.geomspace(1.0, 100.0, 4))

    def test_parse_axis_errors(self):
        with pytest.raises(ParseError, match="form"):
            parse_axis("system.gamma_e:0:1")
        with pytest.raises(ParseError, match="bounds"):
            parse_axis("p:zero:1:3")
        with pytest.raises(ParseError, match="count"):
            parse_axis("p:0:1:many")
        with pytest.raises(ParseError, match="trailing"):
            parse_axis("p:0:1:3:cubic")
        with pytest.raises(ParseError, match="finite"):
            parse_axis("p:nan:1:3")
        with pytest.raises(ParseError, match="finite"):
            parse_axis("p:0:inf:3")

    def test_axis_bounds_validation(self):
        with pytest.raises(ValidationError, match="count"):
            SweepAxis("p", 0.0, 1.0, 1)
        with pytest.raises(ValidationError, match="log"):
            SweepAxis("p", 0.0, 1.0, 3, "log")

    def test_axis_path_validation(self, tmp_path):
        resolved = load_scenario(write_doc(tmp_path, minimal_doc())).resolved()
        validate_axis_path(resolved, "field.envelope.omega0")
        with pytest.raises(ValidationError, match="did you mean 'envelope'"):
            validate_axis_path(resolved, "field.envelop.omega0")
        with pytest.raises(ValidationError, match="numeric"):
            validate_axis_path(resolved, "field.envelope.kind")

    def test_with_axis_value_copies(self, tmp_path):
        resolved = load_scenario(write_doc(tmp_path, minimal_doc())).resolved()
        patched = with_axis_value(resolved, "system.gamma_e", 0.25)
        assert patched["system"]["gamma_e"] == 0.25
        assert resolved["system"]["gamma_e"] == 0.0

    def test_sweep_spec_checks_paths_before_compute(self, tmp_path):
        base = load_scenario(write_doc(tmp_path, minimal_doc()))
        axis = parse_axis("system.gammma_e:0:1:3")
        with pytest.raises(ValidationError, match="did you mean 'gamma_e'"):
            SweepSpec(base=base, axes=(axis,), reduce="maxP")
        with pytest.raises(ValidationError, match="1 or 2 axes"):
            SweepSpec(base=base, axes=(), reduce="maxP")


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

    def test_chirp_rate_drives_transition_probability(self, tmp_path):
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

    def test_axis_path_typo_fails_fast(self, tmp_path, capsys):
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gammma_e:0:0.4:3",
            "--reduce", "maxP",
        ])
        assert rc == 1
        assert "did you mean 'gamma_e'" in capsys.readouterr().err

    def test_unknown_reducer(self, tmp_path, capsys):
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gamma_e:0:0.4:3",
            "--reduce", "maxQ",
        ])
        assert rc == 1
        assert "--reduce" in capsys.readouterr().err

    def test_worker_count_env_validation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NADS_WORKERS", "zero")
        rc = main([
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "system.gamma_e:0:0.4:3",
            "--reduce", "maxP",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 1
        assert "NADS_WORKERS" in capsys.readouterr().err

    def test_sequential_and_concurrent_runs_match(self, tmp_path, monkeypatch):
        args = [
            "sweep", str(shipped_path("constant-detuned")),
            "--axis", "field.envelope.omega0:1:3:4",
            "--reduce", "finalPe",
        ]
        monkeypatch.setenv("NADS_WORKERS", "1")
        seq = tmp_path / "seq.csv"
        assert main(args + ["--out", str(seq)]) == 0
        monkeypatch.setenv("NADS_WORKERS", "4")
        par = tmp_path / "par.csv"
        assert main(args + ["--out", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()


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

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["field"]["envelope"] = {
            "kind": "gaussian", "omega0": 1.0, "t_center": 0.0, "tau": 1.0,
        }
        doc["grid"] = {"t_start": -9.0, "t_end": 9.0, "step": 0.0025}
        rc = main(["snapshot", write_doc(tmp_path, doc)])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err

    def test_snapshot_byte_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["snapshot", str(shipped_path("sech-damped")),
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
