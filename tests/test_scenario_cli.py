"""Scenario loading, sweep specifications and the command-line interface.

CLI tests call main() in-process with --out into tmp_path, then parse the
emitted CSV; the tests of warning filters, start-up imports and a reader
closing stdout early run a child process. ``test_processes`` runs the
command line in fresh interpreters.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import gc
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nads
from nads import cli
from nads.cli import _keep_heap, build_parser, main
from nads.errors import ConfigError, ParseError, StepWarning, ValidationError
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
from nads.tables import write_table
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


def fast_coupling_doc() -> dict:
    """The first pass asks for 5e8 substeps per output interval, of one row
    for this constant coupling: past the pass limit of 2^26 substeps, hours
    of work."""
    doc = minimal_doc()
    doc["field"]["envelope"]["omega0"] = 1e12
    doc["grid"] = {"t_start": 0.0, "t_end": 1e-3, "step": 1e-4}
    return doc


def code_built(**changes) -> nads.Scenario:
    """A scenario built in code: a Gaussian pulse of tau = 1 on a grid that
    resolves it, with ``changes`` to the constructor's arguments."""
    args = dict(
        name="code",
        system=nads.SystemParams(0.0, 5.0),
        field=nads.FieldModel(4.0, nads.GaussianEnvelope(1.0, 0.5, 1.0)),
        grid=nads.Grid(0, 1, 0.0025),
    )
    return nads.Scenario(**{**args, **changes})


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


def child_env(**changes: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this ``nads``:
    the installed package or ``src``, whichever this process runs."""
    return dict(os.environ, PYTHONPATH=str(Path(nads.__file__).resolve().parents[1]),
                **changes)


def run_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


class TestScenarioLoading:
    def test_defaults_filled(self, tmp_path):
        scenario = load_scenario(write_doc(tmp_path, minimal_doc()))
        assert scenario.integrator == nads.Integrator("rotating", 1e-10, 1e-12)
        assert scenario.grid.step_policy == "error"
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
            assert scenario_from_dict(json.loads(serialize(scenario))) == scenario

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
        assert scenario.grid.step == 0.01

    def test_reversed_grid_rejected(self):
        doc = minimal_doc()
        doc["grid"] = {"t_start": 1.0, "t_end": 0.0, "step": 0.1}
        with pytest.raises(ValidationError, match="t_end"):
            scenario_from_dict(doc)

    def test_code_built_sections_are_checked(self):
        grid = load_shipped("constant-damped").grid
        with pytest.raises(ValidationError, match=r"^grid.t_end \(-5.0\) must exceed"):
            dataclasses.replace(grid, t_end=-5.0)
        with pytest.raises(ValidationError, match="whole number of steps"):
            nads.Grid(0, 1, 0.3)
        with pytest.raises(ValidationError, match="^Grid.t_end must be finite"):
            nads.Grid(0, math.inf, 0.1)
        with pytest.raises(ValidationError, match="^Integrator.rtol must be positive, got 0$"):
            nads.Integrator(rtol=0)
        assert np.array_equal(nads.Grid(-1, 1, 0.5)(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        with pytest.raises(ValidationError, match=re.escape(
            "Grid.step_policy must be one of ['error', 'warn'], got 'bogus'"
        )):
            nads.Grid(0, 1, 0.1, step_policy="bogus")
        with pytest.raises(ValidationError, match=re.escape(
            "Integrator.frame must be one of ['rotating'], got 'lab'"
        )):
            nads.Integrator(frame="lab")

    def test_code_built_scenario_is_checked(self):
        with pytest.raises(ValidationError, match="^Scenario.name must be a non-empty string$"):
            code_built(name="")
        with pytest.raises(ValidationError, match=re.escape(
            "Scenario.outputs must be one of ['snapshot', 'evolve'], got 'snap'; "
            "did you mean 'snapshot'?"
        )):
            code_built(outputs=("snap",))
        with pytest.raises(ValidationError, match=re.escape(
            "Scenario.initial_state must be one of ['ground', 'excited'], got 'up'"
        )):
            code_built(initial_state="up")
        message = re.escape(
            "grid.step (0.01) exceeds tau/400 (0.0025) for the pulsed envelope"
        )
        with pytest.raises(ValidationError, match=message):
            code_built(grid=nads.Grid(0, 1, 0.01))
        with pytest.warns(StepWarning, match=message):
            scenario = code_built(grid=nads.Grid(0, 1, 0.01, step_policy="warn"))
        assert scenario.grid.step == 0.01
        assert code_built().outputs == ("snapshot",)

    def test_round_trip_code_built_scenarios(self):
        scenarios = [
            code_built(),
            code_built(
                field=nads.FieldModel(
                    2.0, nads.ConstantEnvelope(0.5), nads.Chirp(0.1, 0.2, -1.0)
                ),
                grid=nads.Grid(-1, 1, 0.25),
                integrator=nads.Integrator("rotating", 1e-8, 1e-9),
                outputs=("evolve", "snapshot"),
                initial_state="excited",
            ),
        ]
        for scenario in scenarios:
            assert scenario_from_dict(json.loads(serialize(scenario))) == scenario

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
        with pytest.raises(ParseError, match="finite"):
            parse_axis("p:nan:1:3", resolved)
        with pytest.raises(ParseError, match="finite"):
            parse_axis("p:0:inf:3", resolved)

    def test_axis_bounds_validation(self, resolved):
        with pytest.raises(ValidationError, match="axis p: count must be >= 2"):
            parse_axis("p:0:1:1", resolved)
        with pytest.raises(ValidationError, match="log spacing requires positive"):
            parse_axis("p:0:1:3:log", resolved)
        with pytest.raises(ValidationError, match=re.escape(
            "axis 'p:0:1:3:cubic': trailing tag must be one of ['log', 'linear'], got 'cubic'"
        )):
            parse_axis("p:0:1:3:cubic", resolved)

    def test_axis_path_validation(self, tmp_path):
        resolved = load_scenario(write_doc(tmp_path, minimal_doc())).resolved()
        parse_axis("field.envelope.omega0:0:1:3", resolved)
        with pytest.raises(ValidationError, match="did you mean 'envelope'"):
            parse_axis("field.envelop.omega0:0:1:3", resolved)
        with pytest.raises(ValidationError, match="numeric"):
            parse_axis("field.envelope.kind:0:1:3", resolved)
        with pytest.raises(ValidationError, match="no key 'tau' under field.envelope"):
            parse_axis("field.envelope.tau:1:2:3", resolved)


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

    def test_compare_releases_its_series_before_the_table(self, tmp_path, monkeypatch):
        # The closed-form series is needed only for ratio_model; holding it
        # while the table is formatted raises evolve's peak memory.
        series_refs, alive_at_write = [], []

        def recording_series(*args, **kwargs):
            series = snapshot_series(*args, **kwargs)
            series_refs.append(weakref.ref(series))
            return series

        def checking_write(*args, **kwargs):
            gc.collect()
            alive_at_write.extend(ref() is not None for ref in series_refs)
            return write_table(*args, **kwargs)

        monkeypatch.setattr(cli, "snapshot_series", recording_series)
        monkeypatch.setattr(cli, "write_table", checking_write)
        out = tmp_path / "evolve.csv"
        assert main(["evolve", str(shipped_path("constant-detuned")),
                     "--compare", "--out", str(out)]) == 0
        assert alive_at_write == [False]


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

    # A far start makes a grid whose step count overflows a float, or whose
    # points no array can hold: the point fails in its own cell, and the
    # point at 0 keeps the value it has in a sweep of its own.
    @pytest.mark.parametrize("axis, error", [
        ("grid.t_start:-1e308:0:2",
         "ValidationError: grid.step (0.1): the number of steps in [-1e+308, 1.0] "
         "overflows a float"),
        ("grid.t_start:-1e30:0:2",
         "ValidationError: grid.step (0.1) divides [-1e+30, 1.0] into 1e+31 steps, "
         "more points than an array can hold"),
    ], ids=["overflow", "size"])
    def test_far_grid_start_fails_in_its_own_cell(self, tmp_path, axis, error):
        path = write_doc(tmp_path, minimal_doc())
        out, alone = tmp_path / "sweep.csv", tmp_path / "alone.csv"
        assert main(["sweep", path, "--axis", axis, "--reduce", "maxP", "--out", str(out)]) == 0
        assert main(["sweep", path, "--axis", "grid.t_start:0:0.5:2", "--reduce", "maxP",
                     "--out", str(alone)]) == 0
        _, names, rows = read_table(out)
        _, _, alone_rows = read_table(alone)
        assert [row[names.index("error")] for row in rows] == [error, ""]
        assert rows[0][names.index("maxP")] == "nan"
        assert rows[1] == alone_rows[0]

    # A grid from -1e15 has 1e16 points: its request exceeds the address
    # space, so it fails at once without touching memory, in its own cell.
    @pytest.mark.parametrize("reduce", ["maxP", "finalPe"])
    def test_oversized_grid_point_fails_in_its_own_cell(self, tmp_path, capsys, reduce):
        path = write_doc(tmp_path, minimal_doc())
        out, alone = tmp_path / "sweep.csv", tmp_path / "alone.csv"
        assert main(["sweep", path, "--axis", "grid.t_start:-1e15:0:2", "--reduce", reduce,
                     "--out", str(out)]) == 0
        assert main(["sweep", path, "--axis", "grid.t_start:0:0.5:2", "--reduce", reduce,
                     "--out", str(alone)]) == 0
        assert capsys.readouterr().err == ""
        _, names, rows = read_table(out)
        _, _, alone_rows = read_table(alone)
        assert rows[0][names.index("error")].startswith(
            "MemoryError: out of memory: Unable to allocate")
        assert rows[0][names.index(reduce)] == "nan"
        assert rows[1] == alone_rows[0]
        text = out.read_text(encoding="utf-8")
        assert '\n-1000000000000000,nan,"MemoryError: out of memory: Unable to allocate' in text
        assert re.search(r"^0,[0-9][0-9.e+-]*,$", text, re.MULTILINE)

    def test_memory_error_without_text_in_its_own_cell(self, tmp_path, monkeypatch):
        def exhausted(scenario, values):
            raise MemoryError

        monkeypatch.setattr("nads.cli.with_axis_values", exhausted)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", write_doc(tmp_path, minimal_doc()), "--axis",
                     "system.gamma_e:0:0.1:2", "--reduce", "maxP", "--out", str(out)]) == 0
        _, names, rows = read_table(out)
        assert [row[names.index("error")] for row in rows] == ["MemoryError: out of memory"] * 2

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


def _as_json_cell(cell: str):
    """A CSV cell as ``--json`` writes it: a number, ``None`` where the
    number is not finite, or the text of a string cell."""
    try:
        value = float(cell)
    except ValueError:
        return cell
    return value if math.isfinite(value) else None


@pytest.mark.parametrize("argv", [
    ["snapshot", "constant-damped"],
    ["evolve", "constant-damped", "--compare"],
    ["sweep", "constant-detuned", "--axis", "system.gamma_e:-0.05:0.3:4",
     "--axis", "field.envelope.omega0:0.5:2:3", "--reduce", "maxP"],
], ids=["snapshot", "evolve-compare", "sweep-maxP"])
def test_json_mirrors_csv_column_by_column(tmp_path, argv):
    command, name, *options = argv
    argv = [command, str(shipped_path(name)), *options]
    csv_out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
    assert main([*argv, "--out", str(csv_out)]) == 0
    assert main([*argv, "--json", "--out", str(json_out)]) == 0
    _, names, rows = read_table(csv_out)
    columns = json.loads(json_out.read_text(encoding="utf-8"))["columns"]
    assert len(set(names)) == len(names)
    assert sorted(columns) == sorted(names)
    for index, name in enumerate(names):
        assert [_as_json_cell(row[index]) for row in rows] == columns[name], name
    if command == "sweep":  # the negative damping rates fail in their own rows
        assert None in columns["maxP"]
        assert columns["error"][0].startswith("ValidationError: damping rates")


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
        assert all(entry["passed"] is True for entry in report)
        by_name = {entry["name"]: entry for entry in report}
        assert by_name["exponential_cancellation"]["worst"] < 1e-9
        assert by_name["exponential_cancellation"]["bound"] == 1e-9

    def test_suite_does_not_import_numpy_random(self):
        # Its import costs a first pass about 5 ms; the seeded checks draw
        # with NumPy arrays instead.
        out = run_python(
            "import contextlib, io, sys\n"
            "from nads import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['validate', '--json'])\n"
            "print(status, 'numpy.random' in sys.modules)\n"
        )
        assert out == "0 False\n"

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


class TestNonFiniteResults:
    """Finite inputs whose results overflow or stall fail by name with exit
    2 and write no table (a RuntimeWarning on the way is an error under
    pytest)."""

    @pytest.mark.parametrize("field, message", [
        ({"envelope": {"kind": "constant", "omega0": 1e200}},
         "nonadiabatic Rabi frequency radicand is not finite: (inf+0j) (grid index 0)"),
        ({"phase": {"beta": 1e12}},
         "excited dressed-state norm <E|E> is not finite: inf (grid index 1)"),
        ({"phase": {"beta": 1e155}},
         "nonadiabatic Rabi frequency radicand is not finite: (inf+2e+155j) (grid index 2)"),
        ({"phase": {"beta": 1e308}},
         "nonadiabatic Rabi frequency radicand is not finite: (1.25+infj) (grid index 0)"),
        ({"phase": {"beta": -1e200}},
         "nonadiabatic Rabi frequency radicand is not finite: (inf-2e+200j) (grid index 1)"),
    ], ids=["omega0-1e200", "beta-1e12", "beta-1e155", "beta-1e308", "beta--1e200"])
    def test_snapshot(self, tmp_path, capsys, field, message):
        doc = minimal_doc()
        doc["field"].update(field)
        out = tmp_path / "table.csv"
        rc = main(["snapshot", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"numerical error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["snapshot"], ["evolve", "--compare"]],
                             ids=["snapshot", "evolve-compare"])
    def test_rabi_derivative_overflow(self, tmp_path, capsys, command):
        # omega_tilde ~ 1e150 is finite, but its one-sided end differences
        # over a step of 1e-301 overflow; the error names the derivative,
        # not the norms it would turn to NaN.
        doc = minimal_doc()
        doc["field"]["envelope"]["omega0"] = 1e150
        doc["grid"] = {"t_start": 0.0, "t_end": 1e-300, "step": 1e-301}
        out = tmp_path / "table.csv"
        rc = main([command[0], write_doc(tmp_path, doc), *command[1:], "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical error: d omega_tilde/dt is not finite: (inf+0j) (grid index 0)\n"
        )
        assert not out.exists()

    def test_evolve_beyond_the_substep_limit(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        start = time.perf_counter()
        rc = main(["evolve", write_doc(tmp_path, fast_coupling_doc()), "--compare",
                   "--out", str(out)])
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical error: a pass at 500000000 substeps per output interval would build "
            "500000000 substeps, beyond the limit of 67108864 per pass\n")
        assert not out.exists()

    def test_sweep_beyond_the_substep_limit_fills_its_cell(self, tmp_path, capsys):
        rc = main(["sweep", write_doc(tmp_path, fast_coupling_doc()),
                   "--axis", "field.envelope.omega0:1:1e12:2", "--reduce", "finalPe", "--json"])
        assert rc == 0
        columns = json.loads(capsys.readouterr().out)["columns"]
        assert columns["error"][0] == "" and 0.0 < columns["finalPe"][0] < 1e-6
        assert columns["error"][1].startswith("StepUnderflow: a pass at 500000000 substeps")
        assert columns["finalPe"][1] is None

    def test_evolve_with_unreachable_tolerance(self, tmp_path, capsys):
        # The pass differences bottom out near 1e-13 and then grow with
        # rounding; doubling on toward the pass limit would take hours.
        doc = minimal_doc()
        doc["integrator"] = {"rtol": 1e-300, "atol": 1e-300}
        out = tmp_path / "table.csv"
        start = time.perf_counter()
        rc = main(["evolve", write_doc(tmp_path, doc), "--out", str(out)])
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: difference ")
        assert "did not shrink" in err and err.count("\n") == 1
        assert not out.exists()


#: Fields a fuzzed scenario may set out of bounds (to 0 or -1).
BREAKABLE = (
    ("system", "mu"), ("system", "gamma_g"), ("system", "gamma_e"),
    ("field", "carrier_omega"), ("field", "envelope", "omega0"),
    ("grid", "step"),
)


@st.composite
def scenario_docs(draw, out_of_bounds=True, extremes=False):
    """Scenario documents across the schema on grids of at most 600 steps;
    with ``out_of_bounds``, one in four has one field out of bounds, and
    with ``extremes`` one in three a finite chirp rate or peak Rabi
    frequency from 1e12 to 1e308."""
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
    if draw(st.booleans()):
        doc["integrator"] = {
            "frame": "rotating",
            "rtol": draw(st.floats(1e-12, 1e-4)),
            "atol": draw(st.floats(1e-14, 1e-6)),
        }
    if extremes and draw(st.integers(0, 2)) == 0:
        node, key = draw(st.sampled_from([(doc["field"]["phase"], "beta"),
                                          (doc["field"]["envelope"], "omega0")]))
        node[key] = draw(st.sampled_from([1e12, 1e100, 1e154, 1e200, 1e308]))
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


@given(doc=scenario_docs(extremes=True))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:grid.step")
def test_evolve_compare_fuzz_exit_codes_and_finite_tables(doc):
    """Any scenario, huge chirps and Rabi frequencies included: no bare
    exception, exit 0, 1 or 2, and a table written with exit 0 holds only
    finite numbers, except the documented NaN of an undefined ratio."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "table.csv"
        rc = main(["evolve", str(path), "--compare", "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc == 0:
            _, names, rows = read_table(out)
            cells = np.array([[float(cell) for cell in row] for row in rows])
            assert cells.shape[1] == len(names) == 8
            assert np.all(np.isfinite(cells[:, :6]))
            assert not np.any(np.isinf(cells[:, 6:]))


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
    ("grid", "step_policy"): "error",
    ("integrator", "frame"): "rotating",
    ("integrator", "rtol"): 1e-10,
    ("integrator", "atol"): 1e-12,
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
        path for path in OPTIONAL_DEFAULTS
        if path[0] in doc and path[-1] in at_path(doc, path[:-1])
    ]
    dropped = data.draw(st.lists(st.sampled_from(present), unique=True))
    for *parents, key in dropped:
        node = doc
        for part in parents:
            node = node.get(part, {})
        node.pop(key, None)
    try:
        scenario = scenario_from_dict(doc)
    except ValidationError as exc:
        # Under the default step_policy "error" such a step fails.
        assert ("grid", "step_policy") in dropped and "tau/400" in str(exc)
        return
    assert scenario_from_dict(json.loads(serialize(scenario))) == scenario
    resolved = scenario.resolved()
    for path in dropped:
        assert at_path(resolved, path) == OPTIONAL_DEFAULTS[path], path


def numeric_paths(doc, prefix=()):
    """Dotted paths of the numeric fields of a resolved document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from numeric_paths(value, (*prefix, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield ".".join((*prefix, key))


def patched_and_parsed(resolved, pairs):
    """Reference sweep point: the values written into a copy of the
    resolved document, which is then parsed as a file is."""
    doc = copy.deepcopy(resolved)
    for path, value in pairs:
        *parents, leaf = path.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[leaf] = float(value)
    return scenario_from_dict(doc)


def outcome(build):
    """What ``build`` returns, or the ConfigError or MemoryError it raises:
    a sweep gives a point either error in its own cell. A drawn
    ``grid.step`` can ask for more grid points than memory holds."""
    try:
        return build()
    except (ConfigError, MemoryError) as exc:
        return exc


@given(doc=scenario_docs(), data=st.data())
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:grid.step")
def test_with_axis_values_matches_the_reparsed_document(doc, data):
    """A sweep point is the scenario the re-parsed document gives, or fails
    with the same type and message, values out of bounds included."""
    try:
        scenario = scenario_from_dict(doc)
    except ConfigError:
        return
    resolved = scenario.resolved()
    paths = data.draw(st.lists(
        st.sampled_from(sorted(numeric_paths(resolved))), min_size=1, max_size=2,
        unique=True,
    ))
    pairs = []
    for path in paths:
        scale = 2.0 * abs(at_path(resolved, path.split("."))) + 1.0
        value = data.draw(
            st.sampled_from([0.0, -1.0, math.nan, math.inf]) | st.floats(-scale, scale)
        )
        pairs.append((path, np.float64(value)))
    expected = outcome(lambda: patched_and_parsed(resolved, pairs))
    got = outcome(lambda: with_axis_values(scenario, pairs))
    if not isinstance(expected, (ConfigError, MemoryError)):
        assert got == expected
        return
    assert type(got) is type(expected)
    if "tau/400" in str(expected) and str(got).startswith("integrator."):
        # The step rule is the scenario's, so it now runs after the
        # integrator section is built; this point breaks both.
        assert any(path.startswith("integrator.") for path in paths)
        return
    assert str(got) == str(expected)


class TestCliPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "snapshot" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        assert [main(["--help"]), main([]), main(["--help"]), main([])] == [0, 1, 0, 1]

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

    def test_lab_frame_exits_one_by_name(self, tmp_path, capfd):
        # The integrator has one frame, the rotating one.
        path = write_doc(tmp_path, {**minimal_doc(), "integrator": {"frame": "lab"}})
        assert main(["evolve", path, "--compare"]) == 1
        sys.stdout.flush()
        assert capfd.readouterr() == (
            "", f"error: {path}: integrator.frame must be one of ['rotating'], got 'lab'\n")

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

    # Grids that a float or an array cannot hold, and an axis count beyond
    # an array's size, fail by name in every command that builds them.
    BAD_GRIDS = {
        "far-from-origin": ({"t_start": 1e9, "t_end": 1000000001, "step": 0.001},
                            "grid.step (0.001) is too fine for floats on [1000000000.0, "
                            "1000000001.0]: the grid points are not uniformly spaced"),
        "step-count-overflow": ({"t_start": 0, "t_end": 1e300, "step": 1e-300},
                                "grid.step (1e-300): the number of steps in [0.0, 1e+300] "
                                "overflows a float"),
        "span-overflow": ({"t_start": -1e308, "t_end": 1e308, "step": 1e307},
                          "grid.step (1e+307): the number of steps in [-1e+308, 1e+308] "
                          "overflows a float"),
        "array-size": ({"t_start": 0, "t_end": 1e30, "step": 1},
                       "grid.step (1.0) divides [0.0, 1e+30] into 1e+30 steps, "
                       "more points than an array can hold"),
    }

    @pytest.mark.parametrize("command", [
        ["snapshot"], ["evolve", "--compare"],
        ["sweep", "--axis", "system.gamma_e:0:0.2:3", "--reduce", "maxP"],
    ], ids=["snapshot", "evolve", "sweep"])
    @pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
    def test_unrepresentable_grid_exits_one_by_name(self, tmp_path, capsys, command, grid):
        doc = minimal_doc()
        doc["grid"], message = self.BAD_GRIDS[grid]
        out = tmp_path / "table.csv"
        path = write_doc(tmp_path, doc)
        rc = main([command[0], path, *command[1:], "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_axis_count_beyond_an_array_exits_one_by_name(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", write_doc(tmp_path, minimal_doc()),
            "--axis", "system.gamma_e:0:1:100000000000000000000",
            "--reduce", "maxP",
            "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: axis system.gamma_e: 100000000000000000000 values are more than "
            "an array can hold\n")
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

    @pytest.mark.parametrize("command", [
        ["snapshot"],
        ["sweep", "--axis", "system.gamma_e:0:0.3:4", "--reduce", "maxP"],
    ], ids=["snapshot", "sweep"])
    def test_step_warning_is_one_cli_line(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, self.coarse_gaussian_doc())
        argv = [command[0], path, *command[1:], "--out", str(tmp_path / "out.csv")]
        # Twice: a second run in the same process warns again.
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().err == self.step_warning_line(path)

    @pytest.mark.parametrize("flags, expected", [
        ([], "line"),
        (["-W", "ignore::UserWarning"], ""),
    ], ids=["default", "ignored"])
    def test_step_warning_obeys_warning_filters(self, tmp_path, flags, expected):
        path = write_doc(tmp_path, self.coarse_gaussian_doc())
        env = child_env()
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "nads.cli", "snapshot", path,
             "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == (self.step_warning_line(path) if expected else "")

    @staticmethod
    def coarse_gaussian_doc() -> dict:
        """A gaussian tau = 1 scenario whose step 0.01 only warns."""
        doc = minimal_doc()
        doc["field"]["envelope"] = {
            "kind": "gaussian", "omega0": 1.0, "tau": 1.0, "t_center": 0.5,
        }
        doc["grid"] = {"t_start": 0.0, "t_end": 1.0, "step": 0.01,
                       "step_policy": "warn"}
        return doc

    @staticmethod
    def step_warning_line(path: str) -> str:
        return (f"warning: {path}: grid.step (0.01) exceeds tau/400 (0.0025) "
                "for the pulsed envelope\n")


#: Minor page faults of the second of two identical CLI runs in one process.
SECOND_RUN_FAULTS = """
import resource, sys
from nads.cli import main
assert main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

#: Minor page faults of the only CLI run of a fresh process.
ONE_SHOT_FAULTS = """
import resource, sys
from nads.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class _NoMallopt:
    def __init__(self, name):
        pass


def _no_c_library(name):
    raise OSError("cannot load the C library")


class TestHeapPolicy:
    """The CLI keeps freed memory in the heap (glibc ``mallopt``), so a
    sweep's points, and a run after another in one process, reuse the pages
    freed before them."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    @pytest.mark.parametrize("name, command", [
        ("sech-chirped", ["evolve", "--compare"]),
        (SLOW_ADIABATIC, ["snapshot"]),
    ], ids=["evolve-compare", "snapshot"])
    def test_second_run_reuses_the_heap(self, tmp_path, name, command):
        # Without the policy these runs take a few hundred faults each.
        out = run_python(SECOND_RUN_FAULTS, command[0], str(shipped_path(name)),
                         *command[1:], "--out", str(tmp_path / "table.csv"))
        assert int(out) <= 50

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_one_shot_sweep_reuses_the_heap(self, tmp_path):
        # The points of one sweep reuse each other's memory: about 1,200
        # faults on a 2-vCPU Linux host with NumPy 2.4, where glibc's
        # default policy takes 15,000-17,000.
        out = run_python(ONE_SHOT_FAULTS, "sweep", str(shipped_path("sech-damped")),
                         "--axis", "system.gamma_e:0:0.3:4",
                         "--axis", "field.phase.beta:0:0.05:5", "--reduce", "finalPe",
                         "--out", str(tmp_path / "table.csv"))
        assert int(out) <= 1500

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux only")
    @pytest.mark.parametrize("library", [_NoMallopt, _no_c_library],
                             ids=["no-mallopt", "no-c-library"])
    def test_without_mallopt_the_table_is_the_same(self, tmp_path, monkeypatch, library):
        argv = ["snapshot", str(shipped_path("sech-damped")), "--out"]
        assert main([*argv, str(tmp_path / "expected.csv")]) == 0
        loaded = []

        def fake_cdll(name):
            loaded.append(name)
            return library(name)

        monkeypatch.setattr("ctypes.CDLL", fake_cdll)
        _keep_heap.cache_clear()
        try:
            assert main([*argv, str(tmp_path / "table.csv")]) == 0
        finally:
            _keep_heap.cache_clear()
        assert loaded == [None]
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


STREAMED_COMMANDS = [["snapshot"], ["evolve", "--compare"]]


class TestStreamedOutput:
    """Tables are written block by block as they are formatted, to stdout or
    to the --out file, and only once every column is computed."""

    @pytest.mark.parametrize("command", STREAMED_COMMANDS, ids=["snapshot", "evolve-compare"])
    @pytest.mark.parametrize("name", list_shipped())
    def test_stdout_matches_out_file(self, tmp_path, capfdbinary, name, command):
        argv = [command[0], str(shipped_path(name)), *command[1:]]
        assert main(argv) == 0
        sys.stdout.flush()
        printed = capfdbinary.readouterr().out
        path = tmp_path / "table.csv"
        assert main([*argv, "--out", str(path)]) == 0
        written = path.read_bytes()
        assert printed == written
        assert written.startswith(b"# ") and written.endswith(b"\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("command", STREAMED_COMMANDS, ids=["snapshot", "evolve-compare"])
    def test_full_device(self, capsys, command):
        rc = main([command[0], str(shipped_path(SLOW_ADIABATIC)), *command[1:],
                   "--out", "/dev/full"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", STREAMED_COMMANDS, ids=["snapshot", "evolve-compare"])
    def test_numerical_failure_writes_nothing(self, tmp_path, capfdbinary, command):
        # The closed-form columns overflow after the evolve command has
        # integrated its amplitudes; no byte of the table may precede that.
        doc = minimal_doc()
        doc["field"]["envelope"]["omega0"] = 1e150
        doc["grid"] = {"t_start": 0.0, "t_end": 1e-300, "step": 1e-301}
        assert main([command[0], write_doc(tmp_path, doc), *command[1:]]) == 2
        sys.stdout.flush()
        out, err = capfdbinary.readouterr()
        assert out == b""
        assert err.startswith(b"numerical error: ")

    def test_reader_closing_stdout_early(self):
        # nads snapshot ... | head -c 100: the table is far larger than a pipe
        # buffer, so the blocks after the first meet a closed pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "nads.cli", "snapshot", str(shipped_path(SLOW_ADIABATIC))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert head.startswith(b"# snapshot table\n")
        assert err == b""
        assert proc.returncode == 0
