"""A run's choices are declared once: ``field_model`` holds the frame and
initial-state types and the one check of a choice, which the scenario
schema, the command line and the library entry points share. The scenario
parser tells a choice field by its string default."""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest

import nads
from nads import tdse
from nads.cli import main
from nads.errors import ValidationError
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import snapshot_series
from nads.overlap_transitions import amplitude_ratios
from nads.scenario import Grid, Integrator, Scenario, shipped_path

from test_scenario_cli import minimal_doc, run_python, write_doc

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nads"


def parsed_modules() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def relative_imports(tree: ast.Module) -> set[str]:
    """The package modules ``tree`` imports with ``from .module import ...``."""
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def declarations(tree: ast.Module) -> set[str]:
    """The names ``tree`` defines at module level by ``def`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", ["scenario", "tdse"])
def test_lower_layers_import_no_sibling_above_them(module):
    # The scenario schema and the integrator reach the choice types without
    # loading each other or the overlap layer.
    assert relative_imports(parsed_modules()[module]) == {"errors", "field_model", "nads_core"}


def test_each_choice_and_its_check_is_declared_once():
    owners = {name: [module for module, tree in parsed_modules().items()
                     if name in declarations(tree)]
              for name in ("Frame", "InitialState", "_require_choice", "_suggest",
                           "_require_one_of")}
    assert owners == {"Frame": ["field_model"], "InitialState": ["field_model"],
                      "_require_choice": ["field_model"], "_suggest": ["field_model"],
                      "_require_one_of": []}


def test_the_entry_points_share_the_run_defaults():
    # The library's entry points default to the run a scenario file leaves
    # unsaid: the tolerances of Integrator() and Scenario's initial state.
    # They take no frame: the integrator runs in Integrator()'s one frame.
    integrator = Integrator()
    (init,) = [f.default for f in fields(Scenario) if f.name == "initial_state"]
    expected = {"init": init, "rtol": integrator.rtol, "atol": integrator.atol}
    assert expected == {"init": "ground", "rtol": 1e-10, "atol": 1e-12}
    assert integrator.frame == "rotating"
    for entry in (nads.evolve, tdse.final_states):
        parameters = inspect.signature(entry).parameters
        assert "frame" not in parameters
        assert {name: parameters[name].default for name in expected} == expected


SCHEMA = (SystemParams, FieldModel, ConstantEnvelope, GaussianEnvelope, SechEnvelope,
          Chirp, Grid, Integrator, Scenario)


def test_a_field_defaults_to_a_string_exactly_when_it_is_a_choice():
    # The scenario parser reads a field as a JSON string when its default is
    # one, so a string default must mean a Literal field, and the reverse.
    choices = {}
    for cls in SCHEMA:
        hints = get_type_hints(cls)
        for f in fields(cls):
            label = f"{cls.__name__}.{f.name}"
            is_choice = get_origin(hints[f.name]) is Literal
            assert isinstance(f.default, str) == is_choice, label
            if is_choice:
                assert f.default in get_args(hints[f.name]), label
                choices[label] = f.default
    assert choices == {"Grid.step_policy": "error", "Integrator.frame": "rotating",
                       "Scenario.initial_state": "ground"}


def test_only_the_shared_check_words_a_choice():
    # Every other module calls _require_choice rather than its own message.
    wording = {module for module, tree in parsed_modules().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and "must be one of" in str(node.value)}
    assert wording == {"field_model"}


def rejected(call, label: str, value: str, allowed: list[str]) -> None:
    """``call()`` raises the shared choice check's ValidationError, which is
    also a ValueError and names the right spelling."""
    message = (f"{label} must be one of {allowed}, got '{value}'; "
               f"did you mean '{value.lower()}'?")
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$") as info:
        call()
    assert isinstance(info.value, ValueError)


class TestMisspelledChoices:
    params = SystemParams(omega_g=0.0, omega_e=5.0)
    field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(0.2))
    grid = np.linspace(0.0, 1.0, 5)
    states = ["ground", "excited"]

    def test_integrator(self):
        rejected(lambda: Integrator(frame="Rotating"), "Integrator.frame", "Rotating",
                 ["rotating"])

    def test_evolve(self):
        rejected(lambda: tdse.evolve(self.params, self.field, self.grid, init="Ground"),
                 "init", "Ground", self.states)

    def test_final_states(self):
        runs = [(self.params, self.field)]
        rejected(lambda: tdse.final_states(runs, self.grid, init="Ground"),
                 "init", "Ground", self.states)

    def test_amplitude_ratios(self):
        series = snapshot_series(self.params, self.field, self.grid)
        rejected(lambda: amplitude_ratios(series, "Ground"), "init", "Ground", self.states)


SECH = str(shipped_path("sech-damped"))
SWEEP = ["sweep", SECH, "--axis", "system.gamma_e:0:0.3:4"]


@pytest.mark.parametrize("argv, message", [
    ([*SWEEP, "--reduce", "finalpe"],
     "--reduce must be one of ['finalNorm', 'finalPe', 'finalPg', 'maxP'], got 'finalpe'; "
     "did you mean 'finalPe'?"),
    (["sweep", SECH, "--axis", "system.gamma_e:0:0.3:4:lin", "--reduce", "maxP"],
     "axis 'system.gamma_e:0:0.3:4:lin': trailing tag must be one of ['log', 'linear'], "
     "got 'lin'; did you mean 'linear'?"),
], ids=["reduce", "axis-tag"])
def test_command_line_choices(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scenario_outputs(tmp_path, capsys):
    path = write_doc(tmp_path, {**minimal_doc(), "outputs": ["snap"]})
    assert main(["snapshot", path, "--out", str(tmp_path / "table.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: scenario.outputs must be one of ['snapshot', 'evolve'], "
        "got 'snap'; did you mean 'snapshot'?\n")


def test_start_up_leaves_the_suggestion_out():
    # difflib is loaded by the first message that suggests a spelling.
    out = run_python(
        "import contextlib, sys\n"
        "import nads.cli\n"
        "print('difflib' in sys.modules)\n"
        "with contextlib.redirect_stderr(sys.stdout):\n"
        "    print(nads.cli.main(sys.argv[1:]))\n",
        *SWEEP, "--reduce", "finalpe",
    )
    assert out.startswith("False\nerror: --reduce must be one of ")
    assert out.endswith("; did you mean 'finalPe'?\n1\n")
