"""The invariant suite behind ``nads validate``: every check fails by name
on corrupted input, a NaN in one cell included, and the report keeps the
names, order, bounds and details it has always had."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from nads import cli, validation
from nads.field_model import SechEnvelope
from nads.nads_core import snapshot_series
from nads.scenario import list_shipped, load_shipped

#: The perfbench reference, whose ``validate`` entry pins the check names.
REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "validate.json"
)

#: (name, bound, detail) of every check, in report order.
PINNED = [
    ("trig_identity", 1e-10, "max |COS^2 + SIN^2 - 1| over all shipped grids"),
    ("lambda_consistency", 1e-12, "max |(Lambda_1 - Lambda_2) - omega_tilde|"),
    ("lambda_tilde_consistency", 1e-10, "max |(Lambda'_1 - Lambda'_2) - omega_tilde|"),
    ("static_reality", 1e-12, "max |Im| over 2 static series"),
    ("branch_continuity", 0.0,
     "max |x_{k+1} - x_k| - |x_{k+1} + x_k| (negative = continuous)"),
    ("adiabatic_theorem", 1e-12, "max P over 10 random static scenarios"),
    ("probability_bound", 0.0, "max excursion outside [0, 1] over 10000 fuzzed pairs"),
    ("microreversibility", 0.0,
     "max |P_forward - P_reverse| over 10000 fuzzed pairs, parts uniform on [-1, 1)"),
    ("exponential_cancellation", 1e-9, "max |P_pointwise - P_overlap_route|"),
    ("overlap_conjugation", 1e-12, "max |<G|E> - conj(<E|G>)|"),
    ("norm_positivity", 0.0, "smallest gg or ee over all shipped grids (must stay > 0)"),
    ("rabi_pi_pulse", 1e-8, "final |c_e|^2 error vs closed-form resonant solution"),
    ("norm_conservation", 1e-8, "max |norm - 1| for an undamped run"),
    ("field_free_decay", 1e-8, "max |norm - exp(-gamma_e t)| for an excited start"),
    ("landau_zener", 1e-3, "survival probability error vs exp(-2 pi V^2 / |alpha|)"),
    ("derivative_hygiene", 1e-6,
     "max relative error, analytic vs central difference, 1000 points"),
]


@pytest.fixture(params=["wrong", "nan"])
def spoil(request):
    """``spoil(value, wrong, cell=1)``: a copy of the array or number
    ``value`` with ``cell`` set to ``wrong``, or to NaN (in both parts of a
    complex value) for the "nan" parameter."""

    def spoil(value, wrong, cell=1):
        out = np.array(value)
        if request.param == "nan":
            wrong = complex(math.nan, math.nan) if out.dtype.kind == "c" else math.nan
        out[cell if out.ndim else ()] = wrong
        return out

    return spoil


def _series(name="constant-detuned"):
    """The series of a shipped scenario, by default the static
    constant-detuned, built afresh so a test may spoil it."""
    scenario = load_shipped(name)
    return snapshot_series(scenario.system, scenario.field, scenario.grid())


def _fails_by_name(result, name):
    assert result.passed is False
    assert result.name == name
    assert result.line().startswith(f"FAIL {name}: worst ")


#: name -> (check, series field to spoil, wrong value for one cell).
SERIES_CASES = {
    "trig_identity": (validation.check_trig_identity, "cos_half", 2.0),
    "lambda_consistency": (validation.check_lambda_consistency, "lambda2", 1e3),
    "lambda_tilde_consistency":
        (validation.check_lambda_tilde_consistency, "lambda_t2", 1e3),
    "static_reality": (validation.check_static_reality, "lambda2", 1j),
    "branch_continuity": (validation.check_branch_continuity, "omega_tilde", -5.0),
}

#: name -> (run the check, owner, name of the function it calls there,
#: change(spoil, result) of that function's first result).
CALL_CASES = {
    "adiabatic_theorem": (validation.check_adiabatic_theorem, validation,
                          "mixing_probability", lambda spoil, p: spoil(p, 1.0)),
    "probability_bound": (validation.check_probability_bound, validation,
                          "mixing_probability", lambda spoil, p: spoil(p, 2.0)),
    "microreversibility": (validation.check_microreversibility, validation,
                           "mixing_probability", lambda spoil, p: spoil(p, 1.0)),
    "exponential_cancellation": (lambda: validation.check_cancellation([_series()]),
                                 validation, "mixing_probability",
                                 lambda spoil, p: spoil(p, 1.0)),
    "overlap_conjugation": (lambda: validation.check_conjugation([_series()]),
                            validation, "ge_overlap",
                            lambda spoil, ge: spoil(ge, 1.0)),
    "norm_positivity": (lambda: validation.check_positivity([_series()]),
                        validation, "norms",
                        lambda spoil, gg_ee: (spoil(gg_ee[0], -1.0), gg_ee[1])),
    "rabi_pi_pulse": (validation.check_rabi_pulse, validation, "evolve",
                      lambda spoil, traj: dataclasses.replace(
                          traj, c_e=spoil(traj.c_e, 0.0, cell=-1))),
    "norm_conservation": (validation.check_norm_conservation, validation, "evolve",
                          lambda spoil, traj: dataclasses.replace(
                              traj, norm=spoil(traj.norm, 2.0))),
    "field_free_decay": (validation.check_decay_law, validation, "evolve",
                         lambda spoil, traj: dataclasses.replace(
                             traj, norm=spoil(traj.norm, 2.0))),
    "landau_zener": (validation.check_landau_zener, validation, "lz_survivals",
                     lambda spoil, survivals: spoil(survivals, 2.0)),
    "derivative_hygiene": (validation.check_derivative_hygiene, SechEnvelope,
                           "dlog_deriv", lambda spoil, dlog: spoil(dlog, 10.0)),
}


#: name -> check of every check that measures dressed-state series.
SERIES_CHECKS = {
    **{name: check for name, (check, *_) in SERIES_CASES.items()},
    "exponential_cancellation": validation.check_cancellation,
    "overlap_conjugation": validation.check_conjugation,
    "norm_positivity": validation.check_positivity,
}

#: name -> worst of each series check on no series: its start value.
EMPTY_WORST = {
    "trig_identity": 0.0,
    "lambda_consistency": 0.0,
    "lambda_tilde_consistency": 0.0,
    "static_reality": 0.0,
    "branch_continuity": -math.inf,
    "exponential_cancellation": 0.0,
    "overlap_conjugation": 0.0,
    "norm_positivity": math.inf,
}


@pytest.mark.parametrize("scenarios", [(), ("constant-detuned",),
                                       ("gaussian-chirped-damped",)],
                         ids=["none", "static", "pulsed"])
@pytest.mark.parametrize("name", SERIES_CHECKS)
def test_series_check_on_no_series_or_one(name, scenarios):
    result = SERIES_CHECKS[name]([_series(scenario) for scenario in scenarios])
    static = "constant-detuned" in scenarios
    if not scenarios or (name == "static_reality" and not static):
        assert result.worst == EMPTY_WORST[name]
    else:
        assert math.isfinite(result.worst)
    if name == "static_reality":
        # No static series is a failure, not a vacuous pass.
        assert result.passed is static
        assert result.detail == f"max |Im| over {int(static)} static series"
    else:
        assert result.passed is True
        assert result.detail == {pin: detail for pin, _, detail in PINNED}[name]


def test_streamed_report_matches_the_checks_on_all_shipped_series():
    # Every shipped series held at once, each check measuring the list.
    series_list = [_series(name) for name in list_shipped()]
    report = {result.name: result for result in validation.run_all()}
    for name, check in SERIES_CHECKS.items():
        expected = check(series_list)
        assert report[name].as_dict() == expected.as_dict()
        assert report[name].worst.hex() == expected.worst.hex()


def test_run_all_holds_one_shipped_series_at_a_time(monkeypatch):
    built = []
    alive_at_build = []

    def recording_series(*args, **kwargs):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        series = snapshot_series(*args, **kwargs)
        built.append(weakref.ref(series))
        return series

    monkeypatch.setattr(validation, "snapshot_series", recording_series)
    assert all(result.passed for result in validation.run_all())
    assert alive_at_build == [0] * len(list_shipped())


@pytest.mark.parametrize("name", SERIES_CASES)
def test_series_check_fails_by_name(name, spoil):
    check, field, wrong = SERIES_CASES[name]
    series = _series()
    setattr(series, field, spoil(getattr(series, field), wrong))
    _fails_by_name(check([series]), name)


@pytest.mark.parametrize("name", CALL_CASES)
def test_check_fails_by_name_when_a_call_goes_wrong(name, spoil, monkeypatch):
    run, owner, attr, change = CALL_CASES[name]
    original = getattr(owner, attr)
    calls = []

    def first_call_spoiled(*args, **kwargs):
        """The first result changed, so two calls compared also differ."""
        calls.append(None)
        result = original(*args, **kwargs)
        return change(spoil, result) if len(calls) == 1 else result

    monkeypatch.setattr(owner, attr, first_call_spoiled)
    _fails_by_name(run(), name)


def test_report_pins_names_bounds_and_details():
    reference = json.loads(REFERENCE.read_text())["commands"]["validate\x1f--json"]
    report = [(r.name, r.passed, r.bound, r.detail) for r in validation.run_all()]
    assert [name for name, *_ in report] == reference["names"]
    assert report == [(name, True, bound, detail) for name, bound, detail in PINNED]
    assert sorted([*SERIES_CASES, *CALL_CASES]) == sorted(reference["names"])


def _reject(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("worst", [math.nan, math.inf, -math.inf])
def test_json_report_writes_null_for_a_non_finite_worst(worst, monkeypatch, capsys):
    failed = validation.CheckResult("trig_identity", False, worst, 1e-10, "detail")
    monkeypatch.setattr(cli, "run_all", lambda: [failed])
    assert cli.main(["validate", "--json"]) == 1
    report = json.loads(capsys.readouterr().out, parse_constant=_reject)
    assert report == [{"name": "trig_identity", "passed": False, "worst": None,
                       "bound": 1e-10, "detail": "detail"}]


_MASK = 2**64 - 1


def _splitmix64_reference(seed, counter):
    """Output ``counter`` (from 1) of SplitMix64 from state ``seed``, in
    Python integers masked to 64 bits."""
    z = (seed + counter * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _spy(monkeypatch, owner, attr):
    """The positional arguments of every later call to ``owner.attr``."""
    original = getattr(owner, attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    return calls


def test_splitmix64_known_outputs():
    # The first outputs of the reference C generator seeded with 1234567.
    assert validation._splitmix64(1234567, 5).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


@pytest.mark.parametrize("seed", [0, 1, 2026, 2029, _MASK])
def test_uniform_bits_match_a_pure_python_splitmix64(seed):
    count = 257
    expected = [_splitmix64_reference(seed, k) for k in range(1, count + 1)]
    assert validation._splitmix64(seed, count).tolist() == expected
    draws = validation._uniform(seed, 0.0, 1.0, (count,))
    assert (draws * 2.0**53).astype(np.uint64).tolist() == [x >> 11 for x in expected]


@pytest.mark.parametrize("low, high, shape", [
    (-8.0, 8.0, (1000,)),
    (-1.0, 1.0, (50, 4)),
    (np.array([0.1, 0.2, 0.0]), np.array([4.0, 5.0, 1.0]), (200, 3)),
])
def test_uniform_lies_in_range_with_the_asked_shape(low, high, shape):
    draws = validation._uniform(7, low, high, shape)
    assert draws.shape == shape
    assert draws.dtype == np.float64
    assert np.all((low <= draws) & (draws < high))


def test_the_seeded_checks_draw_disjoint_streams(monkeypatch):
    streams = _spy(monkeypatch, validation, "_uniform")
    for check in (validation.check_adiabatic_theorem, validation.check_probability_bound,
                  validation.check_microreversibility,
                  validation.check_derivative_hygiene):
        assert check().passed
    assert [seed for seed, *_ in streams] == [2026, 2027, 2028, 2029]
    outputs = np.concatenate([validation._splitmix64(seed, math.prod(shape))
                              for seed, _, _, shape in streams])
    assert outputs.size == 30 + 40_000 + 40_000 + 1000
    assert np.unique(outputs).size == outputs.size


def test_probability_bound_fuzzes_six_decades(monkeypatch):
    calls = _spy(monkeypatch, validation, "mixing_probability")
    assert validation.check_probability_bound().passed
    [(s, c)] = calls
    for part in (s, c):
        size = np.abs(part)
        assert part.shape == (10_000,)
        assert np.all((1e-3 <= size) & (size <= 1e3))
        assert size.min() < 1.01e-3 and size.max() > 0.99e3


def test_microreversibility_fuzzes_the_unit_square(monkeypatch):
    calls = _spy(monkeypatch, validation, "mixing_probability")
    assert validation.check_microreversibility().passed
    (s, c), reverse = calls
    assert reverse[0] is c and reverse[1] is s
    for part in (s.real, s.imag, c.real, c.imag):
        assert part.shape == (10_000,)
        assert np.all((-1.0 <= part) & (part < 1.0))
        assert part.min() < -0.99 and part.max() > 0.99


def test_derivative_hygiene_evaluates_a_thousand_times(monkeypatch):
    calls = _spy(monkeypatch, SechEnvelope, "dlog_deriv")
    assert validation.check_derivative_hygiene().passed
    [(_, times)] = calls
    assert times.shape == (1000,)
    assert np.all((-8.0 <= times) & (times < 8.0))
    assert times.min() < -7.9 and times.max() > 7.9
