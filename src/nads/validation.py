"""Named runtime checks of the library's physical and numerical invariants.

Each check returns a CheckResult with the measured worst-case deviation and
its bound; ``run_all`` executes the full suite against the shipped
scenarios plus synthetic draws. The checks accept their inputs as
arguments so tests can aim them at deliberately corrupted data and watch
them fail by name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from .nads_core import SnapshotSeries, snapshot_series
from .overlap_transitions import (
    eg_overlap,
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from .scenario import list_shipped, load_shipped
from .tdse import evolve, lz_oracle, lz_survival, rabi_oracle

__all__ = [
    "CheckResult",
    "run_all",
    "check_trig_identity",
    "check_lambda_consistency",
    "check_lambda_tilde_consistency",
    "check_static_reality",
    "check_branch_continuity",
    "check_adiabatic_theorem",
    "check_probability_bound",
    "check_microreversibility",
    "check_cancellation",
    "check_conjugation",
    "check_positivity",
    "check_rabi_pulse",
    "check_norm_conservation",
    "check_decay_law",
    "check_landau_zener",
    "check_derivative_hygiene",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    worst: float
    bound: float
    detail: str

    def as_dict(self) -> dict:
        # Coerce to plain Python types: numpy scalars are not JSON
        # serializable and comparisons against them produce numpy bools.
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst": float(self.worst),
            "bound": float(self.bound),
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst {self.worst:.3e} "
            f"(bound {self.bound:.3e}) - {self.detail}"
        )


def check_trig_identity(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """cos_half^2 + sin_half^2 = 1 at every grid point."""
    worst = 0.0
    for series in series_list:
        dev = np.max(np.abs(series.cos_half**2 + series.sin_half**2 - 1.0))
        worst = max(worst, float(dev))
    return CheckResult(
        name="trig_identity", passed=worst < 1e-10, worst=worst, bound=1e-10,
        detail="max |COS^2 + SIN^2 - 1| over all shipped grids",
    )


def check_lambda_consistency(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """(Lambda_1 - Lambda_2) reproduces the nonadiabatic Rabi frequency."""
    worst = 0.0
    for series in series_list:
        dev = np.max(np.abs((series.lambda1 - series.lambda2) - series.omega_tilde))
        worst = max(worst, float(dev))
    return CheckResult(
        name="lambda_consistency", passed=worst < 1e-12, worst=worst, bound=1e-12,
        detail="max |(Lambda_1 - Lambda_2) - omega_tilde|",
    )


def check_lambda_tilde_consistency(
    series_list: Sequence[SnapshotSeries],
) -> CheckResult:
    """The derivative shifts cancel in Lambda'_1 - Lambda'_2."""
    worst = 0.0
    for series in series_list:
        dev = np.max(np.abs((series.lambda_t1 - series.lambda_t2) - series.omega_tilde))
        worst = max(worst, float(dev))
    return CheckResult(
        name="lambda_tilde_consistency", passed=worst < 1e-10, worst=worst,
        bound=1e-10,
        detail="max |(Lambda'_1 - Lambda'_2) - omega_tilde|",
    )


def check_static_reality(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Undamped unchirped constant-envelope series are real throughout."""
    worst = 0.0
    counted = 0
    for series in series_list:
        static = (
            series.params.gamma_g == 0.0
            and series.params.gamma_e == 0.0
            and series.field.phase.beta == 0.0
            and series.field.envelope.kind == "constant"
        )
        if not static:
            continue
        counted += 1
        for arr in (series.delta_tilde, series.omega_tilde, series.lambda1,
                    series.lambda2, series.lambda_t1, series.lambda_t2,
                    series.cos_half, series.sin_half):
            worst = max(worst, float(np.max(np.abs(arr.imag))))
    detail = f"max |Im| over {counted} static series"
    return CheckResult(
        name="static_reality", passed=counted > 0 and worst < 1e-12,
        worst=worst, bound=1e-12, detail=detail,
    )


def check_branch_continuity(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Consecutive samples stay on the nearer square-root branch."""
    worst = -math.inf
    for series in series_list:
        for arr in (series.omega_tilde, series.cos_half, series.sin_half):
            margin = np.abs(np.diff(arr)) - np.abs(arr[1:] + arr[:-1])
            worst = max(worst, float(np.max(margin)))
    return CheckResult(
        name="branch_continuity", passed=worst < 0.0, worst=worst, bound=0.0,
        detail="max |x_{k+1} - x_k| - |x_{k+1} + x_k| (negative = continuous)",
    )


def _uniform(rng: random.Random, low: float, high: float, shape) -> np.ndarray:
    """Draws uniform on [low, high) in an array of ``shape``, 53 random bits
    each. The seeded checks draw from stdlib ``random``, which NumPy has
    already imported: importing ``numpy.random`` takes about 5 ms, a fifth
    of a warm ``nads validate``."""
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), "<u8") >> 11
    return low + (high - low) * (bits * 2.0**-53).reshape(shape)


def check_adiabatic_theorem(seed: int = 2026, draws: int = 10) -> CheckResult:
    """P vanishes for random static undamped unchirped detuned systems."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(draws):
        omega0 = rng.uniform(0.1, 4.0)
        delta = rng.uniform(0.2, 5.0) * (1 if rng.random() < 0.5 else -1)
        omega_e = 6.0
        carrier = omega_e - delta
        params = SystemParams(omega_g=0.0, omega_e=omega_e)
        field = FieldModel(carrier_omega=carrier, envelope=ConstantEnvelope(omega0))
        series = snapshot_series(params, field, np.linspace(0.0, 5.0, 11))
        p = mixing_probability(series.sin_half, series.cos_half)
        worst = max(worst, float(np.max(p)))
    return CheckResult(
        name="adiabatic_theorem", passed=worst < 1e-12, worst=worst, bound=1e-12,
        detail=f"max P over {draws} random static scenarios",
    )


def check_probability_bound(seed: int = 2027, draws: int = 10_000) -> CheckResult:
    """0 <= P <= 1 for fuzzed complex mixing pairs across 6 decades."""
    rng = random.Random(seed)
    mag = 10.0 ** _uniform(rng, -3.0, 3.0, (draws, 2))
    ang = _uniform(rng, 0.0, 2.0 * math.pi, (draws, 2))
    pairs = mag * (np.cos(ang) + 1j * np.sin(ang))
    p = mixing_probability(pairs[:, 0], pairs[:, 1])
    worst = max(0.0, float(np.max(np.maximum(-p, p - 1.0))))
    return CheckResult(
        name="probability_bound", passed=worst <= 0.0, worst=worst, bound=0.0,
        detail=f"max excursion outside [0, 1] over {draws} fuzzed pairs",
    )


def check_microreversibility(seed: int = 2028, draws: int = 10_000) -> CheckResult:
    """Forward and reverse transition probabilities agree exactly."""
    values = _uniform(random.Random(seed), -1.0, 1.0, (draws, 4))
    s = values[:, 0] + 1j * values[:, 1]
    c = values[:, 2] + 1j * values[:, 3]
    forward = mixing_probability(s, c)
    reverse = mixing_probability(c, s)
    worst = max(0.0, float(np.max(np.abs(forward - reverse))))
    return CheckResult(
        name="microreversibility", passed=worst == 0.0, worst=worst, bound=0.0,
        detail=f"max |P_forward - P_reverse| over {draws} fuzzed pairs, "
        "parts uniform on [-1, 1)",
    )


def check_cancellation(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Pointwise Eq.-of-motion-free P equals the overlap-quotient P."""
    worst = 0.0
    for series in series_list:
        direct = mixing_probability(series.sin_half, series.cos_half)
        dev = np.max(np.abs(direct - p_via_overlaps(series)))
        worst = max(worst, float(dev))
    return CheckResult(
        name="exponential_cancellation", passed=worst < 1e-9, worst=worst,
        bound=1e-9, detail="max |P_pointwise - P_overlap_route|",
    )


def check_conjugation(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """The mirrored ground-excited overlap is the conjugate of eg."""
    worst = 0.0
    for series in series_list:
        dev = np.max(np.abs(ge_overlap(series) - np.conj(eg_overlap(series))))
        worst = max(worst, float(dev))
    return CheckResult(
        name="overlap_conjugation", passed=worst < 1e-12, worst=worst, bound=1e-12,
        detail="max |<G|E> - conj(<E|G>)|",
    )


def check_positivity(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Both dressed-state norms squared stay strictly positive."""
    smallest = math.inf
    for series in series_list:
        gg, ee = norms(series)
        smallest = min(smallest, float(np.min(gg)), float(np.min(ee)))
    return CheckResult(
        name="norm_positivity", passed=smallest > 0.0, worst=smallest, bound=0.0,
        detail="smallest gg or ee over all shipped grids (must stay > 0)",
    )


def check_rabi_pulse() -> CheckResult:
    """Resonant rotating-frame pi pulse inverts the population."""
    omega0 = 0.2
    params = SystemParams(omega_g=0.0, omega_e=5.0)
    field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(omega0))
    t_end = math.pi / omega0
    grid = np.linspace(0.0, t_end, 201)
    traj = evolve(params, field, grid, init="ground", frame="rotating")
    _, p_e = rabi_oracle(omega0, t_end)
    worst = abs(abs(traj.c_e[-1]) ** 2 - p_e)
    return CheckResult(
        name="rabi_pi_pulse", passed=worst < 1e-8, worst=worst, bound=1e-8,
        detail="final |c_e|^2 error vs closed-form resonant solution",
    )


def check_norm_conservation() -> CheckResult:
    """Undamped evolution keeps |c_g|^2 + |c_e|^2 at one."""
    params = SystemParams(omega_g=0.0, omega_e=5.0)
    field = FieldModel(carrier_omega=4.6, envelope=ConstantEnvelope(0.3))
    grid = np.linspace(0.0, 40.0, 401)
    traj = evolve(params, field, grid, init="ground", frame="rotating")
    worst = float(np.max(np.abs(traj.norm - 1.0)))
    return CheckResult(
        name="norm_conservation", passed=worst < 1e-8, worst=worst, bound=1e-8,
        detail="max |norm - 1| for an undamped run",
    )


def check_decay_law() -> CheckResult:
    """With negligible field, the excited norm decays at exp(-gamma_e t)."""
    gamma_e = 0.5
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=gamma_e)
    field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(1e-20))
    grid = np.linspace(0.0, 2.0, 101)
    traj = evolve(params, field, grid, init="excited", frame="rotating")
    expected = np.exp(-gamma_e * (grid - grid[0]))
    worst = float(np.max(np.abs(traj.norm - expected)))
    return CheckResult(
        name="field_free_decay", passed=worst < 1e-8, worst=worst, bound=1e-8,
        detail="max |norm - exp(-gamma_e t)| for an excited start",
    )


def check_landau_zener() -> CheckResult:
    """Linear detuning sweeps reproduce the asymptotic survival formula."""
    sweep_rate = 1.0
    worst = 0.0
    for coupling in (0.1, 0.25, 0.5):
        survival = lz_survival(coupling, sweep_rate)
        worst = max(worst, abs(survival - lz_oracle(coupling, sweep_rate)))
    return CheckResult(
        name="landau_zener", passed=worst < 1e-3, worst=worst, bound=1e-3,
        detail="survival probability error vs exp(-2 pi V^2 / |alpha|)",
    )


def check_derivative_hygiene(seed: int = 2029, draws: int = 1000) -> CheckResult:
    """Analytic envelope and phase derivatives match finite differences."""
    rng = random.Random(seed)
    h = 1e-5
    worst = 0.0
    envelopes = [
        GaussianEnvelope(omega0=2.0, t_center=0.5, tau=7.0),
        SechEnvelope(omega0=1.3, t_center=-1.0, tau=4.0),
        ConstantEnvelope(omega0=0.7),
    ]
    field = FieldModel(
        carrier_omega=3.0,
        envelope=envelopes[0],
        phase=Chirp(phi0=0.3, beta=0.02, t_center=1.0),
    )
    times = _uniform(rng, -8.0, 8.0, (draws,))
    for env in envelopes:
        omega = env.omega(times)
        d_omega_fd = (env.omega(times + h) - env.omega(times - h)) / (2 * h)
        d_omega = omega * env.log_deriv(times)
        scale = np.maximum(np.abs(d_omega), np.abs(omega))
        worst = max(worst, float(np.max(np.abs(d_omega - d_omega_fd) / scale)))
        dlog_fd = (env.log_deriv(times + h) - env.log_deriv(times - h)) / (2 * h)
        dlog = env.dlog_deriv(times)
        scale = np.maximum(np.abs(dlog), 1.0)
        worst = max(worst, float(np.max(np.abs(dlog - dlog_fd) / scale)))
    dphi_fd = (field.phi(times + h) - field.phi(times - h)) / (2 * h)
    scale = np.maximum(np.abs(field.dphi(times)), 1.0)
    worst = max(worst, float(np.max(np.abs(field.dphi(times) - dphi_fd) / scale)))
    d2phi_fd = (field.dphi(times + h) - field.dphi(times - h)) / (2 * h)
    scale = np.maximum(np.abs(field.d2phi(times)), 1.0)
    worst = max(worst, float(np.max(np.abs(field.d2phi(times) - d2phi_fd) / scale)))
    return CheckResult(
        name="derivative_hygiene", passed=worst < 1e-6, worst=worst, bound=1e-6,
        detail=f"max relative error, analytic vs central difference, {draws} points",
    )


def _shipped_series() -> list[SnapshotSeries]:
    out = []
    for name in list_shipped():
        scenario = load_shipped(name)
        out.append(
            snapshot_series(scenario.system, scenario.field, scenario.grid())
        )
    return out


def run_all() -> list[CheckResult]:
    """Run every invariant check against shipped scenarios and synthetic
    draws; deterministic across runs."""
    series_list = _shipped_series()
    return [
        check_trig_identity(series_list),
        check_lambda_consistency(series_list),
        check_lambda_tilde_consistency(series_list),
        check_static_reality(series_list),
        check_branch_continuity(series_list),
        check_adiabatic_theorem(),
        check_probability_bound(),
        check_microreversibility(),
        check_cancellation(series_list),
        check_conjugation(series_list),
        check_positivity(series_list),
        check_rabi_pulse(),
        check_norm_conservation(),
        check_decay_law(),
        check_landau_zener(),
        check_derivative_hygiene(),
    ]
