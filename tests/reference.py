"""References the tests compare the package against, outside the package:
the scalar right-hand side of the amplitude equations, one RK4 pass at a
fixed substep count, the expanded arrangement of the dressed-state overlaps
and the Rosen-Zener excitation probability."""

from __future__ import annotations

import math

import numpy as np

from nads import tdse
from nads.field_model import DEFAULT_INIT
from nads.nads_core import SnapshotSeries, detuning, uniform_grid
from nads.overlap_transitions import _bracket_im, _cumtrapz, _weight


def rhs(t, c, params, field, frame="lab"):
    """Right-hand side of the amplitude equations at one instant, in scalar
    arithmetic.

    Lab frame (full field, coupling -Omega(t) cos(wt + phi)):
        dc_g/dt = -i(omega_g - i gamma_g/2) c_g - i Omega(t) cos(wt + phi) c_e
        dc_e/dt = -i(omega_e - i gamma_e/2) c_e - i Omega(t) cos(wt + phi) c_g
    Rotating frame (carrier transformation, rotating-wave approximation):
        db_g/dt = -(gamma_g/2) b_g + i (Omega/2) e^{+i phi} b_e
        db_e/dt = (-i delta - gamma_e/2) b_e + i (Omega/2) e^{-i phi} b_g

    The rotating frame is the system the step matrices of :mod:`nads.tdse`
    integrate; the lab frame, with the counter-rotating term the package
    drops, is the tests' own oracle for that approximation.
    """
    c_g, c_e = c
    omega = params.mu * float(field.envelope.omega(t))
    phi = float(field.phi(t))
    if frame == "lab":
        coupling = -omega * math.cos(field.carrier_omega * t + phi)
        d_g = -1j * (params.omega_g - 0.5j * params.gamma_g) * c_g + 1j * coupling * c_e
        d_e = -1j * (params.omega_e - 0.5j * params.gamma_e) * c_e + 1j * coupling * c_g
        return d_g, d_e
    delta = detuning(params, field)
    w = 0.5 * omega * complex(math.cos(phi), math.sin(phi))
    d_g = -0.5 * params.gamma_g * c_g + 1j * w * c_e
    d_e = (-1j * delta - 0.5 * params.gamma_e) * c_e + 1j * w.conjugate() * c_g
    return d_g, d_e


def fixed_pass(params, field, grid, init=DEFAULT_INIT, n_sub=1):
    """One RK4 pass of :mod:`nads.tdse` with exactly ``n_sub`` substeps per
    output interval, built as the controller builds it, with no limit on
    its substeps: its interval propagators expanded into the states on the
    grid, as a Trajectory with no controller attempts."""
    grid, _ = uniform_grid(grid)
    start = tdse._start(init)
    intervals = tdse._build_pass(((params, field),), grid, n_sub)
    return tdse._trajectory(grid, tdse._expand(intervals[:, :, 0], start), n_sub, ())


def expanded_overlaps(series: SnapshotSeries) -> tuple[np.ndarray, ...]:
    """(gg, ee, eg) in the expanded arrangement: exponent
    -(gamma_g + gamma_e)/2 (t - t0) + int (log_deriv -+ Im omega_tilde) for
    gg and ee, and int (log_deriv + i Re omega_tilde) for eg."""
    grid = series.grid
    weight = _weight(series.sin_half, series.cos_half)
    damping = -series.params.gamma_sum_half * (grid - grid[0])
    int_log_m = _cumtrapz(series.log_deriv - series.omega_tilde.imag, grid)
    int_log_p = _cumtrapz(series.log_deriv + series.omega_tilde.imag, grid)
    int_exp_eg = _cumtrapz(series.log_deriv + 1j * series.omega_tilde.real, grid)
    bracket = _bracket_im(series.sin_half, series.cos_half)
    return (
        weight * np.exp(damping + int_log_m),
        weight * np.exp(damping + int_log_p),
        1j * bracket * np.exp(damping + int_exp_eg),
    )


def rz_oracle(omega0: float, tau: float, delta: float) -> float:
    """Rosen-Zener excitation probability after an undamped, unchirped sech
    pulse omega0 sech(t / tau) at detuning delta, starting in the ground
    state: sin^2(pi omega0 tau / 2) sech^2(pi delta tau / 2) (Rosen and
    Zener, Phys. Rev. 40:502, 1932)."""
    if omega0 <= 0 or tau <= 0:
        raise ValueError("omega0 and tau must be positive")
    area = math.pi * omega0 * tau
    return (math.sin(0.5 * area) / math.cosh(0.5 * math.pi * delta * tau)) ** 2
