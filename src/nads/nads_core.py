"""Instantaneous nonadiabatic dressed-state quantities along a time grid.

All quantities are closed-form functions of the envelope, phase and damping
at one instant, except the time derivative of the nonadiabatic Rabi
frequency, which is taken by second-order finite differences along the grid
after the branch-continuous square root has been evaluated (the analytic
chain rule would need third derivatives of envelope and phase).

Complex square roots are tracked for continuity: the principal branch is
used at the first grid point (times the detuning sign where the definition
says so) and thereafter the root closer to the previous sample is kept.
Every selection is recorded so a jump can be audited.

Independent runs on one grid are evaluated as one batch of (B, n) arrays
(:func:`snapshot_batch`; :func:`snapshot_series` is a batch of one). Every
operation is elementwise along the batch axis, so each run's series, and
the failure it raises alone, come out bitwise the same in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegenerateRabi,
    EnvelopeUnderflow,
    NonFiniteValue,
    NumericalError,
)
from .field_model import (
    FieldModel,
    SystemParams,
    OMEGA_FLOOR,
)

__all__ = [
    "SnapshotSeries",
    "detuning",
    "require_finite",
    "snapshot_series",
]

#: |Omega-tilde| below which the Lambda-tilde division is refused.
RABI_DEGENERACY_FLOOR = 1e-12

#: Relative tolerance inside which the two candidate roots count as
#: equidistant from the previous sample (branch ambiguity).
BRANCH_AMBIGUITY_RTOL = 1e-14


@dataclass(eq=False)
class SnapshotSeries:
    """Branch-continuous dressed-state quantities on a uniform time grid.

    Arrays are read-only once constructed; treat instances as immutable.
    ``branch_log`` maps each tracked square root to an int8 array of +1
    (principal branch kept) / -1 (negated principal chosen for continuity).
    Overlaps, transition probabilities and amplitude ratios are formed from
    a series by :mod:`nads.overlap_transitions`.
    """

    params: SystemParams
    field: FieldModel
    grid: np.ndarray
    sign_delta: int
    delta: float
    omega: np.ndarray
    log_deriv: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    delta_tilde: np.ndarray
    d_delta_tilde: np.ndarray
    omega_tilde: np.ndarray
    d_omega_tilde: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda_t1: np.ndarray
    lambda_t2: np.ndarray
    cos_half: np.ndarray
    sin_half: np.ndarray
    omega_G: np.ndarray
    omega_E: np.ndarray
    branch_log: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def detuning(params: SystemParams, field: FieldModel) -> float:
    """Static detuning: omega_e - omega_g - carrier."""
    return params.omega_e - params.omega_g - field.carrier_omega


def require_finite(quantity: str, values: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` naming ``quantity`` at the first grid
    index where ``values`` is inf or NaN."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteValue(f"{quantity} is not finite: {values[k]}", grid_index=k)


def _require_one_of(name: str, value, choices) -> None:
    """Raise ValueError unless ``value`` is a string of the ``Literal``
    type ``choices``."""
    allowed = get_args(choices)
    if value not in allowed:
        raise ValueError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")


def _central_diff(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative along the last axis on a uniform grid,
    one-sided at the ends.

    A two-point grid degrades to the single first-order difference, the
    best available estimate there.
    """
    out = np.empty_like(values)
    if values.shape[-1] == 2:
        out[...] = ((values[..., 1] - values[..., 0]) / h)[..., None]
        return out
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * values[..., -1] - 4.0 * values[..., -2] + values[..., -3]) / (2.0 * h)
    return out


def _first_failures(errors: list, bad: np.ndarray, make) -> None:
    """For each run j of ``bad`` (shape (B, ...)) that has no error yet and
    a True anywhere, set ``errors[j]`` to ``make(j, k)`` with k the flat
    index of its first True in ``bad[j]``."""
    if not bad.any():
        return
    bad = bad.reshape(len(bad), -1)
    for j in np.flatnonzero(bad.any(axis=1)):
        if errors[j] is None:
            errors[j] = make(j, int(np.argmax(bad[j])))


def _track_branches(
    principal: np.ndarray,
    first_sign,
    contexts: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray, list]:
    """Branch-continuous square roots from principal roots of shape
    (C, B, n): C tracked quantities, named by ``contexts``, of B runs.

    Series (c, j) starts at ``first_sign[c, j]`` (shape (C, B), or (C,)
    for one sign per quantity) times its principal root; afterwards each
    sample keeps whichever of +-principal lies nearer the previous kept
    root.
    Since |p_k - s p_{k-1}| and |p_k + s p_{k-1}| only swap with the sign
    s, the per-step decision is the sign-free comparison of
    |p_k -+ p_{k-1}|, and the signs are its running product (a prefix
    scan).

    Returns the tracked roots and their int8 signs (+1 principal kept, -1
    negated), both shaped like ``principal``, and one entry per run: the
    :class:`BranchAmbiguity` at the first grid point (quantities in order
    on a shared point) where both candidates are equidistant from the
    previous sample, within ``BRANCH_AMBIGUITY_RTOL``, or None.
    """
    cur, prev = principal[..., 1:], principal[..., :-1]
    d_keep = np.abs(cur - prev)
    d_flip = np.abs(cur + prev)
    first = np.asarray(first_sign, dtype=np.int8).reshape(len(principal), -1)
    signs = np.empty(principal.shape, dtype=np.int8)
    signs[..., 0] = first
    signs[..., 1:] = np.where(d_keep < d_flip, 1, -1)
    np.cumprod(signs, axis=-1, out=signs)
    roots = np.where(signs > 0, principal, -principal)
    roots[..., 0] = first * principal[..., 0]
    tie = np.abs(d_keep - d_flip) <= BRANCH_AMBIGUITY_RTOL * np.maximum(d_keep, d_flip)
    errors = [None] * principal.shape[1]

    def ambiguity(j, index):
        k, c = divmod(index, len(contexts))
        return BranchAmbiguity(
            f"{contexts[c]}: both roots +-{complex(principal[c, j, k + 1]):.6e} "
            f"equidistant from previous sample {complex(roots[c, j, k]):.6e}",
            grid_index=int(k) + 1,
        )

    _first_failures(errors, tie.transpose(1, 2, 0), ambiguity)
    return roots, signs, errors


def uniform_grid(grid) -> tuple[np.ndarray, float]:
    """A float copy of the grid and its spacing.

    The copy keeps the caller's array writeable when a series freezes its
    grid, and out of reach of the caller once it sits on a series or a
    trajectory.

    Raises
    ------
    ValueError
        If the grid is not one-dimensional with at least 2 points, or not
        uniformly increasing: the first step must be positive and finite,
        and every step within 1e-9 of it, relative.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    steps = np.diff(grid)
    h = float(steps[0])
    if not 0.0 < h < np.inf or not np.all(np.abs(steps - h) <= 1e-9 * h):
        raise ValueError("grid must be uniformly increasing")
    return grid, h


def snapshot_series(
    params: SystemParams,
    field: FieldModel,
    grid: np.ndarray,
) -> SnapshotSeries:
    """Evaluate every dressed-state quantity on a uniform grid of >= 2
    points: :func:`snapshot_batch` on a batch of one run, with its failure
    raised.

    Raises
    ------
    ValueError
        If the grid is not uniform or too short.
    EnvelopeUnderflow, BranchAmbiguity, DegenerateRabi, NonFiniteValue
        As :func:`snapshot_batch` reports them.
    """
    (series,) = snapshot_batch(((params, field),), grid)
    if isinstance(series, NumericalError):
        raise series
    return series


def _stacked(values) -> np.ndarray:
    """The per-run arrays or numbers in ``values`` as one batch: their rows,
    numbers as a column."""
    out = np.array(values)
    return out if out.ndim > 1 else out[:, None]


def snapshot_batch(runs, grid: np.ndarray) -> list:
    """Evaluate every dressed-state quantity for B independent runs on one
    uniform grid of >= 2 points, as (B, n) arrays.

    ``runs`` is a sequence of (SystemParams, FieldModel) pairs. Returns one
    entry per run, in order: its :class:`SnapshotSeries`, whose arrays are
    row views of the batch arrays, or the :class:`NumericalError` it fails
    with. Each run's values, and its failure, are bitwise those of the run
    alone: every operation is elementwise along the batch axis, with the
    operands in the same order, and a failing run only takes its own entry.
    The batch arrays live as long as any of its series, so a caller that
    reduces many runs bounds their memory by batching them in chunks.

    With delta the static :func:`detuning` and gamma = (gamma_g + gamma_e)/2:

    * delta_tilde = delta - i gamma - (dphi - i Omega^-1 dOmega);
    * omega_tilde = sgn(delta) sqrt(Omega^2 + delta_tilde^2 - 2i d_delta_tilde);
    * Lambda_1,2 = (delta_tilde +- omega_tilde)/2 and
      Lambda'_j = Lambda_j - i (2 omega_tilde)^-1 d_omega_tilde, so that
      Lambda'_1 - Lambda'_2 = omega_tilde exactly;
    * COS(theta/2) = sqrt(Lambda'_1/omega_tilde) and
      SIN(theta/2) = sgn(delta) sqrt(-Lambda'_2/omega_tilde);
    * omega'_G = omega_g + Lambda_2 and
      omega'_E = omega_e - Lambda_2 - i gamma - (dphi - i Omega^-1 dOmega),
      all nonadiabatic terms on the excited side.

    The sgn(delta) factors fix the first grid point only; afterwards each
    square root keeps the sign nearer its previous sample. Branch continuity
    is an order-dependent decision, evaluated for the whole grid at once as
    a prefix product of signs (see :func:`_track_branches`); distinct series
    are independent. Overflowing field values (a huge chirp) raise no
    warning: the checks below name them.

    A run fails, at the offending grid index, with the first of:
    EnvelopeUnderflow; NonFiniteValue when the radicand of the nonadiabatic
    Rabi frequency overflows; BranchAmbiguity of omega_tilde;
    NonFiniteValue when its finite-difference time derivative overflows;
    DegenerateRabi; BranchAmbiguity of COS or SIN.

    Raises
    ------
    ValueError
        If the grid is not uniform or too short.
    """
    grid, h = uniform_grid(grid)
    if not runs:
        return []
    errors = [None] * len(runs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega = _stacked([p.mu * f.envelope.omega(grid) for p, f in runs])
        log_deriv = _stacked([f.envelope.log_deriv(grid) for _, f in runs])
        dlog_deriv = _stacked([f.envelope.dlog_deriv(grid) for _, f in runs])
        phi = _stacked([f.phi(grid) for _, f in runs])
        dphi = _stacked([f.dphi(grid) for _, f in runs])
        d2phi = _stacked([f.d2phi(grid) for _, f in runs])
        _first_failures(errors, omega < OMEGA_FLOOR, lambda j, k: EnvelopeUnderflow(
            f"Omega({grid[k]}) = {omega[j, k]:.3e} below floor {OMEGA_FLOOR:.3e}",
            grid_index=k,
        ))

        deltas = [detuning(p, f) for p, f in runs]
        sign_delta = [1 if delta >= 0.0 else -1 for delta in deltas]
        # delta - i gamma in Python's complex arithmetic, one per run.
        offset = _stacked([delta - 1j * p.gamma_sum_half for delta, (p, _) in zip(deltas, runs)])
        delta_tilde = (offset - (dphi - 1j * log_deriv)).astype(complex)
        d_delta_tilde = (-d2phi + 1j * dlog_deriv).astype(complex)

        # The radicand Omega^2 + delta_tilde^2 - 2i d_delta_tilde, written
        # out in real and imaginary parts in the order Python's complex
        # arithmetic evaluates it. NumPy's complex expression rounds
        # differently in the last bit on chirped or damped pulses (three of
        # the shipped scenarios), which would change the bytes of their
        # tables.
        a, b = delta_tilde.real, delta_tilde.imag
        c, d = d_delta_tilde.real, d_delta_tilde.imag
        radicand = np.empty(delta_tilde.shape, dtype=complex)
        radicand.real = (omega * omega + (a * a - b * b)) - (0.0 * c - 2.0 * d)
        radicand.imag = (0.0 + (a * b + b * a)) - (0.0 * d + 2.0 * c)
        _require_finite_runs(errors, "nonadiabatic Rabi frequency radicand", radicand)
        (omega_tilde,), (branch_rabi,), ambiguous = _track_branches(
            np.sqrt(radicand)[None], [sign_delta], ("nonadiabatic Rabi frequency",)
        )
        _merge(errors, ambiguous)

        d_omega_tilde = _central_diff(omega_tilde, h)
        _require_finite_runs(errors, "d omega_tilde/dt", d_omega_tilde)

        _first_failures(
            errors, np.abs(omega_tilde) < RABI_DEGENERACY_FLOOR,
            lambda j, k: DegenerateRabi(
                f"|omega_tilde| = {abs(omega_tilde[j, k]):.3e} below "
                f"{RABI_DEGENERACY_FLOOR:.0e}", grid_index=k,
            ),
        )
        lam1 = 0.5 * (delta_tilde + omega_tilde)
        lam2 = 0.5 * (delta_tilde - omega_tilde)
        shift = -1j * d_omega_tilde / (2.0 * omega_tilde)
        lam_t1 = lam1 + shift
        lam_t2 = lam2 + shift

        (cos_half, sin_half), (branch_cos, branch_sin), ambiguous = _track_branches(
            np.sqrt(np.stack([lam_t1, -lam_t2]) / omega_tilde),
            [[1] * len(runs), sign_delta],
            ("COS(theta/2)", "SIN(theta/2)"),
        )
        _merge(errors, ambiguous)

        omega_G = _stacked([p.omega_g for p, _ in runs]) + lam2
        omega_E = (
            _stacked([p.omega_e for p, _ in runs])
            - lam2
            - _stacked([1j * p.gamma_sum_half for p, _ in runs])
            - (dphi - 1j * log_deriv)
        )

    arrays = {
        "omega": omega, "log_deriv": log_deriv, "phi": phi, "dphi": dphi,
        "delta_tilde": delta_tilde, "d_delta_tilde": d_delta_tilde,
        "omega_tilde": omega_tilde, "d_omega_tilde": d_omega_tilde,
        "lambda1": lam1, "lambda2": lam2, "lambda_t1": lam_t1, "lambda_t2": lam_t2,
        "cos_half": cos_half, "sin_half": sin_half,
        "omega_G": omega_G, "omega_E": omega_E,
    }
    branches = {"omega_tilde": branch_rabi, "cos_half": branch_cos, "sin_half": branch_sin}
    for arr in [grid, *arrays.values(), *branches.values()]:
        arr.flags.writeable = False
    return [
        errors[j] or SnapshotSeries(
            params=params, field=field, grid=grid,
            sign_delta=sign_delta[j], delta=deltas[j],
            **{name: arr[j] for name, arr in arrays.items()},
            branch_log={name: arr[j] for name, arr in branches.items()},
        )
        for j, (params, field) in enumerate(runs)
    ]


def _require_finite_runs(errors: list, quantity: str, values: np.ndarray) -> None:
    """:func:`require_finite` for each run of ``values`` (shape (B, n)) that
    has no error yet."""
    _first_failures(errors, ~np.isfinite(values), lambda j, k: NonFiniteValue(
        f"{quantity} is not finite: {values[j, k]}", grid_index=k,
    ))


def _merge(errors: list, new: list) -> None:
    """Keep each run's first error."""
    for j, error in enumerate(new):
        errors[j] = errors[j] or error
