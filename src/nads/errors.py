"""Exception hierarchy.

Two families matter to callers: configuration problems (bad scenario files,
schema violations) and numerical failures (quantities leaving the domain in
which the closed-form construction is meaningful). The CLI maps them to
exit codes 1 and 2 respectively. A scenario may also ask for a warning in
place of an error (``grid.step_policy: "warn"``); that is a StepWarning.
"""

from __future__ import annotations


class NadsError(Exception):
    """Base class for all package errors."""


class ConfigError(NadsError):
    """Scenario file or parameter configuration problem (CLI exit code 1)."""


class ParseError(ConfigError):
    """Malformed scenario file: bad syntax or unknown keys."""


class ValidationError(ConfigError, ValueError):
    """A scenario field or library argument that violates a documented
    invariant; also a ValueError, as library callers expect of a bad value."""


class NumericalError(NadsError):
    """Numerical failure during evaluation (CLI exit code 2).

    ``grid_index`` is set when the failure occurred at a specific point of a
    time grid, -1 otherwise.
    """

    def __init__(self, message: str, grid_index: int = -1):
        if grid_index >= 0:
            message = f"{message} (grid index {grid_index})"
        super().__init__(message)
        self.grid_index = grid_index


class EnvelopeUnderflow(NumericalError):
    """Envelope evaluated so deep in a pulse wing that its logarithmic
    derivative is no longer numerically meaningful."""


class BranchAmbiguity(NumericalError):
    """Both square-root branches are equidistant from the previous sample;
    the tracked quantity is passing through (or extremely near) zero."""


class DegenerateRabi(NumericalError):
    """The nonadiabatic Rabi frequency is too close to zero to divide by."""


class NonFiniteValue(NumericalError):
    """A computed quantity overflowed or became undefined (inf or NaN) at a
    grid point."""


class StepUnderflow(NumericalError):
    """The integrator substep controller did not reach the requested
    tolerance before its next pass would build more substeps than one pass
    may (``nads.tdse.MAX_PASS_SUBSTEPS``)."""


class ToleranceUnreachable(StepUnderflow):
    """Halving the substep stopped shrinking the difference between passes
    before it met the tolerance: rounding error, not truncation error, now
    sets that difference, and no finer substep can reach the tolerance."""


class StepWarning(UserWarning):
    """A pulsed envelope's grid step exceeds tau/400 under
    ``grid.step_policy: "warn"``; the CLI prints it as a ``warning:`` line."""
