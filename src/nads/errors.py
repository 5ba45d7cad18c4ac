"""Exception hierarchy.

Two families matter to callers: configuration problems (bad scenario files,
schema violations) and numerical failures (quantities leaving the domain in
which the closed-form construction is meaningful). The CLI maps them to
exit codes 1 and 2 respectively.
"""

from __future__ import annotations


class NadsError(Exception):
    """Base class for all package errors."""


class ConfigError(NadsError):
    """Scenario file or parameter configuration problem (CLI exit code 1)."""


class ParseError(ConfigError):
    """Malformed scenario file: bad syntax or unknown keys."""


class ValidationError(ConfigError):
    """Well-formed scenario that violates a documented invariant."""


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


class StepUnderflow(NumericalError):
    """The integrator substep controller was driven below its floor without
    reaching the requested tolerance."""

