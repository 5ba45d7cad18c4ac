"""Nonadiabatic dressed states of a driven, damped two-level system.

Closed-form dressed-state quantities along a time grid, their overlaps and
transition probability, bare-basis amplitude ratios, and an
independent Schrodinger integrator for cross-validation, plus scenario
files, sweeps and a CLI.
"""

from .errors import (
    BranchAmbiguity,
    ConfigError,
    DegenerateRabi,
    EnvelopeUnderflow,
    NadsError,
    NumericalError,
    ParseError,
    StepUnderflow,
    ValidationError,
)
from .field_model import (
    OMEGA_FLOOR,
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from .nads_core import (
    SnapshotSeries,
    detuning,
    snapshot_series,
)
from .overlap_transitions import (
    amplitude_ratios,
    eg_overlap,
    expanded_overlaps,
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from .scenario import (
    Scenario,
    SweepAxis,
    axis_values,
    list_shipped,
    load_scenario,
    load_shipped,
    parse_axis,
    scenario_from_dict,
    serialize,
    shipped_path,
)
from .tdse import (
    Trajectory,
    evolve,
    lz_oracle,
    lz_survival,
    propagate_fixed,
    rabi_oracle,
    rhs,
    rz_oracle,
)
from .validation import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BranchAmbiguity",
    "CheckResult",
    "Chirp",
    "ConfigError",
    "ConstantEnvelope",
    "DegenerateRabi",
    "EnvelopeUnderflow",
    "FieldModel",
    "GaussianEnvelope",
    "NadsError",
    "NumericalError",
    "OMEGA_FLOOR",
    "ParseError",
    "Scenario",
    "SechEnvelope",
    "SnapshotSeries",
    "StepUnderflow",
    "SweepAxis",
    "SystemParams",
    "Trajectory",
    "ValidationError",
    "amplitude_ratios",
    "axis_values",
    "detuning",
    "eg_overlap",
    "evolve",
    "expanded_overlaps",
    "ge_overlap",
    "list_shipped",
    "load_scenario",
    "load_shipped",
    "lz_oracle",
    "lz_survival",
    "mixing_probability",
    "norms",
    "p_via_overlaps",
    "parse_axis",
    "propagate_fixed",
    "rabi_oracle",
    "rhs",
    "run_all",
    "rz_oracle",
    "scenario_from_dict",
    "serialize",
    "shipped_path",
    "snapshot_series",
    "__version__",
]
