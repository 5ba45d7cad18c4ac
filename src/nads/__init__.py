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
    NonFiniteValue,
    NumericalError,
    ParseError,
    StepUnderflow,
    ToleranceUnreachable,
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
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from .scenario import (
    Grid,
    Integrator,
    Scenario,
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
    rabi_oracle,
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
    "Grid",
    "Integrator",
    "NadsError",
    "NonFiniteValue",
    "NumericalError",
    "OMEGA_FLOOR",
    "ParseError",
    "Scenario",
    "SechEnvelope",
    "SnapshotSeries",
    "StepUnderflow",
    "SystemParams",
    "ToleranceUnreachable",
    "Trajectory",
    "ValidationError",
    "amplitude_ratios",
    "detuning",
    "eg_overlap",
    "evolve",
    "ge_overlap",
    "list_shipped",
    "load_scenario",
    "load_shipped",
    "lz_oracle",
    "mixing_probability",
    "norms",
    "p_via_overlaps",
    "parse_axis",
    "rabi_oracle",
    "run_all",
    "scenario_from_dict",
    "serialize",
    "shipped_path",
    "snapshot_series",
    "__version__",
]
