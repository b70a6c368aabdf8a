"""Quasi-static floating-spring leg: cyclic elastic-energy accumulation.

A small numpy library modeling a two-segment leg whose compression spring
slides along the segments: squatting compresses the spring under a bounded
hip force, locking and retracting the spring endpoints restores the
mechanical advantage, and repetition accumulates energy far beyond what a
single squat could store.  Includes the single-squat baseline model, the
multi-squat recurrence with losses, calibration against measured traces,
design-space queries, and deterministic CSV/SVG output.
"""

from .baseline import (
    BaselineResult,
    average_force,
    baseline_result,
    e1_max,
    required_stiffness,
    stored_energy_single,
)
from .calibration import (
    FitReport,
    MeasuredCycle,
    estimate_efficiency,
    fit_model,
    integrate_work,
)
from .config import (
    ALL_KEYS,
    config_from_values,
    parse_config,
    parse_config_text,
    parse_grid,
    values_from_config,
)
from .cyclic import (
    CycleState,
    ReleaseProfile,
    SimResult,
    SquatRecord,
    Squats,
    StopReason,
    Termination,
    release_profile,
    simulate,
)
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    GeometryError,
    SimulationError,
    SpringLegError,
    StallError,
)
from .explore import SweepRow, max_energy, min_squats, spring_capacity, sweep
from .model import (
    BodyParams,
    CompressionPolicy,
    Configuration,
    LegGeometry,
    LossModel,
    SpringParams,
    Trajectory,
    hip_force,
    initial_spring_length,
    spring_energy,
    spring_force,
    spring_length_from_leg,
)
from .output import (
    emit_fit_report_csv,
    emit_plot_svg,
    emit_sweep_csv,
    emit_trajectory_csv,
    read_measured_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KEYS",
    "BaselineResult",
    "BodyParams",
    "CompressionPolicy",
    "Configuration",
    "ConfigurationError",
    "CycleState",
    "DataError",
    "DomainError",
    "FitReport",
    "GeometryError",
    "LegGeometry",
    "LossModel",
    "MeasuredCycle",
    "ReleaseProfile",
    "SimResult",
    "SimulationError",
    "SpringLegError",
    "SpringParams",
    "SquatRecord",
    "Squats",
    "StallError",
    "StopReason",
    "SweepRow",
    "Termination",
    "Trajectory",
    "average_force",
    "baseline_result",
    "config_from_values",
    "e1_max",
    "emit_fit_report_csv",
    "emit_plot_svg",
    "emit_sweep_csv",
    "emit_trajectory_csv",
    "estimate_efficiency",
    "fit_model",
    "hip_force",
    "initial_spring_length",
    "integrate_work",
    "max_energy",
    "min_squats",
    "parse_config",
    "parse_config_text",
    "parse_grid",
    "read_measured_cycles",
    "release_profile",
    "required_stiffness",
    "simulate",
    "spring_capacity",
    "spring_energy",
    "spring_force",
    "spring_length_from_leg",
    "stored_energy_single",
    "sweep",
    "values_from_config",
]
