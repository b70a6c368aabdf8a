"""Quasi-static floating-spring leg: cyclic elastic-energy accumulation.

A small numpy library modeling a two-segment leg whose compression spring
slides along the segments: squatting compresses the spring under a bounded
hip force, locking and retracting the spring endpoints restores the
mechanical advantage, and repetition accumulates energy far beyond what a
single squat could store.  Includes the single-squat baseline model, the
multi-squat recurrence with losses, calibration against measured traces,
design-space queries, and deterministic CSV/SVG output.

Each public name is imported from its module on first use, so a caller that
touches only the plain-float modules never loads numpy.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each module.
_MODULES = {
    "baseline": "BaselineResult baseline_result e1_max",
    "calibration": "FitReport MeasuredCycle estimate_efficiency fit_model integrate_work",
    "config": "ALL_KEYS config_from_values parse_config parse_grid",
    "cyclic": "CycleState ReleaseProfile SimResult SquatRecord Squats StopReason Termination "
    "release_profile simulate",
    "errors": "ConfigurationError DataError DomainError GeometryError SimulationError "
    "SpringLegError StallError",
    "explore": "SweepRow max_energy min_squats spring_capacity sweep",
    "model": "BodyParams CompressionPolicy Configuration LegGeometry LossModel SpringParams "
    "Trajectory hip_force initial_spring_length spring_energy",
    "output": "emit_fit_report_csv emit_plot_svg emit_sweep_csv emit_trajectory_csv "
    "read_measured_cycles",
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import the module of public ``name`` and keep the value here, so that
    later lookups are plain attribute reads."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
