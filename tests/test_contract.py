"""Only ``SpringLegError`` escapes a public call (ROADMAP item 17).

One valid call per public callable, with each of its arguments replaced in
turn by a value of every wrong kind; each call must return normally or raise
a ``SpringLegError``.
"""

import enum
import math
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

import springleg
from springleg import (
    BodyParams, CompressionPolicy, Configuration, ConfigurationError, DomainError, LegGeometry,
    LossModel, MeasuredCycle, SpringLegError, SpringParams, Trajectory, baseline_result,
    config_from_values, e1_max, emit_fit_report_csv, emit_plot_svg, emit_sweep_csv,
    emit_trajectory_csv, estimate_efficiency, fit_model, hip_force, initial_spring_length,
    integrate_work, max_energy, min_squats, parse_config, parse_grid, read_measured_cycles,
    release_profile, simulate, spring_capacity, spring_energy, sweep,
)
from springleg.calibration import FitReport
from springleg.cyclic import Run

from conftest import CONFIG_DIR, values_from_config, worked_config

#: A value of each wrong kind an argument can be given.
KINDS = {
    "none": None,
    "bool": True,
    "str": "x",
    "nan": math.nan,
    "inf": math.inf,
    "int_past_float": 10**400,
    "empty": [],
    "ragged": [[1.0], [1.0, 2.0]],
}

#: Plain records: they validate nothing and hold whatever they are given.
RECORDS = {
    "BaselineResult", "CycleState", "FitReport", "ReleaseProfile", "SimResult", "SquatRecord",
    "Squats", "SweepRow",
}


def calls() -> dict[str, tuple]:
    """Public callable -> (function, positional arguments, keyword arguments), a valid call."""
    config = worked_config(sample_count=20)
    result = simulate(config)
    strokes = result.trajectories
    cycles = [
        MeasuredCycle(n, t.leg_deformation, t.hip_force, t.spring_length[0], t.spring_length[-1])
        for n, t in enumerate(strokes, 1)
    ]
    body, leg, spring = config.body, config.leg, config.spring
    report = FitReport(0.9, 12.0, (0.5, 0.25), 0.01, (0.9,), False)
    emitted = emit_trajectory_csv(result, "cycles.csv")
    configuration = dict(
        force_cap=12.0, loss=LossModel(0.9, 0.0), policy=CompressionPolicy.FORCE_LIMITED,
        max_iterations=50, sample_count=20, tol_gain=1e-12,
    )
    return {
        "BodyParams": (BodyParams, (10.0, 10.0), {}),
        "LegGeometry": (LegGeometry, (0.2, 0.3, 0.1), {}),
        "SpringParams": (SpringParams, (1000.0, 0.12, 0.04), {}),
        "LossModel": (LossModel, (0.9, 1e-3), {}),
        "Configuration": (Configuration, (body, leg, spring, 0.08), configuration),
        "Trajectory": (Trajectory, tuple(np.zeros(2) for _ in range(4)), {}),
        "hip_force": (hip_force, (0.08, 0.1, leg, spring), {}),
        "spring_energy": (spring_energy, (0.1, spring), {}),
        "initial_spring_length": (initial_spring_length, (config,), {}),
        "e1_max": (e1_max, (body, leg), {}),
        "baseline_result": (baseline_result, (50.0, body, leg), {}),
        "simulate": (simulate, (config,), {}),
        # A Run checks its arguments when it is built and runs when it is iterated.
        "Run": (
            lambda *a, **k: list(Run(*a, **k)), (config, 10), dict(efficiency=0.9, force_cap=12.0)
        ),
        "release_profile": (release_profile, (0.1, config, 0.08), {}),
        "max_energy": (max_energy, (config,), {}),
        "min_squats": (min_squats, (config, 1.0), {}),
        "spring_capacity": (spring_capacity, (config,), {}),
        "sweep": (sweep, (config, [{"efficiency": 0.9}, {"efficiency": 0.8}], 1), {}),
        "config_from_values": (config_from_values, (values_from_config(config),), {}),
        "parse_config": (parse_config, (CONFIG_DIR / "four_squat_demo.cfg",), {}),
        "parse_grid": (parse_grid, (CONFIG_DIR / "four_squat_demo.cfg",), {}),
        "MeasuredCycle": (MeasuredCycle, (1, [0.0, 0.01], [1.0, 2.0], 0.1, 0.09), {}),
        "integrate_work": (integrate_work, (cycles[0],), {}),
        "estimate_efficiency": (estimate_efficiency, (cycles, spring), {}),
        "fit_model": (fit_model, (cycles, config, True, False), {}),
        "emit_trajectory_csv": (emit_trajectory_csv, (strokes[0], "stroke.csv", 1), {}),
        "emit_plot_svg": (emit_plot_svg, (result, "energy", "plot.svg"), {}),
        "emit_sweep_csv": (emit_sweep_csv, (sweep(config, [{}]), ["mass_kg"], "sweep.csv"), {}),
        "emit_fit_report_csv": (emit_fit_report_csv, (report, "fit.csv"), {}),
        "read_measured_cycles": (read_measured_cycles, (emitted,), {}),
    }


def out_of_scope(name: str) -> bool:
    """The enums, the exception classes and the plain records."""
    value = getattr(springleg, name)
    kinds = (enum.Enum, BaseException)
    return name in RECORDS or isinstance(value, type) and issubclass(value, kinds)


def test_table_covers_every_public_callable(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    public = {name for name in springleg.__all__ if callable(getattr(springleg, name))}
    assert set(calls()) == {name for name in public if not out_of_scope(name)} | {"Run"}


def test_only_spring_leg_errors_escape(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a str path argument writes a file
    escapes = []
    for name, (function, args, kwargs) in calls().items():
        function(*args, **kwargs)  # the valid call itself returns
        arguments = [*range(len(args)), *kwargs]
        for argument, kind in ((a, k) for a in arguments for k in KINDS):
            wrong = deepcopy(KINDS[kind])
            given = [wrong if i == argument else a for i, a in enumerate(args)]
            keywords = {key: wrong if key == argument else v for key, v in kwargs.items()}
            try:
                function(*given, **keywords)
            except SpringLegError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other class is an escape
                escapes.append(f"{name} argument {argument!r} {kind}: {type(exc).__name__}: {exc}")
    assert escapes == []


#: Per entry point where a wrong type enters: a call with one, its error and its message.
NAMED = {
    "configuration_body": (
        lambda c: Configuration(None, c.leg, c.spring, 0.08),
        ConfigurationError,
        "body must be a BodyParams, got NoneType",
    ),
    "configuration_loss": (
        lambda c: replace(c, loss=0.9),
        ConfigurationError,
        "loss must be a LossModel, got float",
    ),
    "simulate": (
        lambda c: simulate(None),
        DomainError,
        "config must be a Configuration, got NoneType",
    ),
    "run": (lambda c: Run("x", 10), DomainError, "config must be a Configuration, got str"),
    "release_profile": (
        lambda c: release_profile(0.1, None),
        DomainError,  # not its own GeometryError
        "config must be a Configuration, got NoneType",
    ),
    "initial_spring_length": (
        lambda c: initial_spring_length(c.spring),
        DomainError,
        "config must be a Configuration, got SpringParams",
    ),
    "hip_force_geom": (
        lambda c: hip_force(0.08, 0.1, None, c.spring),
        DomainError,
        "geom must be a LegGeometry, got NoneType",
    ),
    "hip_force_spring": (
        lambda c: hip_force(0.08, 0.1, c.leg, 5),
        DomainError,
        "spring must be a SpringParams, got int",
    ),
    "spring_energy": (
        lambda c: spring_energy(0.1, c),
        DomainError,
        "spring must be a SpringParams, got Configuration",
    ),
    "e1_max_body": (
        lambda c: e1_max(None, c.leg),
        DomainError,
        "body must be a BodyParams, got NoneType",
    ),
    "e1_max_geom": (
        lambda c: e1_max(c.body, c.body),
        DomainError,
        "geom must be a LegGeometry, got BodyParams",
    ),
    "baseline_result": (
        lambda c: baseline_result(50.0, "x", c.leg),
        DomainError,
        "body must be a BodyParams, got str",
    ),
    "sweep": (
        lambda c: sweep(None, [{}]),
        DomainError,
        "config must be a Configuration, got NoneType",
    ),
    "trajectory": (
        lambda c: Trajectory(np.zeros(2), None, np.zeros(2), np.zeros(2)),
        DomainError,
        "trajectory array must be a sequence, got NoneType",
    ),
}


@pytest.mark.parametrize("case", NAMED)
def test_wrong_type_is_named_where_it_enters(case):
    call, error, message = NAMED[case]
    with pytest.raises(SpringLegError) as info:
        call(worked_config())
    assert type(info.value) is error
    assert str(info.value) == message
