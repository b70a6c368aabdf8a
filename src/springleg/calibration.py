"""Recover loss-model parameters from measured force-displacement cycles.

Measured (or synthetic) per-squat hip force traces are compared against
simulated trajectories; the transition efficiency and the force cap are
found by a deterministic grid-plus-golden-section search on the summed
squared force residual.  Forces are the fitted quantity because they are
what a load cell measures; energies are derived by trapezoidal work
integration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .cyclic import simulate
from .errors import ConfigurationError, DataError, DomainError, SimulationError
from .model import Configuration, SpringParams, spring_energy

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

#: Relative slack above 1.0 tolerated in a measured energy-retention ratio
#: before it is reported as inconsistent data.
RATIO_TOL = 1e-9

#: Zooms of the 2-unknown grid onto its best cell, after the first grid.
_ZOOMS = 3
#: Shrinking golden-section passes of the 1-unknown search.
_GOLDEN_PASSES = 3


@dataclass(frozen=True)
class MeasuredCycle:
    """One measured squat: ordered (hip displacement, hip force) samples.

    ``spring_length_end`` is the locked spring length measured after the
    squat; ``spring_length_start`` the length observed when the next squat
    begins.  Both are optional and only needed for direct energy-retention
    estimates.
    """

    iteration: int
    hip_displacement: np.ndarray  # m, non-decreasing
    hip_force: np.ndarray  # N
    spring_length_start: float | None = None
    spring_length_end: float | None = None

    def __post_init__(self) -> None:
        if len(self.hip_displacement) == 0:
            raise DataError(f"cycle {self.iteration}: no samples")
        if len(self.hip_displacement) != len(self.hip_force):
            raise DataError(f"cycle {self.iteration}: displacement/force length mismatch")
        if not (np.isfinite(self.hip_displacement).all() and np.isfinite(self.hip_force).all()):
            raise DataError(f"cycle {self.iteration}: displacements and forces must be finite")
        if np.any(np.diff(self.hip_displacement) < 0):
            raise DataError(f"cycle {self.iteration}: displacements must be non-decreasing")


@dataclass(frozen=True)
class FitReport:
    """Result of a loss-model fit."""

    efficiency: float
    force_cap: float  # N
    cycle_work: tuple[float, ...]  # per-iteration trapezoidal work, J
    residual_rms: float  # N
    retention_ratios: tuple[float, ...]  # measured per-transition energy ratios
    flat_objective: bool  # True when the search box could not discriminate


def integrate_work(cycle: MeasuredCycle) -> float:
    """Trapezoidal work integral of the measured force over displacement."""
    if len(cycle.hip_displacement) < 2:
        raise DataError(f"cycle {cycle.iteration}: need at least 2 samples to integrate")
    return float(np.trapezoid(cycle.hip_force, cycle.hip_displacement))


def retention_ratios(cycles: Sequence[MeasuredCycle], spring: SpringParams) -> list[float]:
    """Energy ratio across each lock/retract transition, from measured spring lengths.

    Ratio n is the stored energy at the start of cycle n+1 over the stored
    energy locked in at the end of cycle n.
    """
    ordered = sorted(cycles, key=lambda c: c.iteration)
    ratios: list[float] = []
    for before, after in zip(ordered, ordered[1:]):
        if before.spring_length_end is None or after.spring_length_start is None:
            continue
        try:
            e_locked = spring_energy(before.spring_length_end, spring)
            e_next = spring_energy(after.spring_length_start, spring)
        except DomainError as exc:
            raise DataError(
                f"transition {before.iteration}->{after.iteration}: measured spring "
                f"length outside the spring's range ({exc})"
            ) from exc
        if e_locked <= 0:
            continue
        ratio = e_next / e_locked
        if ratio > 1.0 + RATIO_TOL:
            warnings.warn(
                f"transition {before.iteration}->{after.iteration}: retention ratio "
                f"{ratio} exceeds 1 (stored energy cannot grow while locked)",
                stacklevel=2,
            )
        ratios.append(ratio)
    return ratios


def estimate_efficiency(cycles: Sequence[MeasuredCycle], spring: SpringParams) -> float:
    """Geometric mean of the measured per-transition energy-retention ratios.

    Raises
    ------
    DataError
        If fewer than two consecutive cycles carry the spring lengths needed
        to evaluate a transition.
    """
    ratios = retention_ratios(cycles, spring)
    if not ratios:
        raise DataError(
            "insufficient transitions: need >= 2 consecutive cycles with locked spring lengths"
        )
    return float(math.exp(sum(math.log(r) for r in ratios) / len(ratios)))


def fit_model(
    cycles: Sequence[MeasuredCycle],
    config: Configuration,
    fit_efficiency: bool = True,
    fit_force_cap: bool = True,
    efficiency_bounds: tuple[float, float] = (0.05, 1.0),
    force_cap_bounds: tuple[float, float] | None = None,
    grid_points: int = 17,
) -> FitReport:
    """Fit the loss model to measured cycles by least-squares on force.

    The objective is the sum of squared differences between simulated hip
    forces and the measured traces linearly resampled onto the simulated
    displacement grids.  A coarse grid over the unknowns locates the basin;
    golden-section sweeps along each unknown refine it.  The search is fully
    deterministic for identical inputs and settings.

    Raises
    ------
    DomainError
        If ``grid_points`` is not an integer >= 2.
    DataError
        On fewer than two cycles or a non-finite residual.
    """
    if not isinstance(grid_points, (int, np.integer)) or grid_points < 2:
        raise DomainError(f"grid_points must be an integer >= 2, got {grid_points!r}")
    if len(cycles) < 2:
        raise DataError("need at least 2 measured cycles to fit the loss model")
    ordered = sorted(cycles, key=lambda c: c.iteration)
    if force_cap_bounds is None:
        f_max = max(float(np.max(c.hip_force)) for c in ordered)
        if not (math.isfinite(f_max) and f_max > 0):
            raise DataError("measured forces must be finite and positive to bound the cap search")
        force_cap_bounds = (0.5 * f_max, 1.25 * f_max)

    eta = config.loss.efficiency
    cap = config.force_cap
    flat = False

    if fit_efficiency and fit_force_cap:
        # The objective valley runs diagonally (a low cap trades against a
        # high efficiency), so axis-aligned descent alone crawls; zoom the
        # 2-D grid onto the best cell first, then polish with golden
        # sections along each axis.
        eta_box = efficiency_bounds
        cap_box = force_cap_bounds
        eta_step = cap_step = 0.0
        for zoom in range(_ZOOMS + 1):
            eta_grid = np.linspace(*eta_box, grid_points)
            cap_grid = np.linspace(*cap_box, grid_points)
            values = np.array(
                [[_residual(ordered, config, e, c)[0] for c in cap_grid] for e in eta_grid]
            )
            if zoom == 0:
                flat = _is_flat(values)
            i, j = np.unravel_index(int(np.argmin(values)), values.shape)
            eta, cap = float(eta_grid[i]), float(cap_grid[j])
            eta_step = float(eta_grid[1] - eta_grid[0])
            cap_step = float(cap_grid[1] - cap_grid[0])
            eta_box = (
                max(efficiency_bounds[0], eta - 1.5 * eta_step),
                min(efficiency_bounds[1], eta + 1.5 * eta_step),
            )
            cap_box = (
                max(force_cap_bounds[0], cap - 1.5 * cap_step),
                min(force_cap_bounds[1], cap + 1.5 * cap_step),
            )
        for _ in range(2):
            eta = _golden_min(
                lambda e: _residual(ordered, config, e, cap)[0],
                max(efficiency_bounds[0], eta - eta_step),
                min(efficiency_bounds[1], eta + eta_step),
            )
            cap = _golden_min(
                lambda c: _residual(ordered, config, eta, c)[0],
                max(force_cap_bounds[0], cap - cap_step),
                min(force_cap_bounds[1], cap + cap_step),
            )
    elif fit_efficiency or fit_force_cap:
        if fit_efficiency:
            bounds = efficiency_bounds
            value_of = lambda v: _residual(ordered, config, v, cap)[0]
        else:
            bounds = force_cap_bounds
            value_of = lambda v: _residual(ordered, config, eta, v)[0]
        grid = np.linspace(*bounds, grid_points)
        values = np.array([value_of(v) for v in grid])
        flat = _is_flat(values)
        best = float(grid[int(np.argmin(values))])
        step = float(grid[1] - grid[0])
        for _ in range(_GOLDEN_PASSES):
            best = _golden_min(value_of, max(bounds[0], best - step), min(bounds[1], best + step))
            step *= _INV_PHI_SQ
        if fit_efficiency:
            eta = best
        else:
            cap = best
    else:
        raise DataError("nothing to fit: at least one of efficiency/force_cap must be unknown")

    sse, n_points = _residual(ordered, config, eta, cap)
    if not math.isfinite(sse):
        raise DataError("non-finite force residual at the fitted parameters")
    try:
        ratios = tuple(retention_ratios(ordered, config.spring))
    except DataError:
        ratios = ()  # lengths inconsistent with the spring; forces still fit
    return FitReport(
        efficiency=eta,
        force_cap=cap,
        cycle_work=tuple(integrate_work(c) for c in ordered),
        residual_rms=math.sqrt(sse / n_points) if n_points else 0.0,
        retention_ratios=ratios,
        flat_objective=flat,
    )


def _residual(
    cycles: Sequence[MeasuredCycle], config: Configuration, eta: float, cap: float
) -> tuple[float, int]:
    """Summed squared force error and the number of compared points.

    The comparison runs both ways: measured forces resampled onto the
    simulated displacement grid and simulated forces onto the measured
    grid, with endpoint clamping outside either stroke.  One-way
    resampling onto the (possibly shorter) simulated stroke would ignore
    the measured tail a too-low cap fails to reach, leaving only the
    product sqrt(efficiency)*cap identifiable on cap-limited cycles.

    Configurations that cannot run (stall, invalid derived state) are
    penalized by treating every measured force as unexplained, which keeps
    the objective finite and the search well defined.
    """
    trial = replace(
        config,
        loss=replace(config.loss, efficiency=eta),
        force_cap=cap,
        max_iterations=len(cycles),
    )
    try:
        result = simulate(trial)
        trajectories = result.trajectories
    except (ConfigurationError, SimulationError):
        trajectories = ()
    sse = 0.0
    n_points = 0
    for i, cycle in enumerate(cycles):
        if i < len(trajectories):
            model = trajectories[i]
            on_model = np.interp(model.leg_deformation, cycle.hip_displacement, cycle.hip_force)
            sse += float(np.sum((model.hip_force - on_model) ** 2))
            on_measured = np.interp(cycle.hip_displacement, model.leg_deformation, model.hip_force)
            sse += float(np.sum((on_measured - cycle.hip_force) ** 2))
            n_points += len(model.leg_deformation) + len(cycle.hip_displacement)
        else:
            sse += float(np.sum(cycle.hip_force**2))
            n_points += len(cycle.hip_force)
    return sse, n_points


def _is_flat(values: np.ndarray, rtol: float = 1e-9) -> bool:
    lo = float(np.min(values))
    hi = float(np.max(values))
    return hi - lo <= rtol * (1.0 + abs(lo))


def _golden_min(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of a unimodal function on [a, b]."""
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        h *= _INV_PHI
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = f(d)
    return 0.5 * ((a + d) if yc < yd else (c + b))
