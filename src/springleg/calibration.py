"""Recover loss-model parameters from measured force-displacement cycles.

Measured (or synthetic) per-squat hip force traces are compared against
simulated strokes; the transition efficiency and the force cap are found by
one deterministic search on the summed squared force residual: a grid over
the free unknowns zooms onto its best cell, then golden sections refine each
one.  The objective evaluates many (efficiency, cap) points at once, one
numpy lane each, on ``cyclic.run_lanes``: a whole zoom grid is one call, a
golden-section point a one-lane call.  Forces are the fitted quantity
because they are what a load cell measures; energies are derived by
trapezoidal work integration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cyclic import LANE_STOPS, StopReason, run_lanes
from .errors import DataError, DomainError
from .model import CompressionPolicy, Configuration, SpringParams, spring_energy

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

#: Relative slack above 1.0 tolerated in a measured energy-retention ratio
#: before it is reported as inconsistent data.
RATIO_TOL = 1e-9

#: Search box of a fitted efficiency.
_EFFICIENCY_BOX = (0.05, 1.0)
#: Zooms of the fit grid onto its best cell, after the first grid.
_ZOOMS = 3
#: Most lane-samples the objective holds in one temporary array.
_BLOCK_ELEMENTS = 1 << 14
_SLACK = LANE_STOPS.index(StopReason.ENGAGED_ONLY)


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
    grid_points: int = 17,
) -> FitReport:
    """Fit the loss model to measured cycles by least-squares on force.

    The objective (see ``objective``) is the sum of squared differences
    between simulated and measured hip forces, each resampled onto the
    other's displacements.  A fitted efficiency is searched in ``(0.05, 1)``,
    a fitted cap in ``(0.5, 1.25)`` times the largest measured force; the
    other parameter keeps its ``config`` value.  A grid over the free
    unknowns, evaluated in one objective call, zooms ``_ZOOMS`` times onto
    its best cell, then two rounds of golden sections refine each free
    unknown within one grid step, one point per call.  The search is fully
    deterministic for identical inputs and settings.

    Raises
    ------
    DomainError
        If ``grid_points`` is not an integer >= 2.
    DataError
        On fewer than two cycles, a cycle with fewer than two samples,
        nothing to fit, a force cap to fit under ``full_range`` (which
        ignores the cap), or a non-finite residual.
    """
    if not isinstance(grid_points, (int, np.integer)) or grid_points < 2:
        raise DomainError(f"grid_points must be an integer >= 2, got {grid_points!r}")
    if len(cycles) < 2:
        raise DataError("need at least 2 measured cycles to fit the loss model")
    if not (fit_efficiency or fit_force_cap):
        raise DataError("nothing to fit: at least one of efficiency/force_cap must be unknown")
    if fit_force_cap and config.policy is CompressionPolicy.FULL_RANGE:
        raise DataError("force cap has no effect under full_range: fit the efficiency only")
    ordered = sorted(cycles, key=lambda c: c.iteration)
    cycle_work = tuple(integrate_work(c) for c in ordered)
    f_max = max(float(np.max(c.hip_force)) for c in ordered)
    if not (math.isfinite(f_max) and f_max > 0):
        raise DataError("measured forces must be finite and positive to bound the cap search")
    eta, cap = config.loss.efficiency, config.force_cap
    eta_bounds = _EFFICIENCY_BOX if fit_efficiency else (eta, eta)
    cap_bounds = (0.5 * f_max, 1.25 * f_max) if fit_force_cap else (cap, cap)

    def at(e: float, c: float) -> float:
        return objective(ordered, config, [e], [c])[0][0]

    # The 2-unknown valley runs diagonally (a low cap trades against a high
    # efficiency), so axis-aligned descent alone crawls: zoom the grid onto
    # the best cell first, then polish with golden sections per free axis.
    eta_box, cap_box = eta_bounds, cap_bounds
    for zoom in range(_ZOOMS + 1):
        eta_grid = np.linspace(*eta_box, grid_points if fit_efficiency else 1)
        cap_grid = np.linspace(*cap_box, grid_points if fit_force_cap else 1)
        etas, caps = np.meshgrid(eta_grid, cap_grid, indexing="ij")
        values = objective(ordered, config, etas.ravel(), caps.ravel())[0].reshape(etas.shape)
        if zoom == 0:
            flat = _is_flat(values)
        i, j = np.unravel_index(int(np.argmin(values)), values.shape)
        eta, cap = float(eta_grid[i]), float(cap_grid[j])
        eta_step, cap_step = (
            float(g[1] - g[0]) if len(g) > 1 else 0.0 for g in (eta_grid, cap_grid)
        )
        eta_box = _clip(eta_bounds, eta, 1.5 * eta_step)
        cap_box = _clip(cap_bounds, cap, 1.5 * cap_step)
    for _ in range(2):
        if fit_efficiency:
            eta = _golden_min(lambda e: at(e, cap), *_clip(eta_bounds, eta, eta_step))
        if fit_force_cap:
            cap = _golden_min(lambda c: at(eta, c), *_clip(cap_bounds, cap, cap_step))

    (sse,), (n_points,) = objective(ordered, config, [eta], [cap])
    if not math.isfinite(sse):
        raise DataError("non-finite force residual at the fitted parameters")
    try:
        ratios = tuple(retention_ratios(ordered, config.spring))
    except DataError:
        ratios = ()  # lengths inconsistent with the spring; forces still fit
    return FitReport(
        efficiency=eta,
        force_cap=cap,
        cycle_work=cycle_work,
        residual_rms=math.sqrt(sse / n_points) if n_points else 0.0,
        retention_ratios=ratios,
        flat_objective=flat,
    )


def objective(
    cycles: Sequence[MeasuredCycle], config: Configuration, eta: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Summed squared force error and compared-point count of each lane.

    Lane ``l`` runs ``config`` with efficiency ``eta[l]`` and force cap
    ``cap[l]`` (1-D, of one length) for ``len(cycles)`` squats on
    ``cyclic.run_lanes`` and compares squat ``i``'s stroke with cycle ``i``
    both ways, with endpoint clamping outside either stroke:

    * measured onto model: the measured trace ``np.interp``-olated at the
      stroke's ``sample_count`` samples, one call per cycle and block;
    * model onto measured: the simulated force is affine in deformation
      within a stroke, so it is that line at each measured displacement
      clamped into the stroke, in closed form.

    One-way resampling onto the (possibly shorter) simulated stroke would
    ignore the measured tail a too-low cap fails to reach, leaving only the
    product sqrt(efficiency)*cap identifiable on cap-limited cycles.  A lane
    whose run raises (a first-squat stall, a retraction beyond the hip)
    treats every measured force as unexplained, and so does a cycle after
    its run ended; this keeps the objective finite and the search well
    defined.

    Strokes are sampled ``_BLOCK_ELEMENTS // max(sample_count, longest
    cycle)`` (cycle, lane) pairs at a time, so temporaries stay within
    ``_BLOCK_ELEMENTS`` elements however many lanes there are.  The sums
    equal those of ``simulate`` and ``np.interp`` on each lane to round-off.
    """
    geom, spring = config.leg, config.spring
    seg, lstand, dlmax = geom.segment_length, geom.standing_length, geom.max_deformation
    k, s0, samples = spring.stiffness, spring.free_length, config.sample_count
    run = run_lanes(config, eta, cap, len(cycles))
    # Cycle i of a lane is compared with squat i while i < squats, unless the
    # run raised; a slack (ENGAGED_ONLY) squat has zero force at 0 and dlmax.
    modelled = np.arange(len(cycles))[:, None] < np.where(run.raised, 0, run.squats)
    slack = modelled & (run.stop == _SLACK)
    strokes = modelled & ~slack

    # Every (cycle, lane) pair is sampled as a stroke, in blocks of rows;
    # pairs without a stroke are replaced below.  Pair i * lanes + l is
    # cycle i of lane l, so a block may span cycles.
    ratio = run.x.reshape(-1) / seg
    slope = ratio * k
    start, stop = run.dead_band.reshape(-1), run.travel.reshape(-1)
    step = (stop - start) / (samples - 1)
    steps = np.arange(samples, dtype=float)
    lanes = modelled.shape[1]
    rows = max(1, _BLOCK_ELEMENTS // max(samples, *(len(c.hip_displacement) for c in cycles)))
    # Squared errors of each pair: measured onto model, and model onto measured.
    onto_model, onto_measured = np.empty(len(ratio)), np.empty(len(ratio))
    for a in range(0, len(ratio), rows):
        b = min(a + rows, len(ratio))
        r, m = ratio[a:b, None], slope[a:b, None]
        # np.linspace's arithmetic, one stroke per row, so that np.interp's
        # search walks each stroke in order.
        grid = steps * step[a:b, None] + start[a:b, None]
        grid[:, -1] = stop[a:b]
        model = m * (s0 - r * (lstand - grid))
        for i in range(a // lanes, (b - 1) // lanes + 1):
            d, f = cycles[i].hip_displacement, cycles[i].hip_force
            lo, hi = max(i * lanes, a) - a, min(i * lanes + lanes, b) - a
            error = model[lo:hi] - np.interp(grid[lo:hi], d, f)
            onto_model[a + lo : a + hi] = np.vecdot(error, error)
            # The line rises with d, so clamping it to the stroke's end forces
            # is clamping d into the stroke.
            line = m[lo:hi] * (s0 - r[lo:hi] * (lstand - d))
            error = np.minimum(np.maximum(line, model[lo:hi, :1]), model[lo:hi, -1:]) - f
            onto_measured[a + lo : a + hi] = np.vecdot(error, error)
    onto_model = onto_model.reshape(modelled.shape)
    onto_measured = onto_measured.reshape(modelled.shape)
    if not strokes.all():
        # Without a stroke every measured force is unexplained.
        squared = [[np.sum(c.hip_force**2)] for c in cycles]
        ends = [np.interp([0, dlmax], c.hip_displacement, c.hip_force) for c in cycles]
        at_ends = [[np.sum(f**2)] for f in ends]
        onto_model = np.where(strokes, onto_model, np.where(slack, at_ends, 0.0))
        onto_measured = np.where(strokes, onto_measured, squared)

    sse = (onto_model + onto_measured).sum(axis=0)
    measured = sum(len(c.hip_displacement) for c in cycles)
    return sse, measured + samples * strokes.sum(axis=0) + 2 * slack.sum(axis=0)


def _is_flat(values: np.ndarray, rtol: float = 1e-9) -> bool:
    lo = float(np.min(values))
    hi = float(np.max(values))
    return hi - lo <= rtol * (1.0 + abs(lo))


def _clip(box: tuple[float, float], centre: float, half_width: float) -> tuple[float, float]:
    """The interval ``centre`` +- ``half_width``, cut to ``box``."""
    return max(box[0], centre - half_width), min(box[1], centre + half_width)


def _golden_min(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of a unimodal function on [a, b], a <= b."""
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
