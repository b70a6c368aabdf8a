"""Recover loss-model parameters from measured force-displacement cycles.

Measured (or synthetic) per-squat hip force traces are compared against
simulated strokes; the transition efficiency and the force cap are found by
one deterministic search on the summed squared force residual: one grid,
then Brent's bounded minimiser across and along the valley that cap-limited
squats leave, sqrt(efficiency) * cap = const.  Each (efficiency, cap) point
is one lane, evaluated one way for the grid and the minimiser alike: it runs
the one squat map, ``cyclic.Run``, its strokes are sampled by the one stroke
sampler, ``cyclic._strokes``, and its cycles' errors are added left to right.
The grid needs only its lowest lane, so it visits lanes in the order of an
exact lower bound on their last cycle's error and compares a lane only while
it can still be the lowest.  Forces are fitted because a load cell measures
them; energies are derived by trapezoidal work integration.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .cyclic import _BLOCK, _SLACK, Run, _strokes
from .errors import DataError, DomainError, SimulationError
from .model import CompressionPolicy, Configuration, SpringParams, _integer
from .model import _real, _repr
from .model import spring_energy

#: Brent's golden-section fraction of the bracket, 1/phi^2.
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

#: Relative slack above 1.0 tolerated in a measured energy-retention ratio
#: before it is reported as inconsistent data.
RATIO_TOL = 1e-9

#: Search box of a fitted efficiency.
_EFFICIENCY_BOX = (0.05, 1.0)
#: Grid points along each fitted unknown's box.
_GRID_POINTS = 17
#: Relative spread of objective values within which a fit grid is flat.
_FLAT_RTOL = 1e-9
#: The grid's bound sums the measured points this picks, less this share of the sum.
_BOUND_PICK, _BOUND_RTOL = slice(None, None, 8), 1e-9


@dataclass(frozen=True)
class MeasuredCycle:
    """One measured squat: ordered (hip displacement, hip force) samples.

    ``spring_length_end`` is the locked spring length measured after the
    squat; ``spring_length_start`` the length observed when the next squat
    begins.  Both are optional and only needed for direct energy-retention
    estimates; each given one must be a finite real number, stored as a
    float.  ``iteration`` is an integer, which orders the cycles.
    """

    iteration: int
    hip_displacement: np.ndarray  # m, non-decreasing
    hip_force: np.ndarray  # N
    spring_length_start: float | None = None
    spring_length_end: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "iteration", _integer("iteration", self.iteration, DataError))
        cycle = f"cycle {_repr(self.iteration)}"  # an int past the digit limit prints as its type
        for name in ("hip_displacement", "hip_force"):
            try:
                trace = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError):
                trace = None
            if trace is None or trace.ndim != 1:
                raise DataError(f"{cycle}: {name} must be a 1-D array of numbers")
            object.__setattr__(self, name, trace)
        if len(self.hip_displacement) == 0:
            raise DataError(f"{cycle}: no samples")
        if len(self.hip_displacement) != len(self.hip_force):
            raise DataError(f"{cycle}: displacement/force length mismatch")
        if not (np.isfinite(self.hip_displacement).all() and np.isfinite(self.hip_force).all()):
            raise DataError(f"{cycle}: displacements and forces must be finite")
        if np.any(np.diff(self.hip_displacement) < 0):
            raise DataError(f"{cycle}: displacements must be non-decreasing")
        for name in ("spring_length_start", "spring_length_end"):
            if (value := getattr(self, name)) is None:
                continue
            length = _real(f"{cycle}: {name}", value, DataError)
            if not math.isfinite(length):
                raise DataError(f"{cycle}: {name} must be None or a finite number, got {length}")
            object.__setattr__(self, name, length)


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
    """Trapezoidal work integral of the measured force over displacement;
    ``DataError`` if ``cycle`` is no ``MeasuredCycle``, has fewer than two
    samples or its integral overflows."""
    if not isinstance(cycle, MeasuredCycle):
        raise DataError(f"cycle must be a MeasuredCycle, got {type(cycle).__name__}")
    if len(cycle.hip_displacement) < 2:
        raise DataError(f"cycle {_repr(cycle.iteration)}: need at least 2 samples to integrate")
    with np.errstate(over="ignore", invalid="ignore"):
        work = float(np.trapezoid(cycle.hip_force, cycle.hip_displacement))
    if not math.isfinite(work):
        raise DataError(f"cycle {_repr(cycle.iteration)}: work integral overflows, got {work}")
    return work


def retention_ratios(cycles: Sequence[MeasuredCycle], spring: SpringParams) -> list[float]:
    """Energy ratio across each lock/retract transition, from measured spring lengths.

    Ratio n is the stored energy at the start of cycle n+1 over the stored
    energy locked in at the end of cycle n.  ``cycles`` that are no iterable of
    ``MeasuredCycle`` raise ``DataError``, a ``spring`` that is no
    ``SpringParams`` raises ``DomainError``.
    """
    if not isinstance(spring, SpringParams):
        raise DomainError(f"spring must be a SpringParams, got {type(spring).__name__}")
    ordered = sorted(_as_cycles(cycles), key=lambda c: c.iteration)
    ratios: list[float] = []
    for before, after in zip(ordered, ordered[1:]):
        if before.spring_length_end is None or after.spring_length_start is None:
            continue
        try:
            e_locked = spring_energy(before.spring_length_end, spring)
            e_next = spring_energy(after.spring_length_start, spring)
        except DomainError as exc:
            raise DataError(
                f"transition {_repr(before.iteration)}->{_repr(after.iteration)}: measured spring "
                f"length outside the spring's range ({exc})"
            ) from exc
        if e_locked <= 0:
            continue
        ratio = e_next / e_locked
        if ratio > 1.0 + RATIO_TOL:
            warnings.warn(
                f"transition {_repr(before.iteration)}->{_repr(after.iteration)}: retention ratio "
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
        If ``cycles`` is no iterable of ``MeasuredCycle``, or fewer than two
        consecutive cycles carry the spring lengths needed to evaluate a
        transition.
    DomainError
        If ``spring`` is no ``SpringParams``.
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
) -> FitReport:
    """Fit the loss model to measured cycles by least-squares on force.

    The objective (see ``_errors``) is the sum of squared differences
    between simulated and measured hip forces, each resampled onto the
    other's displacements.  A fitted efficiency is searched in ``(0.05, 1)``,
    a fitted cap in ``(0.5, 1.25)`` times the largest measured force; the
    other parameter keeps its ``config`` value.  One grid's lowest point
    (``_lowest``, ``_GRID_POINTS`` per fitted unknown) is refined by Brent's
    bounded minimiser (``_brent_min``, tolerance 1e-10) within one grid
    step: a cap-limited squat pins only u = sqrt(efficiency) * cap, so each
    of three rounds (two for one unknown) varies the efficiency at a fixed
    cap, then the cap at a fixed u.  The deterministic search returns the
    lowest point it evaluated.

    Raises
    ------
    DataError
        On cycles that are not an iterable of ``MeasuredCycle``, fewer than
        two cycles, a cycle with fewer than two samples or a work integral
        that overflows, nothing to fit, a force cap to fit under
        ``full_range`` (which ignores the cap), a cap search box that
        overflows or is subnormal, or a non-finite residual (forces whose
        squares overflow).
    DomainError
        If ``config`` is no ``Configuration``.
    """
    cycles = _as_cycles(cycles)
    if not isinstance(config, Configuration):
        raise DomainError(f"config must be a Configuration, got {type(config).__name__}")
    if len(cycles) < 2:
        raise DataError("need at least 2 measured cycles to fit the loss model")
    if not (fit_efficiency or fit_force_cap):
        raise DataError("nothing to fit: at least one of efficiency/force_cap must be unknown")
    if fit_force_cap and config.policy is CompressionPolicy.FULL_RANGE:
        raise DataError("force cap has no effect under full_range: fit the efficiency only")
    ordered = sorted(cycles, key=lambda c: c.iteration)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as a non-finite residual
        cycle_work = tuple(map(integrate_work, ordered))
        f_max = max(float(np.max(c.hip_force)) for c in ordered)
        if not (math.isfinite(f_max) and f_max > 0):
            raise DataError("measured forces must be finite and positive to bound the cap search")
        eta, cap = config.loss.efficiency, config.force_cap
        eta_bounds = _EFFICIENCY_BOX if fit_efficiency else (eta, eta)
        cap_bounds = (0.5 * f_max, 1.25 * f_max) if fit_force_cap else (cap, cap)
        # 1.25 * f_max may overflow; a subnormal box (0.5 * 5e-324 is 0) has too few floats.
        if fit_force_cap and not sys.float_info.min <= cap_bounds[0] <= cap_bounds[1] < math.inf:
            raise DataError(f"cap search box {cap_bounds} must be finite, not subnormal")
        measured = _Measured(ordered, config)

        def at(e: float, c: float) -> float:
            sse, n = _point(measured, config, e, c)
            sse = float(sse)  # a numpy scalar would carry into the minimiser's points
            evaluated.append((sse, n, e, c))
            return sse

        eta_grid = np.linspace(*eta_bounds, _GRID_POINTS if fit_efficiency else 1)
        cap_grid = np.linspace(*cap_bounds, _GRID_POINTS if fit_force_cap else 1)
        etas, caps = np.meshgrid(eta_grid, cap_grid, indexing="ij")
        lowest, sse, n, flat = _lowest(measured, config, etas.ravel(), caps.ravel())
        eta, cap = float(etas.flat[lowest]), float(caps.flat[lowest])
        evaluated = [(sse, n, eta, cap)]  # (sse, points, efficiency, cap): grid's best, Brent's
        grids = (eta_grid, cap_grid)
        eta_step, cap_step = (float(g[1] - g[0]) if len(g) > 1 else 0.0 for g in grids)
        for _ in range(3 if fit_efficiency and fit_force_cap else 2):  # the valley bends a little
            if fit_efficiency:  # across the valley: u, so the efficiency, at a fixed cap
                eta = _brent_min(lambda e: at(e, cap), *_clip(eta_bounds, eta, eta_step))
            if fit_force_cap:  # along it: the cap at a fixed u, or at the known efficiency
                u = math.sqrt(eta) * cap
                held = (lambda c: (u / c) ** 2) if fit_efficiency else (lambda c: eta)
                lo, hi = _clip(cap_bounds, cap, cap_step)
                if fit_efficiency:  # keep (u / c)**2 in the efficiency box (0.05, 1)
                    lo, hi = max(lo, u), min(hi, u / math.sqrt(eta_bounds[0]))
                eta = held(cap := _brent_min(lambda c: at(held(c), c), lo, hi))

        sse, n_points, eta, cap = min(evaluated, key=lambda p: p[0])
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


def _as_cycles(cycles: object) -> list[MeasuredCycle]:
    """``cycles`` as a list; ``DataError`` unless it is an iterable of ``MeasuredCycle``."""
    cycles = list(cycles) if isinstance(cycles, Iterable) else [None]
    if not all(isinstance(c, MeasuredCycle) for c in cycles):
        raise DataError("cycles must be an iterable of MeasuredCycle objects")
    return cycles


class _Measured:
    """A fit's fixed cycle data: (d, f), l_stand - d, counts; lazily, errors without a stroke."""

    def __init__(self, cycles: Sequence[MeasuredCycle], config: Configuration) -> None:
        lstand, self.ends = config.leg.standing_length, (0, config.leg.max_deformation)
        self.traces = [(c.hip_displacement, c.hip_force) for c in cycles]
        self.leg_length = [lstand - d for d, _ in self.traces]
        self.points = sum(len(f) for _, f in self.traces)
        longest = max(config.sample_count, *(len(f) for _, f in self.traces))
        self.rows = max(1, _BLOCK // longest)  # strokes sampled at once

    squared = cached_property(lambda m: [np.sum(f**2) for _, f in m.traces])
    at_ends = cached_property(lambda m: [np.sum(np.interp(m.ends, *c) ** 2) for c in m.traces])


def _point(m: _Measured, config: Configuration, eta: float, cap: float) -> tuple[float, int]:
    """One lane's summed squared force error and compared-point count: ``config`` run
    with efficiency ``eta`` and force cap ``cap``, its cycles' ``_errors`` added left to
    right (``_sum``), equal to those of ``simulate`` and ``np.interp`` to round-off."""
    run = _run(m, config, eta, cap)
    return _sum(_errors(m, config, run, range(len(m.traces)))), _count(m, config, run)


def _run(m: _Measured, config: Configuration, eta: float, cap: float) -> list[tuple]:
    """The lane's squats, one per cycle at most, or none if its run raises."""
    try:
        return list(Run(config, len(m.traces), efficiency=eta, force_cap=cap))
    except SimulationError:
        return []


def _strokes_of(run: list[tuple], cycles) -> list[int]:
    """The listed cycles whose squat has a stroke: run, and not ENGAGED_ONLY (slack)."""
    return [i for i in cycles if i < len(run) and run[i][4] is not _SLACK]


def _errors(m: _Measured, config: Configuration, run: list[tuple], cycles) -> np.ndarray:
    """Squared force error of each listed cycle against the run's squat of it, resampled
    both ways with endpoint clamping: the measured trace ``np.interp``-olated at the
    stroke's samples (one ``_strokes`` call per block of ``m.rows`` strokes), and the
    model at each measured leg length clamped into the stroke (``_onto_measured``), as
    the force is a line within a stroke.  The first alone would ignore the measured tail
    a too-low cap fails to reach, leaving only sqrt(efficiency) * cap identifiable on
    cap-limited cycles.  A cycle whose lane's run raised (a first-squat stall, a
    retraction beyond the hip) or ended before it counts every measured force as
    unexplained; this keeps the sum finite and the search well defined."""
    errors = dict.fromkeys(cycles, 0.0)
    strokes = _strokes_of(run, errors)
    for i in errors.keys() - strokes:
        errors[i] = m.squared[i] + (m.at_ends[i] if i < len(run) else 0.0)
    for a in range(0, len(strokes), m.rows):
        part = strokes[a : a + m.rows]
        x, start, stop = np.array([itemgetter(0, 2, 9)(run[i]) for i in part]).T
        grid, model = _strokes(config, x, start, stop)[::2]
        onto_model = _onto_model(grid, model, [(j, *m.traces[i]) for j, i in enumerate(part)])
        for i, error, *stroke in zip(part, onto_model, x.tolist(), start.tolist(), stop.tolist()):
            e = _onto_measured(config, *stroke, m.traces[i][1], m.leg_length[i])
            errors[i] = error + np.vecdot(e, e)
    return np.array(list(errors.values()))


def _count(m: _Measured, config: Configuration, run: list[tuple]) -> int:
    """Compared points: every measured one, and a stroke's samples or a slack squat's two ends."""
    strokes = len(_strokes_of(run, range(len(run))))
    return m.points + (config.sample_count - 2) * strokes + 2 * len(run)


def _sum(errors: np.ndarray) -> float:
    """The errors added left to right, at every length (numpy's ``sum`` is pairwise from 8)."""
    return np.cumsum(errors)[-1]


def _lowest(measured: _Measured, config: Configuration, eta, cap) -> tuple[int, float, int, bool]:
    """The first lowest lane by ``_point``, its sse and point count, and whether
    ``_is_flat`` holds over the lanes, comparing only the lanes that can decide.

    Each lane's last cycle, which follows the most error, gets a lower bound: the model onto
    every 8th measured point (``_BOUND_PICK``), its leg length clamped into the stroke, less
    ``_BOUND_RTOL``.  Lanes are visited in ascending order of it, NaN last.  A lane is
    compared while that bound, and then its last cycle's error, is not above the lowest sse
    so far plus ``_FLAT_RTOL`` and round-off; its other cycles are compared only then.
    """
    lanes = zip(*(np.asarray(v, dtype=float).tolist() for v in (eta, cap)))
    runs = [_run(measured, config, e, c) for e, c in lanes]
    last = len(measured.traces) - 1
    f, leg_length = (v[_BOUND_PICK] for v in (measured.traces[last][1], measured.leg_length[last]))
    lower = np.full(len(runs), measured.squared[last])
    strokes = [lane for lane, run in enumerate(runs) if _strokes_of(run, [last])]
    rows = max(1, _BLOCK // len(f))
    for a in range(0, len(strokes), rows):  # blocks of lanes
        part = strokes[a : a + rows]
        x, start, stop = np.array([itemgetter(0, 2, 9)(runs[lane][last]) for lane in part]).T
        error = _onto_measured(config, *(v[:, None] for v in (x, start, stop)), f, leg_length)
        lower[part] = np.vecdot(error, error) * (1 - _BOUND_RTOL)
    sse, best = np.full(len(runs), np.inf), np.inf
    bound, round_off = np.inf, 1 + 4 * (last + 1) * np.finfo(float).eps
    for lane in np.argsort(lower, kind="stable").tolist():  # NaN bounds last, still compared
        if lower[lane] > bound or (error := _errors(measured, config, runs[lane], [last])) > bound:
            continue
        sse[lane] = _sum(np.append(_errors(measured, config, runs[lane], range(last)), error))
        if sse[lane] < best:
            best = sse[lane]
            bound = (best + _FLAT_RTOL * (1 + abs(best))) * round_off
    lowest = int(np.argmin(sse))
    return lowest, sse[lowest], _count(measured, config, runs[lowest]), _is_flat(sse)


def _onto_model(grid, model, traces) -> np.ndarray:
    """Squared error of each row of ``model`` against its ``(rows, d, f)`` trace at ``grid``."""
    at_grid = np.empty_like(grid)
    for rows, d, f in traces:
        at_grid[rows] = np.interp(grid[rows], d, f)
    error = model - at_grid
    return np.vecdot(error, error)


def _onto_measured(config: Configuration, x, start, stop, f, leg_length) -> np.ndarray:
    """Force error of the strokes at ``x`` from deformation ``start`` to ``stop`` at the
    measured leg lengths: their line at each length clamped into the stroke's range."""
    ratio, spring, lstand = x / config.leg.segment_length, config.spring, config.leg.standing_length
    leg_length = np.minimum(np.maximum(leg_length, lstand - stop), lstand - start)
    return ratio * spring.stiffness * (spring.free_length - ratio * leg_length) - f


def _is_flat(values: np.ndarray) -> bool:
    lo = float(np.min(values))
    hi = float(np.max(values))
    return hi - lo <= _FLAT_RTOL * (1.0 + abs(lo))


def _clip(box: tuple[float, float], centre: float, half_width: float) -> tuple[float, float]:
    """The interval ``centre`` +- ``half_width``, cut to ``box``."""
    return max(box[0], centre - half_width), min(box[1], centre + half_width)


def _brent_min(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Minimum of a unimodal function on [a, b], a <= b, within ``tol``.

    Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5): a parabola through the three best points so
    far, or a golden-section step where that parabola's minimum lies outside
    the bracket or does not shrink the step enough.  Steps are at least one
    ulp, so the bracket shrinks at every evaluation.
    """
    if b - a <= tol:
        return 0.5 * (a + b)
    x = w = v = a + _INV_PHI_SQ * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = 0.5 * tol + math.ulp(x)
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            return x
        p = q = r = 0.0
        if abs(e) > tol1:
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p if q > 0 else p), abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - (x + d)) < 2.0 * tol1:
                d = tol1 if x < m else -tol1
        else:
            e = (b if x < m else a) - x
            d = _INV_PHI_SQ * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
