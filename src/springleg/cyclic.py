"""Multi-squat energy accumulation: squat, lock, retract, repeat.

Each iteration compresses the spring at a fixed spring position until the
hip force reaches the force cap (or the leg range or the solid spring stops
it first).  The spring is then locked at its compressed length while the leg
extends, and the endpoints retract toward the knee so that the next squat
starts within the force cap again.  Losses enter as an energy efficiency per
lock/retract transition, and a ratchet pitch quantizes the retracted
position, leaving a force-free dead band at the start of the next squat.
The squat and the lock/retract step are one plain-float map, streamed by
``Run``; ``simulate`` keeps its per-squat columns, and records and sampled
strokes are derived from the columns only when read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .baseline import e1_max
from .errors import GeometryError, SimulationError, StallError
from .model import (
    Configuration,
    Trajectory,
    hip_force,
    initial_spring_length,
    spring_energy,
    CompressionPolicy,
)


class StopReason(enum.Enum):
    """Why a squat stroke ended."""

    FORCE_CAP = "force_cap"  # hip force reached the cap
    LEG_RANGE = "leg_range"  # leg deformation range exhausted
    SPRING_SOLID = "spring_solid"  # spring fully compressed
    ENGAGED_ONLY = "engaged_only"  # dead band consumed the stroke, no compression


class Termination(enum.Enum):
    """Why a run ended; a stalled run stalled on the squat after its last record."""

    FULL_COMPRESSION = "full_compression"  # spring within tol_abs of solid
    CONVERGED = "converged"  # net energy gain below tol_gain
    STALLED = "stalled"  # the next squat could not compress
    ITERATION_CAP = "iteration_cap"  # max_iterations squats run


@dataclass(frozen=True)
class CycleState:
    """Spring position and lengths of squat ``iteration``.

    ``dead_band`` is the leg travel at the start of the squat during which
    ratchet-induced cable slack keeps the hip force at zero; it is 0 for
    continuous locking.
    """

    iteration: int
    spring_position: float  # m, distance from the knee
    spring_length_start: float  # m, pre-squat spring length
    spring_length_end: float  # m, post-squat spring length
    dead_band: float  # m


@dataclass(frozen=True)
class SquatRecord:
    """Completed-squat snapshot with forces, energies, and the stop label."""

    state: CycleState
    start_force: float  # hip force when the spring engages, N
    end_force: float  # hip force at the bottom of the stroke, N
    energy_before: float  # J
    energy_after: float  # J
    leg_travel_used: float  # m, dead band plus engaged stroke
    stop_reason: StopReason


class Squats(NamedTuple):
    """Per-squat columns of a run, one entry per squat, in the field order of
    the tuples ``Run`` yields."""

    x: tuple[float, ...]  # m, spring position
    s_start: tuple[float, ...]  # m, pre-squat spring length
    dead_band: tuple[float, ...]  # m
    s_end: tuple[float, ...]  # m, post-squat spring length
    stop: tuple[StopReason, ...]
    f_start: tuple[float, ...]  # N, hip force when the spring engages
    f_end: tuple[float, ...]  # N, hip force at the bottom of the stroke
    e_before: tuple[float, ...]  # J
    e_after: tuple[float, ...]  # J
    travel: tuple[float, ...]  # m, dead band plus engaged stroke


@dataclass(frozen=True)
class SimResult:
    """Full record of a multi-squat run.

    Only the per-squat columns are stored.  ``records`` and ``trajectories``
    are built from them on first access and kept.
    """

    squats: Squats
    normalization: tuple[float, float]  # (e1_max, force_cap)
    config: Configuration
    termination: Termination

    @property
    def final_energy(self) -> float:
        return self.squats.e_after[-1]

    @property
    def final_spring_length(self) -> float:
        return self.squats.s_end[-1]

    @property
    def iterations_to_full_compression(self) -> int | None:
        """Squats run if the run ended in full compression, else None."""
        if self.termination is Termination.FULL_COMPRESSION:
            return len(self.squats.x)
        return None

    @cached_property
    def records(self) -> tuple[SquatRecord, ...]:
        """One ``SquatRecord`` per squat, in run order."""
        records = []
        for n, squat in enumerate(zip(*self.squats), 1):
            x, s_start, dead_band, s_end, stop, f_start, f_end, e_before, e_after, travel = squat
            state = CycleState(n, x, s_start, s_end, dead_band)
            records.append(SquatRecord(state, f_start, f_end, e_before, e_after, travel, stop))
        return tuple(records)

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """Sampled stroke of every squat, in run order.

        Only the engaged stroke is sampled, since the dead band carries no
        force and no spring motion; an ENGAGED_ONLY squat is slack throughout.
        """
        config, q = self.config, self.squats
        return tuple(
            [
                _stroke(config, x, 0.0, travel, s_start)
                if stop is StopReason.ENGAGED_ONLY
                else _stroke(config, x, dead_band, travel)
                for x, s_start, dead_band, stop, travel in zip(
                    q.x, q.s_start, q.dead_band, q.stop, q.travel
                )
            ]
        )


@dataclass(frozen=True)
class ReleaseProfile:
    """Quasi-static extension of the locked spring at a fixed position."""

    trajectory: Trajectory
    peak_force: float  # hip force at the start of the release, N
    released_energy: float  # spring energy drop over the extension, J


def _recurrence(config: Configuration):
    """The squat map of ``config`` on plain floats, as two closures.

    ``squat(n, x, s_start, dead_band)`` compresses at fixed position ``x`` to
    the stop with the largest spring length: force cap (not under FULL_RANGE),
    leg range or solid spring, ties going FORCE_CAP, LEG_RANGE, SPRING_SOLID.
    It returns the squat's tuple (see ``Squats``) and raises ``StallError`` if
    no stop lies below ``s_start``.  ``retract(n, s_end)`` returns the next
    ``(x, s_start, dead_band)``: the locked length relaxes to ``s0 -
    sqrt(efficiency) * (s0 - s_end)``, so the stored energy scales by exactly
    ``efficiency``, at the standing-consistent position, which a ratchet
    rounds away from the knee onto its tooth grid (never past the hip).
    """
    geom, spring = config.leg, config.spring
    seg, lstand, dlmax = geom.segment_length, geom.standing_length, geom.max_deformation
    k, s0, solid = spring.stiffness, spring.free_length, spring.solid_length
    cap = config.force_cap if config.policy is CompressionPolicy.FORCE_LIMITED else None
    root_efficiency = math.sqrt(config.loss.efficiency)
    pitch = config.loss.ratchet_pitch
    # Bound once: looking up an enum member costs more than a squat's arithmetic.
    by_cap, by_range, by_solid = StopReason.FORCE_CAP, StopReason.LEG_RANGE, StopReason.SPRING_SOLID

    def squat(n: int, x: float, s_start: float, dead_band: float) -> tuple:
        if s_start <= solid:
            raise StallError(f"squat {n}: spring already at solid length {solid}")
        ratio = x / seg
        s_range = ratio * (lstand - dlmax)
        # A later stop binds only when strictly larger, which gives the tie order.
        if cap is None:
            s_end, stop = s_range, by_range
        else:
            try:
                s_end = s0 - cap / (k * ratio)
            except ZeroDivisionError:  # k * ratio underflowed: too soft ever to reach the cap
                s_end = -math.inf
            stop = by_cap
            if s_range > s_end:
                s_end, stop = s_range, by_range
        if solid > s_end:
            s_end, stop = solid, by_solid

        if s_end < s_start:
            f_start, f_end = ratio * k * (s0 - s_start), ratio * k * (s0 - s_end)
            e_before, e_after = spring_energy(s_start, spring), spring_energy(s_end, spring)
            travel = lstand - s_end * seg / x
            return x, s_start, dead_band, s_end, stop, f_start, f_end, e_before, e_after, travel
        if stop is by_range and dead_band > 0:
            # The quantized retraction left so much slack that the leg range is
            # used up before (or exactly when) the cable re-tensions.
            force = hip_force(x, s_start, geom, spring)
            energy = spring_energy(s_start, spring)
            stop = StopReason.ENGAGED_ONLY
            return x, s_start, dead_band, s_start, stop, force, force, energy, energy, dlmax
        raise StallError(
            f"squat {n}: no compression possible below spring length "
            f"{s_start} (binding stop: {stop.value} at {s_end})"
        )

    def retract(n: int, s_end: float) -> tuple[float, float, float]:
        s_next = s0 - root_efficiency * (s0 - s_end)
        x_target = s_next * seg / lstand
        if x_target > seg:
            raise SimulationError(
                f"retraction after squat {n} needs spring position {x_target} "
                f"beyond the hip ({seg}): the locked spring (length {s_next}) "
                "no longer fits the standing leg"
            )
        if pitch > 0:
            # The first tooth sits one pitch from the knee, never at it.
            x_next = min(pitch * max(math.ceil(x_target / pitch), 1), seg)
            return x_next, s_next, lstand - s_next * seg / x_next
        return x_target, s_next, 0.0

    return squat, retract


class Run:
    """The squats of one run, streamed as plain-float tuples.

    Iterating yields one tuple per squat, in the field order of ``Squats``,
    and keeps nothing.  Termination, in order of precedence per iteration:

    * full compression: post-squat spring length within ``tol_abs`` of the
      solid length;
    * convergence: net stored-energy progress since the previous squat below
      ``tol_gain`` (this detects both the vanishing-progress regime of the
      ideal mechanism and the loss/regain fixed point of a lossy one);
    * a stall on any squat after the first (no compression possible);
    * ``max_iterations`` squats, after the last of which nothing retracts.

    A stall on the first squat raises ``StallError``, since the
    configuration can accumulate nothing at all.  ``termination`` says why
    the run ended once the iteration is exhausted.
    """

    def __init__(self, config: Configuration, max_iterations: int) -> None:
        self.config, self.max_iterations = config, max_iterations
        self.termination: Termination | None = None

    def __iter__(self):
        config, budget = self.config, self.max_iterations
        squat, retract = _recurrence(config)
        full_length = config.spring.solid_length + config.tol_abs
        tol_gain = config.tol_gain
        x, s_start, dead_band = config.initial_spring_position, initial_spring_length(config), 0.0
        previous = None
        for n in range(1, budget + 1):
            try:
                done = squat(n, x, s_start, dead_band)
            except StallError:
                if n == 1:
                    raise
                self.termination = Termination.STALLED
                return
            yield done
            _, _, _, s_end, _, _, _, e_before, e_after, _ = done
            if s_end <= full_length:
                self.termination = Termination.FULL_COMPRESSION
                return
            if e_after - (e_before if previous is None else previous) < tol_gain:
                self.termination = Termination.CONVERGED
                return
            if n < budget:
                x, s_start, dead_band = retract(n, s_end)
            previous = e_after
        self.termination = Termination.ITERATION_CAP


#: ``LaneRun.stop`` codes index this tuple: FORCE_CAP, LEG_RANGE, SPRING_SOLID, ENGAGED_ONLY.
LANE_STOPS = tuple(StopReason)


class LaneRun(NamedTuple):
    """The squats of many runs of one configuration, one lane per run.

    The per-squat arrays have shape ``(max_iterations, lanes)``: row ``n``
    holds squat ``n + 1`` in the units of ``Squats``, and ``stop`` indexes
    ``LANE_STOPS``.  A lane's rows from ``squats`` on mean nothing.
    """

    x: np.ndarray
    s_start: np.ndarray
    dead_band: np.ndarray
    s_end: np.ndarray
    stop: np.ndarray
    travel: np.ndarray
    squats: np.ndarray  # squats ``Run`` yields in each lane
    raised: np.ndarray  # True where ``Run`` raises: first-squat stall or retraction beyond the hip


def run_lanes(
    config: Configuration, efficiency: np.ndarray, force_cap: np.ndarray, max_iterations: int
) -> LaneRun:
    """``Run`` of ``config`` with each lane's efficiency and force cap, on
    numpy lanes.

    Each lane follows the arithmetic and the rules of ``_recurrence`` and
    ``Run`` in their order, so its squats equal ``Run``'s bit for bit and it
    stops where its run stops.  The loop carries only the map: every lane
    squats and retracts ``max_iterations`` times, values after its run ended
    mean nothing, and where each run ended is found afterwards from all
    squats at once.  ``efficiency`` and ``force_cap`` are 1-D arrays of one
    length and are not validated.
    """
    geom, spring = config.leg, config.spring
    seg, lstand, dlmax = geom.segment_length, geom.standing_length, geom.max_deformation
    k, s0, solid = spring.stiffness, spring.free_length, spring.solid_length
    pitch = config.loss.ratchet_pitch
    root_efficiency, cap = np.sqrt(efficiency), np.asarray(force_cap, dtype=float)
    lanes = root_efficiency.shape
    x = np.full(lanes, config.initial_spring_position)
    s_start = np.full(lanes, initial_spring_length(config))
    dead_band, slack = np.zeros(lanes), np.zeros(lanes, bool)
    s_cap = np.full(lanes, -np.inf)  # no cap stop under FULL_RANGE
    rows, slacks = [], []
    # Only the cap's division can divide by zero or overflow: where k * ratio
    # underflows, the cap is never reached and s_cap is -inf.
    with np.errstate(divide="ignore", over="ignore"):
        for n in range(max_iterations):
            ratio = x / seg
            s_range = ratio * (lstand - dlmax)
            if config.policy is CompressionPolicy.FORCE_LIMITED:
                s_cap = s0 - cap / (k * ratio)
            # The stop with the largest spring length binds; ties are equal lengths.
            s_end = np.maximum(np.maximum(s_range, s_cap), solid)
            if pitch > 0:  # only a ratchet leaves a dead band
                # The leg range binds at or above s_start behind it: ENGAGED_ONLY,
                # unless the spring is already solid, which stalls first.
                slack = (s_range > s_cap) & (s_range >= solid) & (s_end >= s_start)
                slack &= (dead_band > 0) & (s_start > solid)
                s_end = np.where(slack, s_start, s_end)
            rows.append((x, s_start, dead_band, s_end, s_range, s_cap))
            slacks.append(slack)
            if n + 1 < max_iterations:
                s_start = s0 - root_efficiency * (s0 - s_end)
                x = s_start * seg / lstand
                if pitch > 0:
                    # The first tooth sits one pitch from the knee, never at it.
                    x = np.minimum(pitch * np.maximum(np.ceil(x / pitch), 1.0), seg)
                    dead_band = lstand - s_start * seg / x
    # One contiguous (squats, lanes) array per column.
    x, s_start, dead_band, s_end, s_range, s_cap = np.array(rows).transpose(1, 0, 2).copy()
    slack = np.array(slacks)
    squat = (s_end < s_start) | slack  # else the squat stalls
    travel = lstand - s_end * seg / x
    travel[slack] = dlmax
    d = s0 - np.concatenate((s_start[:1], s_end))
    energy = 0.5 * k * d * d  # spring_energy's order of operations
    gain = energy[1:] - energy[:-1]
    # Full compression, then tol_gain, end the run after a squat; then the
    # retraction may need a position beyond the hip.
    going = squat & (s_end > solid + config.tol_abs) & (gain >= config.tol_gain)
    beyond = s_start[1:] * seg / lstand > seg
    reached = np.ones(squat.shape, bool)  # the run gets to row n's squat
    np.logical_and.accumulate(going[:-1] & ~beyond, axis=0, out=reached[1:])
    # A first-squat stall and a retraction beyond the hip raise in ``Run``.
    raised = ~squat[0] | (reached[:-1] & going[:-1] & beyond).any(axis=0)
    stop = np.where(solid > np.maximum(s_range, s_cap), 2, s_range > s_cap)
    stop[slack] = 3
    squats = (reached & squat).sum(axis=0)
    return LaneRun(x, s_start, dead_band, s_end, stop, travel, squats, raised)


def simulate(config: Configuration) -> SimResult:
    """Alternate squats and lock/retract transitions until done.

    See ``Run`` for the termination rules.  The result is a pure function
    of the configuration: identical configurations give bit-identical
    results.
    """
    run = Run(config, config.max_iterations)
    # Through a list: ``*run`` would grow a tuple by resizing, which fragments the heap.
    squats = Squats(*zip(*list(run)))
    return SimResult(
        squats=squats,
        normalization=(e1_max(config.body, config.leg), config.force_cap),
        config=config,
        termination=run.termination,
    )


def release_profile(
    spring_length: float, config: Configuration, x_release: float | None = None
) -> ReleaseProfile:
    """Quasi-static extension from a locked spring at position ``x_release``.

    The leg starts at the (deep) posture where the spring at ``x_release``
    spans its locked length and extends until the spring reaches its free
    length or the leg reaches standing, whichever comes first.  Resetting to
    ``x_release = segment_length`` (the default) yields the largest
    assistive hip force the stored energy can provide.

    Raises
    ------
    GeometryError
        If the starting posture lies outside the leg's deformation range.
    """
    geom, spring = config.leg, config.spring
    if x_release is None:
        x_release = geom.segment_length
    if not 0 < x_release <= geom.segment_length:
        raise GeometryError(
            f"x_release={x_release} outside (0, segment_length={geom.segment_length}]"
        )
    if not spring.solid_length <= spring_length <= spring.free_length:
        raise GeometryError(
            f"locked spring length {spring_length} outside "
            f"[{spring.solid_length}, {spring.free_length}]"
        )
    ratio = x_release / geom.segment_length
    leg_start = spring_length / ratio
    if leg_start < geom.standing_length - geom.max_deformation:
        raise GeometryError(
            f"release posture needs leg length {leg_start}, below the reachable minimum "
            f"{geom.standing_length - geom.max_deformation}: release at a smaller x_release"
        )

    s_end = min(spring.free_length, ratio * geom.standing_length)
    leg_end = s_end / ratio
    return ReleaseProfile(
        trajectory=_stroke(
            config, x_release, geom.standing_length - leg_start, geom.standing_length - leg_end
        ),
        peak_force=hip_force(x_release, spring_length, geom, spring),
        released_energy=spring_energy(spring_length, spring) - spring_energy(s_end, spring),
    )


def _stroke(
    config: Configuration, x: float, start: float, stop: float, slack_length: float | None = None
) -> Trajectory:
    """Quasi-static stroke at spring position ``x``, sampled uniformly in leg
    deformation from ``start`` to ``stop``.

    With ``slack_length`` the cable stays slack over the stroke: the spring
    keeps that length and loads nothing, so the two endpoints suffice.
    """
    spring = config.spring
    if slack_length is not None:
        energy = spring_energy(slack_length, spring)
        return Trajectory(
            np.array([start, stop]), np.full(2, slack_length), np.zeros(2), np.full(2, energy)
        )
    ratio = x / config.leg.segment_length
    deformation = np.linspace(start, stop, config.sample_count)
    s_samples = ratio * (config.leg.standing_length - deformation)
    f_samples = ratio * spring.stiffness * (spring.free_length - s_samples)
    e_samples = 0.5 * spring.stiffness * (spring.free_length - s_samples) ** 2
    return Trajectory(deformation, s_samples, f_samples, e_samples)
