"""Multi-squat energy accumulation: squat, lock, retract, repeat.

Each iteration compresses the spring at a fixed spring position until the
hip force reaches the force cap (or the leg range or the solid spring stops
it first).  The spring is then locked at its compressed length while the leg
extends, and the endpoints retract toward the knee so that the next squat
starts within the force cap again.  Losses enter as an energy efficiency per
lock/retract transition, and a ratchet pitch quantizes the retracted
position, leaving a force-free dead band at the start of the next squat.
The squat and the lock/retract step are one plain-float map, streamed by
``Run``; ``simulate`` keeps one scalar record per squat, and sampled strokes
are derived from the records only when read.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

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
    """State at the start of squat ``iteration`` (end state once ``spring_length_end`` is set).

    ``dead_band`` is the leg travel at the start of the squat during which
    ratchet-induced cable slack keeps the hip force at zero; it is 0 for
    continuous locking.
    """

    iteration: int
    spring_position: float  # m, distance from the knee
    spring_length_start: float  # m, pre-squat spring length
    spring_length_end: float | None = None  # m, post-squat spring length
    dead_band: float = 0.0  # m


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


@dataclass(frozen=True)
class SimResult:
    """Full record of a multi-squat run.

    Only the per-squat records are stored.  ``trajectories`` samples every
    squat's stroke from its record on first access and keeps the samples.
    """

    records: tuple[SquatRecord, ...]
    final_energy: float  # J
    iterations_to_full_compression: int | None  # None = not reached
    normalization: tuple[float, float]  # (e1_max, force_cap)
    config: Configuration
    termination: Termination

    @property
    def final_spring_length(self) -> float:
        return self.records[-1].state.spring_length_end

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """Sampled stroke of every squat, in record order.

        Only the engaged stroke is sampled, since the dead band carries no
        force and no spring motion; an ENGAGED_ONLY squat is slack throughout.
        """
        strokes = []
        for record in self.records:
            state = record.state
            x, stop = state.spring_position, record.leg_travel_used
            if record.stop_reason is StopReason.ENGAGED_ONLY:
                strokes.append(_stroke(self.config, x, 0.0, stop, state.spring_length_start))
            else:
                strokes.append(_stroke(self.config, x, state.dead_band, stop))
        return tuple(strokes)


@dataclass(frozen=True)
class ReleaseProfile:
    """Quasi-static extension of the locked spring at a fixed position."""

    trajectory: Trajectory
    peak_force: float  # hip force at the start of the release, N
    released_energy: float  # spring energy drop over the extension, J


def initial_state(config: Configuration) -> CycleState:
    """State before the first squat.

    The pre-squat spring length follows from the configured spring position
    at standing.  A length below the free length means the spring is
    pre-loaded and the hip sees a nonzero force before any squat.
    """
    s_start = initial_spring_length(config)
    return CycleState(
        iteration=1,
        spring_position=config.initial_spring_position,
        spring_length_start=s_start,
        dead_band=0.0,
    )


def start_force(state: CycleState, config: Configuration) -> float:
    """Hip force at the moment the spring engages in squat ``state.iteration``."""
    return hip_force(state.spring_position, state.spring_length_start, config.leg, config.spring)


def squat_step(state: CycleState, config: Configuration) -> tuple[CycleState, SquatRecord]:
    """Run one squat at fixed spring position and return the completed state.

    The spring length decreases with the leg until the first stop: hip force
    at the cap (skipped under the FULL_RANGE policy), leg range exhausted,
    or spring solid.  The stop with the largest spring length binds; exact
    ties are labeled FORCE_CAP over LEG_RANGE over SPRING_SOLID.

    Raises
    ------
    StallError
        If no stop candidate lies below the pre-squat spring length, i.e.
        zero compression is possible (spring already solid, or the start
        force already at the cap).  A ratchet dead band that eats the whole
        leg range instead yields a zero-compression ENGAGED_ONLY record.
    """
    if state.spring_length_end is not None:
        raise SimulationError(f"squat {state.iteration} already completed")
    squat, _ = _recurrence(config)
    n = state.iteration
    record = _record(n, squat(n, state.spring_position, state.spring_length_start, state.dead_band))
    return record.state, record


def lock_and_retract(state: CycleState, config: Configuration) -> CycleState:
    """Lock the spring, extend the leg, and retract the endpoints toward the knee.

    The spring length carries over scaled by the loss model: the next
    pre-squat length is ``s0 - sqrt(efficiency) * (s0 - s_end)``, so the
    stored energy across the transition scales by exactly ``efficiency``.
    With continuous locking the new position restores standing consistency
    ``x = s * segment_length / standing_length``; a positive ratchet pitch
    rounds the position away from the knee onto the tooth grid (never past
    the hip), and the resulting cable slack becomes a force-free dead band.
    """
    if state.spring_length_end is None:
        raise SimulationError(f"squat {state.iteration} has no completed compression to lock")
    _, retract = _recurrence(config)
    x, s_start, dead_band = retract(state.iteration, state.spring_length_end)
    return CycleState(state.iteration + 1, x, s_start, dead_band=dead_band)


def _recurrence(config: Configuration):
    """``squat(n, x, s_start, dead_band)`` -> squat tuple (see ``Run``) and
    ``retract(n, s_end)`` -> next ``(x, s_start, dead_band)`` of ``config``
    on plain floats: the maps behind ``squat_step`` and ``lock_and_retract``."""
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


#: Index of ``energy_after`` in the tuples a ``Run`` yields.
ENERGY_AFTER = 8


class Run:
    """The squats of one run, streamed as plain-float tuples.

    Iterating yields ``(x, s_start, dead_band, s_end, stop, f_start, f_end,
    e_before, e_after, leg_travel)`` per squat, the fields of ``SquatRecord``
    and its ``CycleState``, and keeps nothing.  Termination, in order of
    precedence per iteration:

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
        start = initial_state(config)
        x, s_start, dead_band = start.spring_position, start.spring_length_start, start.dead_band
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


def simulate(config: Configuration) -> SimResult:
    """Alternate squats and lock/retract transitions until done.

    See ``Run`` for the termination rules.  The result is a pure function
    of the configuration: identical configurations give bit-identical
    results.
    """
    run = Run(config, config.max_iterations)
    # Through a list: tuple() of a generator grows by resizing, which fragments the heap.
    records = tuple([_record(n, squat) for n, squat in enumerate(run, 1)])
    return SimResult(
        records=records,
        final_energy=records[-1].energy_after,
        iterations_to_full_compression=(
            len(records) if run.termination is Termination.FULL_COMPRESSION else None
        ),
        normalization=(e1_max(config.body, config.leg), config.force_cap),
        config=config,
        termination=run.termination,
    )


def _record(n: int, squat: tuple) -> SquatRecord:
    x, s_start, dead_band, s_end, stop, f_start, f_end, e_before, e_after, travel = squat
    state = CycleState(n, x, s_start, s_end, dead_band)
    return SquatRecord(state, f_start, f_end, e_before, e_after, travel, stop)


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
