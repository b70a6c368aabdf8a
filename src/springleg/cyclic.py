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
strokes are derived from the columns only when read, strokes a block at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import DomainError, GeometryError, SimulationError, StallError
from .model import CompressionPolicy, Configuration, SpringParams, Trajectory
from .model import _integer, _real, _repr, hip_force, initial_spring_length, spring_energy

if TYPE_CHECKING:
    import numpy as np


class StopReason(enum.Enum):
    """Why a squat stroke ended."""

    FORCE_CAP = "force_cap"  # hip force reached the cap
    LEG_RANGE = "leg_range"  # leg deformation range exhausted
    SPRING_SOLID = "spring_solid"  # spring fully compressed
    ENGAGED_ONLY = "engaged_only"  # dead band consumed the stroke, no compression


# Bound once: looking up an enum member costs more than a squat's arithmetic.
_BY_CAP, _BY_RANGE, _BY_SOLID = StopReason.FORCE_CAP, StopReason.LEG_RANGE, StopReason.SPRING_SOLID
_SLACK = StopReason.ENGAGED_ONLY  # the one stop whose squat has no stroke
#: Values per numpy temporary, in every numpy layer: a ``_trajectories`` block's samples
#: per array (one squat's, if it has more), the fit's stroke-samples, the speller's cells.
_BLOCK = 1 << 14


class Termination(enum.Enum):
    """Why a run ended; a stalled run stalled on the squat after its last record."""

    FULL_COMPRESSION = "full_compression"  # last squat on the solid stop, at capacity
    CONVERGED = "converged"  # gain below tol_gain, or a squat repeating its predecessor
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

    Only the per-squat columns are stored.  ``records`` is built from them on
    first access and kept; ``trajectories`` is sampled on every access.
    """

    squats: Squats
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

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """Sampled stroke of every squat, in run order, built anew on each read
        and not kept; emitters stream ``_trajectories`` instead."""
        return tuple(_trajectories(self))


def _trajectories(result: SimResult) -> Iterator[Trajectory]:
    """Sampled stroke of every squat of ``result``, in run order: the engaged
    stroke only, since the dead band carries no force and no spring motion.  An
    ENGAGED_ONLY squat is slack throughout, so two endpoints suffice.  One
    ``_sampled`` call serves a block of squats of at most ``_BLOCK``
    samples, so a consumer that keeps no stroke holds one block at a time."""
    import numpy as np

    config, q = result.config, result.squats
    size = max(1, _BLOCK // config.sample_count)
    for a in range(0, len(q.x), size):
        block = slice(a, a + size)
        engaged = [stop is not _SLACK for stop in q.stop[block]]
        x, start, stop = (np.array(c[block])[engaged] for c in (q.x, q.dead_band, q.travel))
        sampled = map(Trajectory, *_sampled(config, x, start, stop))
        for stroke, s_start, travel in zip(engaged, q.s_start[block], q.travel[block]):
            yield next(sampled) if stroke else _slack(config.spring, s_start, travel)


@dataclass(frozen=True)
class ReleaseProfile:
    """Quasi-static extension of the locked spring at a fixed position."""

    trajectory: Trajectory
    peak_force: float  # hip force at the start of the release, N
    released_energy: float  # spring energy drop over the extension, J


def _recurrence(
    config: Configuration, efficiency: float | None = None, force_cap: float | None = None
):
    """The squat map of ``config`` on plain floats, as three closures, with
    ``efficiency`` and ``force_cap`` in place of the configuration's if given.

    ``squat(n, x, s_start, dead_band)`` compresses at fixed position ``x`` to
    the stop with the largest spring length: force cap (infinite under FULL_RANGE),
    leg range or solid spring, ties going FORCE_CAP, LEG_RANGE, SPRING_SOLID.
    It returns the squat's tuple (see ``Squats``) and raises ``StallError`` if
    no stop lies below ``s_start``.  ``retract(n, s_end)`` returns the next
    ``(x, s_start, dead_band)``: the locked length relaxes to ``s0 -
    sqrt(efficiency) * (s0 - s_end)``, so the stored energy scales by exactly
    ``efficiency``, at the standing-consistent position, which a ratchet
    rounds away from the knee onto its tooth grid (never past the hip).
    ``ended(done, last)``, the one stopping rule, is how a run ends at squat
    ``done`` after ``last`` (None on squat 1): FULL_COMPRESSION or CONVERGED as
    ``Run`` says, or None.
    """
    geom, spring = config.leg, config.spring
    seg, lstand, dlmax = geom.segment_length, geom.standing_length, geom.max_deformation
    k, s0, solid = spring.stiffness, spring.free_length, spring.solid_length
    cap = config.force_cap if force_cap is None else force_cap
    cap = math.inf if config.policy is CompressionPolicy.FULL_RANGE else cap
    root_efficiency = math.sqrt(config.loss.efficiency if efficiency is None else efficiency)
    pitch, tol_gain = config.loss.ratchet_pitch, config.tol_gain

    def squat(n: int, x: float, s_start: float, dead_band: float) -> tuple:
        if s_start <= solid:
            raise StallError(f"squat {n}: spring already at solid length {solid}")
        ratio = x / seg
        s_range = ratio * (lstand - dlmax)
        # A later stop binds only when strictly larger, which gives the tie order.
        try:
            s_end = s0 - cap / (k * ratio)
        except ZeroDivisionError:  # k * ratio underflowed: too soft ever to reach the cap
            s_end = -math.inf
        stop = _BY_CAP
        if s_range > s_end:
            s_end, stop = s_range, _BY_RANGE
        if solid > s_end:
            s_end, stop = solid, _BY_SOLID

        if s_end < s_start:
            d_start, d_end = s0 - s_start, s0 - s_end  # as in spring_energy, in range here
            f_start, f_end = ratio * k * d_start, ratio * k * d_end
            e_before, e_after = 0.5 * k * d_start * d_start, 0.5 * k * d_end * d_end
            travel = lstand - s_end * seg / x
            return x, s_start, dead_band, s_end, stop, f_start, f_end, e_before, e_after, travel
        if stop is _BY_RANGE and dead_band > 0:
            # The quantized retraction left so much slack that the leg range is
            # used up before (or exactly when) the cable re-tensions.
            force = hip_force(x, s_start, geom, spring)
            energy = spring_energy(s_start, spring)
            return x, s_start, dead_band, s_start, _SLACK, force, force, energy, energy, dlmax
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
            teeth = math.ceil(x_target / pitch)  # the first sits one pitch from the knee,
            x_next = pitch * teeth if teeth > 1 else pitch  # never at it
            x_next = seg if seg < x_next else x_next  # none past the hip
            return x_next, s_next, lstand - s_next * seg / x_next
        return x_target, s_next, 0.0

    def ended(done: tuple, last: tuple | None) -> Termination | None:
        if done[3] <= solid:
            return Termination.FULL_COMPRESSION
        gain = done[8] - (done[7] if last is None else last[8])
        if gain < tol_gain or gain == 0.0 and done == last:
            return Termination.CONVERGED
        return None

    return squat, retract, ended


class Run:
    """The squats of one run, streamed as plain-float tuples.

    Iterating yields one tuple per squat, in the field order of ``Squats``,
    and keeps nothing.  Termination, in order of precedence per iteration:

    * full compression: post-squat spring length at the solid length, so
      the squat stores exactly the spring capacity;
    * convergence: net stored-energy progress since the previous squat below
      ``tol_gain`` (this detects both the vanishing-progress regime of the
      ideal mechanism and the loss/regain fixed point of a lossy one), or a
      squat equal to its predecessor, which the map would repeat forever.  A
      ratchet run ends by squat ``ceil(segment_length / ratchet_pitch) + 3``
      at the latest: a squat's end length is a monotone function of the one
      before, so from squat 2 its positions move one way along the teeth;
    * a stall on any squat after the first (no compression possible);
    * ``max_iterations`` squats, after the last of which nothing retracts.

    A stall on the first squat raises ``StallError``, since the
    configuration can accumulate nothing at all.  ``termination`` says why
    the run ended once the iteration is exhausted.  ``efficiency`` and
    ``force_cap`` override the configuration's values, as in ``_recurrence``.
    They and ``max_iterations`` raise ``DomainError`` where the configuration
    would reject them.
    """

    def __init__(
        self,
        config: Configuration,
        max_iterations: int,
        *,
        efficiency: float | None = None,
        force_cap: float | None = None,
    ) -> None:
        if type(max_iterations) is not int or max_iterations < 1:
            if (max_iterations := _integer("max_iterations", max_iterations, DomainError)) < 1:
                raise DomainError(f"max_iterations must be >= 1, got {_repr(max_iterations)}")
        if efficiency is not None and not 0 < _real("efficiency", efficiency, DomainError) <= 1:
            raise DomainError(f"efficiency must lie in (0, 1], got {efficiency}")
        if force_cap is not None and not 0 < _real("force_cap", force_cap, DomainError) < math.inf:
            raise DomainError(f"force_cap must be finite and > 0, got {force_cap}")
        self.config, self.max_iterations = config, max_iterations
        self.efficiency, self.force_cap = efficiency, force_cap
        self.termination: Termination | None = None

    def __iter__(self):
        config, budget = self.config, self.max_iterations
        squat, retract, ended = _recurrence(config, self.efficiency, self.force_cap)
        x, s_start, dead_band = config.initial_spring_position, initial_spring_length(config), 0.0
        last = None
        for n in range(1, budget + 1):
            try:
                done = squat(n, x, s_start, dead_band)
            except StallError:
                if n == 1:
                    raise
                self.termination = Termination.STALLED
                return
            yield done
            termination = ended(done, last)
            if termination is not None:
                self.termination = termination
                return
            if n < budget:
                x, s_start, dead_band = retract(n, done[3])
            last = done
        self.termination = Termination.ITERATION_CAP


def simulate(config: Configuration) -> SimResult:
    """Alternate squats and lock/retract transitions until done.

    See ``Run`` for the termination rules.  The result is a pure function
    of the configuration: identical configurations give bit-identical
    results.
    """
    run = Run(config, config.max_iterations)
    # Through a list: ``*run`` would grow a tuple by resizing, which fragments the heap.
    squats = Squats(*zip(*list(run)))
    return SimResult(squats=squats, config=config, termination=run.termination)


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
        If ``spring_length`` or ``x_release`` is not a real number, or the
        starting posture lies outside the leg's deformation range: deeper
        than ``max_deformation``, or beyond standing, where the spring
        would compress as the leg extends.
    """
    geom, spring = config.leg, config.spring
    spring_length = _real("spring_length", spring_length, GeometryError)
    if x_release is None:
        x_release = geom.segment_length
    x_release = _real("x_release", x_release, GeometryError)
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
    leg_start, s_standing = spring_length / ratio, ratio * geom.standing_length
    if leg_start < geom.standing_length - geom.max_deformation:
        raise GeometryError(
            f"release posture needs leg length {leg_start}, below the reachable minimum "
            f"{geom.standing_length - geom.max_deformation}: release at a smaller x_release"
        )
    if spring_length > s_standing:  # the product s_end uses, so released_energy >= 0
        raise GeometryError(
            f"release posture needs leg length {leg_start}, beyond the standing length "
            f"{geom.standing_length}: release at a larger x_release"
        )

    s_end = min(spring.free_length, s_standing)
    leg_end = s_end / ratio
    start, stop = geom.standing_length - leg_start, geom.standing_length - leg_end
    return ReleaseProfile(
        trajectory=Trajectory(*_sampled(config, x_release, start, stop)),
        peak_force=hip_force(x_release, spring_length, geom, spring),
        released_energy=spring_energy(spring_length, spring) - spring_energy(s_end, spring),
    )


def _strokes(config: Configuration, x, start, stop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(leg deformation, spring length, hip force) of the quasi-static strokes
    at spring positions ``x``, one row each (1-D for floats).  Each row's
    deformations are ``np.linspace(start, stop, sample_count)`` bit for bit:
    its operations in its order, with its branch for a step that underflows."""
    import numpy as np

    geom, spring, n = config.leg, config.spring, config.sample_count
    ratio = (np.asarray(x) / geom.segment_length)[..., None]
    start, stop = np.asarray(start)[..., None], np.asarray(stop)
    delta = stop[..., None] - start
    step = delta / (n - 1)
    steps = np.arange(n, dtype=float)
    deformation = steps * step
    deformation += start
    if np.count_nonzero(step) < step.size and delta[step == 0].any():  # np.linspace's underflow
        deformation = np.where(step == 0, steps / (n - 1) * delta + start, deformation)
    deformation[..., -1] = stop
    # In place, as ratio * (l_stand - d) and ratio * k * (s0 - s): products commute.
    length = geom.standing_length - deformation
    length *= ratio
    force = spring.free_length - length
    force *= ratio * spring.stiffness
    return deformation, length, force


def _sampled(config: Configuration, x, start, stop) -> tuple[np.ndarray, ...]:
    """``_strokes`` and the stored energy: ``Trajectory``'s fields, one row per stroke."""
    deformation, length, force = _strokes(config, x, start, stop)
    k, s0 = config.spring.stiffness, config.spring.free_length
    return deformation, length, force, 0.5 * k * (s0 - length) ** 2


def _slack(spring: SpringParams, length: float, travel: float) -> Trajectory:
    import numpy as np

    energy = spring_energy(length, spring)
    return Trajectory(np.array([0.0, travel]), np.full(2, length), np.zeros(2), np.full(2, energy))
