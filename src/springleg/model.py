"""Core domain types and the floating-spring kinematic and force relations.

The mechanism is a two-segment leg (thigh and shank of equal length) with a
vertical linear compression spring whose endpoints slide along the segments
at a common distance ``x`` from the knee.  Similar triangles give the spring
length as a fixed fraction of the hip-ankle distance, and virtual work maps
the spring force to the hip through the same ratio.  Everything downstream
(single-squat baseline, multi-squat accumulation, calibration, design
sweeps) is built on the four operations defined here.

All quantities are SI: meters, newtons, joules, kilograms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

#: Relative tolerance used when a derived spring length overshoots the free
#: length by floating-point round-off only; within it the length is snapped
#: to the free length instead of being rejected as slack.
SLACK_SNAP_RTOL = 1e-9

#: Largest ``sample_count``: every emitted squat holds this many samples per
#: array, so a larger count would only exhaust memory.
MAX_SAMPLE_COUNT = 1_000_000


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _require_positive(name: str, value: float) -> None:
    _require(0 < value < math.inf, f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class BodyParams:
    """Point-mass user or robot: mass and gravitational field."""

    mass: float  # kg
    gravity: float = 9.80665  # m/s^2

    def __post_init__(self) -> None:
        _require_positive("mass", self.mass)
        _require_positive("gravity", self.gravity)

    @property
    def weight(self) -> float:
        """Static weight force m*g in newtons."""
        return self.mass * self.gravity


@dataclass(frozen=True)
class LegGeometry:
    """Two-bar leg with equal thigh and shank segments.

    Attributes
    ----------
    segment_length : float
        Common length of the thigh and shank segments (m).
    standing_length : float
        Hip-ankle distance in the standing posture (m); at most twice the
        segment length (fully extended knee).
    max_deformation : float
        Largest admissible reduction of the hip-ankle distance during a
        squat (m); strictly less than the standing length.
    """

    segment_length: float
    standing_length: float
    max_deformation: float

    def __post_init__(self) -> None:
        # A finite segment length bounds the other two lengths as well.
        _require_positive("segment_length", self.segment_length)
        _require(
            0 < self.standing_length <= 2 * self.segment_length,
            f"standing_length must satisfy 0 < standing_length <= 2*segment_length "
            f"({2 * self.segment_length}), got {self.standing_length}",
        )
        _require(
            0 < self.max_deformation < self.standing_length,
            f"max_deformation must satisfy 0 < max_deformation < standing_length "
            f"({self.standing_length}), got {self.max_deformation}",
        )


@dataclass(frozen=True)
class SpringParams:
    """Linear compression spring: stiffness, free length, solid length."""

    stiffness: float  # N/m
    free_length: float  # m
    solid_length: float = 0.0  # m

    def __post_init__(self) -> None:
        _require_positive("stiffness", self.stiffness)
        _require_positive("free_length", self.free_length)
        _require(
            0 <= self.solid_length < self.free_length,
            f"solid_length must satisfy 0 <= solid_length < free_length "
            f"({self.free_length}), got {self.solid_length}",
        )
        # Every stored energy and force is bounded by the capacity's terms.
        capacity = spring_energy(self.solid_length, self)
        _require(math.isfinite(capacity), f"spring capacity must be finite, got {capacity} J")


@dataclass(frozen=True)
class LossModel:
    """Losses across one lock/retract transition.

    ``efficiency`` is the fraction of stored spring energy retained when the
    spring is locked and its endpoints are retracted toward the knee (1 for
    the ideal mechanism).  ``ratchet_pitch`` is the spacing of discrete
    locking positions along the leg segments; 0 means continuous locking.
    """

    efficiency: float = 1.0
    ratchet_pitch: float = 0.0  # m

    def __post_init__(self) -> None:
        _require(
            0 < self.efficiency <= 1.0,
            f"efficiency must lie in (0, 1], got {self.efficiency}",
        )
        _require(
            self.ratchet_pitch >= 0 and math.isfinite(self.ratchet_pitch),
            f"ratchet_pitch must be finite and >= 0, got {self.ratchet_pitch}",
        )


class CompressionPolicy(enum.Enum):
    """How a squat stroke terminates.

    FORCE_LIMITED stops when the hip force reaches the force cap (or earlier
    on leg range / solid spring); FULL_RANGE ignores the cap and uses the
    whole leg range.
    """

    FORCE_LIMITED = "force_limited"
    FULL_RANGE = "full_range"


@dataclass(frozen=True)
class Configuration:
    """Complete, validated description of one simulation setup.

    ``force_cap`` defaults to the body weight.  ``tol_abs`` (spring length,
    m) and ``tol_gain`` (stored energy, J) are the termination tolerances of
    the multi-squat recurrence; both may be overridden.
    """

    body: BodyParams
    leg: LegGeometry
    spring: SpringParams
    initial_spring_position: float  # m, distance of the spring from the knee
    force_cap: float | None = None  # N; None -> body weight
    loss: LossModel = field(default_factory=LossModel)
    policy: CompressionPolicy = CompressionPolicy.FORCE_LIMITED
    max_iterations: int = 100
    sample_count: int = 1000
    tol_abs: float = 1e-9
    tol_gain: float = 1e-12

    def __post_init__(self) -> None:
        if self.force_cap is None:
            object.__setattr__(self, "force_cap", self.body.weight)
        _require(
            0 < self.initial_spring_position <= self.leg.segment_length,
            f"initial_spring_position must lie in (0, segment_length] "
            f"({self.leg.segment_length}), got {self.initial_spring_position}",
        )
        _require_positive("force_cap", self.force_cap)
        # e1_max, the single-squat energy that results are normalised by:
        # weight * max_deformation may underflow to 0 or overflow to inf.
        _require_positive(
            "single-squat energy 0.5 * weight * max_deformation",
            0.5 * self.body.weight * self.leg.max_deformation,
        )
        # The ratchet rounds onto a grid of segment_length / pitch teeth.
        pitch = self.loss.ratchet_pitch
        if pitch and not math.isfinite(self.leg.segment_length / pitch):
            raise ConfigurationError(
                f"ratchet_pitch {pitch} is too small: segment_length / ratchet_pitch overflows"
            )
        _require(self.max_iterations >= 1, f"max_iterations must be >= 1, got {self.max_iterations}")
        _require(
            2 <= self.sample_count <= MAX_SAMPLE_COUNT,
            f"sample_count must lie in [2, {MAX_SAMPLE_COUNT}], got {self.sample_count}",
        )
        _require(self.tol_abs >= 0, f"tol_abs must be >= 0, got {self.tol_abs}")
        _require(self.tol_gain >= 0, f"tol_gain must be >= 0, got {self.tol_gain}")
        # Validate the derived initial spring length: pre-compression is
        # allowed, slack (cable longer than the spring) is not.
        initial_spring_length(self)


def initial_spring_length(config: Configuration) -> float:
    """Spring length at standing for the initial spring position.

    Lengths that overshoot the free length by round-off only are snapped to
    the free length; genuinely slack or solid configurations are rejected.
    """
    s = config.initial_spring_position / config.leg.segment_length * config.leg.standing_length
    s0 = config.spring.free_length
    if s > s0:
        if s <= s0 * (1.0 + SLACK_SNAP_RTOL):
            return s0
        raise ConfigurationError(
            f"initial spring length {s} exceeds the free length {s0}: "
            "the spring cannot start slack (reduce initial_spring_position)"
        )
    if s <= config.spring.solid_length:
        raise ConfigurationError(
            f"initial spring length {s} does not exceed the solid length "
            f"{config.spring.solid_length} (increase initial_spring_position)"
        )
    return s


@dataclass(frozen=True)
class Trajectory:
    """Sampled quasi-static stroke at a fixed spring position.

    All arrays share one length.  ``leg_deformation`` is the reduction of the
    hip-ankle distance from standing (m); it is monotone along a stroke
    (non-decreasing for compression, non-increasing for release).
    """

    leg_deformation: np.ndarray
    spring_length: np.ndarray
    hip_force: np.ndarray
    stored_energy: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.leg_deformation)
        if not (len(self.spring_length) == len(self.hip_force) == len(self.stored_energy) == n):
            raise DomainError("trajectory arrays must have equal length")

    def __len__(self) -> int:
        return len(self.leg_deformation)


# ---------------------------------------------------------------------------
# Kinematic and force relations
# ---------------------------------------------------------------------------


def spring_length_from_leg(x: float, leg_length: float, geom: LegGeometry) -> float:
    """Spring length for spring position ``x`` and hip-ankle distance ``leg_length``.

    The spring endpoints sit at distance ``x`` from the knee on both
    segments, so similar triangles give ``s = (x / segment_length) * l``.

    Raises
    ------
    DomainError
        If ``x`` is outside [0, segment_length] or ``leg_length`` outside
        (0, standing_length].
    """
    if not 0 <= x <= geom.segment_length:
        raise DomainError(
            f"spring position x={x} outside [0, segment_length={geom.segment_length}]"
        )
    if not 0 < leg_length <= geom.standing_length:
        raise DomainError(
            f"leg length l={leg_length} outside (0, standing_length={geom.standing_length}]"
        )
    return x / geom.segment_length * leg_length


def spring_force(s: float, spring: SpringParams) -> float:
    """Compressive force of the spring at length ``s``: k*(s0 - s), >= 0.

    Raises
    ------
    DomainError
        If ``s`` exceeds the free length (slack) or is below the solid
        length.
    """
    if s > spring.free_length:
        raise DomainError(f"spring length s={s} exceeds free_length={spring.free_length} (slack)")
    if s < spring.solid_length:
        raise DomainError(f"spring length s={s} below solid_length={spring.solid_length}")
    return spring.stiffness * (spring.free_length - s)


def hip_force(x: float, s: float, geom: LegGeometry, spring: SpringParams) -> float:
    """Force required at the hip to hold the leg with the spring at length ``s``.

    Virtual work with ``s = (x / segment_length) * l`` maps the spring force
    to the hip through the mechanical-advantage ratio:
    ``F_hip = (x / segment_length) * k * (s0 - s)``.
    """
    if not 0 <= x <= geom.segment_length:
        raise DomainError(
            f"spring position x={x} outside [0, segment_length={geom.segment_length}]"
        )
    return x / geom.segment_length * spring_force(s, spring)


def spring_energy(s: float, spring: SpringParams) -> float:
    """Elastic energy stored at spring length ``s``: 0.5*k*(s0 - s)^2."""
    if s > spring.free_length:
        raise DomainError(f"spring length s={s} exceeds free_length={spring.free_length} (slack)")
    if s < spring.solid_length:
        raise DomainError(f"spring length s={s} below solid_length={spring.solid_length}")
    d = spring.free_length - s
    return 0.5 * spring.stiffness * d * d
