"""Core domain types and the floating-spring kinematic and force relations.

The mechanism is a two-segment leg (thigh and shank of equal length) with a
vertical linear compression spring whose endpoints slide along the segments
at a common distance ``x`` from the knee.  Similar triangles give the spring
length as a fixed fraction of the hip-ankle distance, and virtual work maps
the spring force to the hip through the same ratio.  Everything downstream
(single-squat baseline, multi-squat accumulation, calibration, design
sweeps) is built on the two relations defined here: hip force and stored
energy.

All quantities are SI: meters, newtons, joules, kilograms.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Sized
from dataclasses import dataclass, field
from operator import index
from typing import TYPE_CHECKING

from .errors import ConfigurationError, DomainError, SpringLegError

if TYPE_CHECKING:
    import numpy as np

#: Relative tolerance used when a derived spring length overshoots the free
#: length by floating-point round-off only; within it the length is snapped
#: to the free length instead of being rejected as slack.
SLACK_SNAP_RTOL = 1e-9

#: Largest ``sample_count``: every emitted squat holds this many samples per
#: array, so a larger count would only exhaust memory.
MAX_SAMPLE_COUNT = 1_000_000


def _repr(value: object) -> str:
    """``repr(value)``, or the type where that raises (an int past the digit limit)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _real(what: str, value: object, error: type[SpringLegError] = ConfigurationError) -> float:
    """``float(value)`` of a real number that is not a bool; a float is returned as it is."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):  # float(True) would be 1.0
        try:
            return float(value)
        except OverflowError:  # an int or Fraction past the float range
            pass
    raise error(f"{what} needs a number, got {_repr(value)}")


def _integer(what: str, value: object, error: type[SpringLegError] = ConfigurationError) -> int:
    """``index(value)`` of an integer by the index protocol that is not a bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{what} needs an integer, got {_repr(value)}")
    return index(value)


def _expect(value, kind, what: str, error: type[SpringLegError] = DomainError, name: str = ""):
    """``value`` if it is a ``kind`` (a type or a tuple of types), else ``error`` naming it."""
    if not isinstance(value, kind):
        raise error(f"{what} must be a {name or kind.__name__}, got {type(value).__name__}")
    return value


# Checks format their message only on failure: a float's text costs more than its check.
def _require_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class BodyParams:
    """Point-mass user or robot: mass and gravitational field."""

    mass: float  # kg
    gravity: float = 9.80665  # m/s^2

    def __post_init__(self) -> None:
        # Stored as floats. One chained type test per class, not one per field,
        # as every sweep point builds parts: a float is kept as it is.
        if not type(self.mass) is type(self.gravity) is float:
            for name in ("mass", "gravity"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
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
        if not (
            type(self.segment_length) is type(self.standing_length) is type(self.max_deformation)
            is float
        ):
            for name in ("segment_length", "standing_length", "max_deformation"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        # A finite segment length bounds the other two lengths as well.
        _require_positive("segment_length", self.segment_length)
        if not 0 < self.standing_length <= 2 * self.segment_length:
            raise ConfigurationError(
                f"standing_length must satisfy 0 < standing_length <= 2*segment_length "
                f"({2 * self.segment_length}), got {self.standing_length}"
            )
        if not 0 < self.max_deformation < self.standing_length:
            raise ConfigurationError(
                f"max_deformation must satisfy 0 < max_deformation < standing_length "
                f"({self.standing_length}), got {self.max_deformation}"
            )


@dataclass(frozen=True)
class SpringParams:
    """Linear compression spring: stiffness, free length, solid length."""

    stiffness: float  # N/m
    free_length: float  # m
    solid_length: float = 0.0  # m

    def __post_init__(self) -> None:
        if not type(self.stiffness) is type(self.free_length) is type(self.solid_length) is float:
            for name in ("stiffness", "free_length", "solid_length"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        _require_positive("stiffness", self.stiffness)
        _require_positive("free_length", self.free_length)
        if not 0 <= self.solid_length < self.free_length:
            raise ConfigurationError(
                f"solid_length must satisfy 0 <= solid_length < free_length "
                f"({self.free_length}), got {self.solid_length}"
            )
        # Every stored energy and force is bounded by the capacity's terms.
        capacity = spring_energy(self.solid_length, self)
        if not math.isfinite(capacity):
            raise ConfigurationError(f"spring capacity must be finite, got {capacity} J")


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
        if not type(self.efficiency) is type(self.ratchet_pitch) is float:
            for name in ("efficiency", "ratchet_pitch"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0 < self.efficiency <= 1.0:
            raise ConfigurationError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if not (self.ratchet_pitch >= 0 and math.isfinite(self.ratchet_pitch)):
            raise ConfigurationError(
                f"ratchet_pitch must be finite and >= 0, got {self.ratchet_pitch}"
            )


class CompressionPolicy(enum.Enum):
    """How a squat stroke terminates.

    FORCE_LIMITED stops when the hip force reaches the force cap (or earlier
    on leg range / solid spring); FULL_RANGE ignores the cap and uses the
    whole leg range.
    """

    FORCE_LIMITED = "force_limited"
    FULL_RANGE = "full_range"


#: The parts of a ``Configuration``: field -> type.
_PARTS = {"body": BodyParams, "leg": LegGeometry, "spring": SpringParams, "loss": LossModel}


@dataclass(frozen=True)
class Configuration:
    """Complete, validated description of one simulation setup.

    ``force_cap`` defaults to the body weight; ``tol_gain`` (stored energy, J)
    is the convergence tolerance of the multi-squat recurrence.
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
    tol_gain: float = 1e-12

    def __post_init__(self) -> None:
        if not (  # chained, as the numbers below: a tuple per configuration would cost memory
            type(self.body) is BodyParams and type(self.leg) is LegGeometry
            and type(self.spring) is SpringParams and type(self.loss) is LossModel
            and type(self.policy) is CompressionPolicy
        ):
            for name, kind in {**_PARTS, "policy": CompressionPolicy}.items():
                _expect(getattr(self, name), kind, name, ConfigurationError)
        if self.force_cap is None:
            object.__setattr__(self, "force_cap", self.body.weight)
        if not (
            type(self.initial_spring_position) is type(self.force_cap) is type(self.tol_gain)
            is float
        ):
            for name in ("initial_spring_position", "force_cap", "tol_gain"):
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not type(self.max_iterations) is type(self.sample_count) is int:
            for name in ("max_iterations", "sample_count"):
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 < self.initial_spring_position <= self.leg.segment_length:
            raise ConfigurationError(
                f"initial_spring_position must lie in (0, segment_length] "
                f"({self.leg.segment_length}), got {self.initial_spring_position}"
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
        if not self.max_iterations >= 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {_repr(self.max_iterations)}"
            )
        if not 2 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise ConfigurationError(
                f"sample_count must lie in [2, {MAX_SAMPLE_COUNT}], got {_repr(self.sample_count)}"
            )
        if not 0 <= self.tol_gain < math.inf:
            raise ConfigurationError(f"tol_gain must be finite and >= 0, got {self.tol_gain}")
        # Validate the derived initial spring length: pre-compression is
        # allowed, slack (cable longer than the spring) is not.
        initial_spring_length(self)


def initial_spring_length(config: Configuration) -> float:
    """Spring length at standing for the initial spring position.

    Lengths that overshoot the free length by round-off only are snapped to
    the free length; genuinely slack or solid configurations are rejected.
    """
    if type(config) is not Configuration:
        _expect(config, Configuration, "config")
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
        arrays = self.leg_deformation, self.spring_length, self.hip_force, self.stored_energy
        if len({len(_expect(a, Sized, "trajectory array", name="sequence")) for a in arrays}) > 1:
            raise DomainError("trajectory arrays must have equal length")

    def __len__(self) -> int:
        return len(self.leg_deformation)


# ---------------------------------------------------------------------------
# Kinematic and force relations
# ---------------------------------------------------------------------------


def hip_force(x: float, s: float, geom: LegGeometry, spring: SpringParams) -> float:
    """Force required at the hip to hold the leg with the spring at length ``s``.

    Virtual work with ``s = (x / segment_length) * l`` maps the spring force
    to the hip through the mechanical-advantage ratio:
    ``F_hip = (x / segment_length) * k * (s0 - s)``.  ``DomainError`` if ``x``
    lies outside [0, segment_length], or ``s`` outside [solid, free] (nan too).
    """
    _expect(geom, LegGeometry, "geom")
    if not 0 <= _real("spring position x", x, DomainError) <= geom.segment_length:
        raise DomainError(
            f"spring position x={x} outside [0, segment_length={geom.segment_length}]"
        )
    compression = _compression(s, spring)  # checks the spring before its stiffness is read
    return x / geom.segment_length * (spring.stiffness * compression)


def spring_energy(s: float, spring: SpringParams) -> float:
    """Energy 0.5*k*(s0 - s)^2 stored at spring length ``s``; raises as ``hip_force`` on ``s``."""
    d = _compression(s, spring)
    return 0.5 * spring.stiffness * d * d


def _compression(s: float, spring: SpringParams) -> float:
    """``free_length - s``; ``DomainError`` unless s is a number in [solid_length, free_length]."""
    if type(spring) is not SpringParams:
        _expect(spring, SpringParams, "spring")
    length = _real("spring length s", s, DomainError)
    if length > spring.free_length:
        raise DomainError(f"spring length s={s} exceeds free_length={spring.free_length} (slack)")
    if not length >= spring.solid_length:  # a nan fails here, as it lies in no range
        raise DomainError(f"spring length s={s} below solid_length={spring.solid_length}")
    return spring.free_length - length
