"""Single-squat fixed-spring model used as the normalization reference.

A spring of constant stiffness is compressed once by squatting: the leg
force starts at the full body weight and the spring carries the remainder of
the weight at the bottom of the squat.  The resulting stiffness, average leg
force, and stored energy are closed-form and serve as the reference scale
for the multi-squat results (most importantly ``e1_max``, the most energy a
single squat can store).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .model import BodyParams, LegGeometry, _real


@dataclass(frozen=True)
class BaselineResult:
    """Summary of one weight-driven squat against a fixed spring."""

    bottom_force: float  # leg force at full squat depth, N
    average_force: float  # mean leg force over the stroke, N
    stored_energy: float  # energy in the spring at the bottom, J
    e1_max: float  # upper bound of stored_energy over admissible bottom forces, J
    stiffness: float  # spring stiffness realizing this squat, N/m


def required_stiffness(bottom_force: float, body: BodyParams, geom: LegGeometry) -> float:
    """Spring stiffness that balances the body at full squat depth.

    Static equilibrium at the bottom gives ``k = (weight - F) / max_deformation``
    where ``F`` is the leg force retained at the bottom.
    """
    bottom_force = _check_bottom_force(bottom_force, body)
    return (body.weight - bottom_force) / geom.max_deformation


def average_force(bottom_force: float, body: BodyParams) -> float:
    """Mean leg force over a squat whose leg force ramps from weight to ``bottom_force``."""
    return 0.5 * (body.weight + _check_bottom_force(bottom_force, body))


def stored_energy_single(avg_force: float, body: BodyParams, geom: LegGeometry) -> float:
    """Spring energy after one squat with mean leg force ``avg_force``.

    The weight acts over the full deformation while the legs absorb
    ``avg_force`` of it, leaving ``(weight - avg_force) * max_deformation``
    in the spring.
    """
    if not 0.5 * body.weight <= avg_force <= body.weight:
        raise DomainError(
            f"average force {avg_force} outside [weight/2, weight] = "
            f"[{0.5 * body.weight}, {body.weight}]"
        )
    return (body.weight - avg_force) * geom.max_deformation


def e1_max(body: BodyParams, geom: LegGeometry) -> float:
    """Maximum energy storable in a single squat: half the weight times the range."""
    return 0.5 * body.weight * geom.max_deformation


def baseline_result(bottom_force: float, body: BodyParams, geom: LegGeometry) -> BaselineResult:
    """Evaluate the full single-squat chain for one bottom force."""
    bottom_force = _check_bottom_force(bottom_force, body)
    favg = average_force(bottom_force, body)
    return BaselineResult(
        bottom_force=bottom_force,
        average_force=favg,
        stored_energy=stored_energy_single(favg, body, geom),
        e1_max=e1_max(body, geom),
        stiffness=required_stiffness(bottom_force, body, geom),
    )


def _check_bottom_force(bottom_force: float, body: BodyParams) -> float:
    """``bottom_force`` as a float in [0, weight]."""
    bottom_force = _real("bottom force", bottom_force, DomainError)
    if not 0 <= bottom_force <= body.weight:
        raise DomainError(
            f"bottom force {bottom_force} outside [0, weight={body.weight}]: "
            "the leg cannot pull, and a heavier load would need a pulling spring"
        )
    return bottom_force
