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


def e1_max(body: BodyParams, geom: LegGeometry) -> float:
    """Maximum energy storable in a single squat: half the weight times the range."""
    return 0.5 * body.weight * geom.max_deformation


def baseline_result(bottom_force: float, body: BodyParams, geom: LegGeometry) -> BaselineResult:
    """The single-squat chain for one bottom leg force ``F`` in [0, weight]: the mean
    leg force ``(weight + F) / 2`` as the force ramps down from the weight, the energy
    ``(weight - mean) * max_deformation`` left in the spring, and the stiffness
    ``(weight - F) / max_deformation`` that balances the body at the bottom."""
    bottom_force = _real("bottom force", bottom_force, DomainError)
    weight = body.weight
    if not 0 <= bottom_force <= weight:
        raise DomainError(
            f"bottom force {bottom_force} outside [0, weight={weight}]: "
            "the leg cannot pull, and a heavier load would need a pulling spring"
        )
    favg = 0.5 * (weight + bottom_force)
    if not 0.5 * weight <= favg <= weight:  # weight + F overflows near the float range
        raise DomainError(
            f"average force {favg} outside [weight/2, weight] = [{0.5 * weight}, {weight}]"
        )
    return BaselineResult(
        bottom_force=bottom_force,
        average_force=favg,
        stored_energy=(weight - favg) * geom.max_deformation,
        e1_max=e1_max(body, geom),
        stiffness=(weight - bottom_force) / geom.max_deformation,
    )
