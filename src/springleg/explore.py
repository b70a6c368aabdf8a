"""Design-space queries built on the multi-squat simulator.

Everything here is derived: minimum squats to reach a target energy, the
energy ceiling of a configuration, and deterministic parameter sweeps whose
rows follow grid order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .config import apply_overrides
from .cyclic import Run, Termination, simulate
from .errors import ConfigurationError, DomainError, SimulationError, StallError
from .model import Configuration, initial_spring_length, spring_energy

#: Iteration budget used when a query needs the recurrence run to
#: termination rather than to the configured iteration cap.
_EXHAUSTIVE_ITERATIONS = 10_000


def spring_capacity(config: Configuration) -> float:
    """Energy stored by the spring at its solid length."""
    return spring_energy(config.spring.solid_length, config.spring)


def min_squats(config: Configuration, target_energy: float) -> int | None:
    """Smallest squat count whose stored energy reaches ``target_energy``.

    Returns 0 when the pre-squat (preload) energy already suffices, and
    None when the recurrence converges below the target (infeasible).  The
    run is extended beyond ``config.max_iterations`` if needed, so the
    answer is a property of the mechanism rather than of the iteration cap.
    The whole run is streamed, also past the answer: a run that fails
    raises here as in ``simulate`` and ``max_energy``, and the query's cost
    does not depend on the target.

    Raises
    ------
    DomainError
        If ``target_energy`` is NaN or exceeds the spring capacity.
    """
    capacity = spring_capacity(config)
    if math.isnan(target_energy):
        raise DomainError("target energy must be a number, got nan")
    if target_energy > capacity:
        raise DomainError(
            f"target energy {target_energy} exceeds the spring capacity {capacity}"
        )
    preload_energy = spring_energy(initial_spring_length(config), config.spring)
    if target_energy <= preload_energy:
        return 0
    reached = None
    squats = iter(_run_to_termination(config))
    try:
        for n, (_, _, _, _, _, _, _, _, e_after, _) in enumerate(squats, 1):
            if e_after >= target_energy:
                reached = n
                break
        deque(squats, maxlen=0)  # the rest of the run, for its errors
    except StallError:
        pass
    return reached


def max_energy(config: Configuration) -> float:
    """Supremum of the stored energy the recurrence can reach.

    The spring capacity if full compression is reached; otherwise the energy
    at the recurrence's fixed point, detected by the net-gain tolerance.
    """
    run = _run_to_termination(config)
    try:
        ((_, _, _, _, _, _, _, _, e_after, _),) = deque(run, maxlen=1)
    except StallError:
        # Not even one squat is possible; the fixed point is the start.
        return spring_energy(initial_spring_length(config), config.spring)
    if run.termination is Termination.FULL_COMPRESSION:
        return spring_capacity(config)
    return e_after


def _run_to_termination(config: Configuration) -> Run:
    """The squats of ``config`` streamed to termination, without keeping any."""
    return Run(config, max(config.max_iterations, _EXHAUSTIVE_ITERATIONS))


@dataclass(frozen=True)
class SweepRow:
    """Summary of one grid point; ``status`` is 'ok', 'invalid', or 'stall'."""

    params: dict[str, object]
    status: str
    reason: str = ""
    final_energy: float | None = None  # J
    iterations: int | None = None
    iterations_to_full_compression: int | None = None
    peak_force: float | None = None  # N
    final_over_e1max: float | None = None
    peak_over_cap: float | None = None
    termination: str | None = None  # Termination value of an 'ok' run


def sweep(
    config: Configuration,
    points: Sequence[Mapping[str, object]],
    workers: int = 1,
) -> list[SweepRow]:
    """Simulate every override point of a parameter grid.

    Each point is a mapping of configuration keys (see ``config.ALL_KEYS``)
    merged over the template configuration.  Invalid or stalling points are
    flagged in their row and do not abort the sweep.  Row order equals grid
    order.  ``workers`` is accepted for compatibility and has no effect:
    points are always evaluated serially, which measured faster than a
    thread pool.
    """
    return [_evaluate_point(config, dict(p)) for p in points]


def _evaluate_point(template: Configuration, overrides: dict[str, object]) -> SweepRow:
    try:
        result = simulate(apply_overrides(template, overrides))
    except (ConfigurationError, DomainError) as exc:
        return SweepRow(params=overrides, status="invalid", reason=str(exc))
    except (StallError, SimulationError) as exc:
        return SweepRow(params=overrides, status="stall", reason=str(exc))
    e1, cap = result.normalization
    f_end = result.squats.f_end
    peak = max(f_end)
    return SweepRow(
        params=overrides,
        status="ok",
        final_energy=result.final_energy,
        iterations=len(f_end),
        iterations_to_full_compression=result.iterations_to_full_compression,
        peak_force=peak,
        final_over_e1max=result.final_energy / e1,
        peak_over_cap=peak / cap,
        termination=result.termination.value,
    )
