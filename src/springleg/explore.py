"""Design-space queries built on the multi-squat simulator.

Everything here is derived: minimum squats to reach a target energy, the
energy ceiling of a configuration, and deterministic parameter sweeps whose
rows follow grid order.
"""

from __future__ import annotations

import math
from bisect import bisect, bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .baseline import e1_max
from .config import apply_overrides
from .cyclic import Run, StopReason, Termination, _recurrence
from .errors import ConfigurationError, DomainError, SimulationError, StallError
from .model import CompressionPolicy, Configuration, _expect, _real, initial_spring_length
from .model import spring_energy

#: Iteration budget used when a query needs the recurrence run to
#: termination rather than to the configured iteration cap.
_EXHAUSTIVE_ITERATIONS = 10_000

#: The last streamed run, replaced whole: its config and ``_outcome`` but the target squat.
_streamed: tuple = (None, None)


def spring_capacity(config: Configuration) -> float:
    """Energy stored by the spring at its solid length."""
    _expect(config, Configuration, "config")
    return spring_energy(config.spring.solid_length, config.spring)


def min_squats(config: Configuration, target_energy: float) -> int | None:
    """Smallest squat count whose stored energy reaches ``target_energy``.

    Returns 0 when the pre-squat (preload) energy already suffices, and
    None when the run stores less than the target (infeasible).  The
    run is extended beyond ``config.max_iterations`` if needed, so the
    answer is a property of the mechanism rather than of the iteration cap.
    The answer is for the whole run, which ``max_energy`` shares: a run that
    fails raises here as in ``simulate`` and ``max_energy``.  A ratchet-free
    run costs O(log n) squat evaluations (see ``max_energy``); a ratchet run
    is streamed squat by squat (see ``_outcome``).

    Raises
    ------
    DomainError
        If ``config`` is no ``Configuration``, or ``target_energy`` is not a
        real number (a bool is not one), does not fit a float, is NaN or
        exceeds the spring capacity.
    """
    capacity = spring_capacity(config)
    target = _real("target energy", target_energy, DomainError)
    if math.isnan(target):
        raise DomainError("target energy must be a number, got nan")
    if target > capacity:
        raise DomainError(
            f"target energy {target_energy} exceeds the spring capacity {capacity}"
        )
    preload_energy = spring_energy(initial_spring_length(config), config.spring)
    if target <= preload_energy:
        return 0
    try:
        return _outcome(config, target)[4]
    except StallError:
        return None


def max_energy(config: Configuration) -> float:
    """Supremum of the stored energy the recurrence can reach.

    The peak squat energy of the run to termination: the spring capacity,
    bit for bit, on full compression; else the last squat's, where it converges
    (a gain below ``tol_gain`` or a squat repeating its predecessor) or after
    the query's budget, but squat 1's where squat 2 stores less.  A ratchet-free
    run jumps from event to event in closed form, in O(log n) squat
    evaluations; a ratchet run streams its squats (see ``_outcome``).  Raises
    ``DomainError`` if ``config`` is no ``Configuration``.
    """
    _expect(config, Configuration, "config")
    try:
        return _outcome(config, math.inf)[2]
    except StallError:
        # Not even one squat is possible; the fixed point is the start.
        return spring_energy(initial_spring_length(config), config.spring)


def _outcome(config: Configuration, target: float) -> tuple:
    """``(termination, last squat, peak stored energy, squat count, first
    squat storing target)`` of the run of ``config`` to termination, which
    keeps no squats.  The last streamed run that did not raise is recorded:
    on its config, a target above the peak has no squat, and another one
    streams the run only up to its first squat storing it.
    """
    global _streamed
    # A larger budget changes nothing: by 2**60 squats every orbit has settled.
    budget = min(max(config.max_iterations, _EXHAUSTIVE_ITERATIONS), 2**60)
    jumped = None if config.loss.ratchet_pitch else _jumped_run(config, target, budget)
    if jumped is not None:
        return jumped
    known, record = _streamed
    if known == config:
        if target > record[2]:
            return *record, None
        run = enumerate(Run(config, record[3]), 1)
        return *record, next(n for n, squat in run if squat[8] >= target)
    run, peak, reached = Run(config, budget), -math.inf, None
    for n, squat in enumerate(run, 1):
        if squat[8] > peak:
            peak = squat[8]
            if reached is None and peak >= target:
                reached = n
    _streamed = config, (run.termination, squat, peak, n)
    return *_streamed[1], reached


def _jumped_run(config: Configuration, target: float, budget: int) -> tuple | None:
    """``_outcome`` for a ratchet-free ``config`` run for ``budget`` squats,
    or None where the closed forms overflow.

    Without a ratchet, squat 1 starts consistent with standing and the map of
    the pre-squat length is increasing, so the orbit is monotone; a rising one
    ends at squat 2 at the latest, as it stores less there.  From squat 2 on
    the orbit falls, in a closed form of ``_orbits``, and bisection finds the
    first squat that crosses a threshold, stalls, ends the run by ``ended`` or
    first stores the target.  Each squat it looks at is evaluated by retract +
    squat, so energies, errors and endings are the map's own.  A closed form
    that has settled by the budget counts as a run that has repeated a squat.
    """
    closed_forms = _orbits(config)
    if closed_forms is None:
        return None
    orbit_from, thresholds = closed_forms
    squat, retract, ended = _recurrence(config)
    seg, lstand = config.leg.segment_length, config.leg.standing_length

    def at(i: int) -> tuple:  # squat i in the current closed form
        length = orbit(i - start) if i > start else s
        return squat(i, length * seg / lstand, length, 0.0)

    def after(i: int, done: tuple) -> tuple[float, tuple]:
        x, length, _ = retract(i, done[3])
        return length, squat(i + 1, x, length, 0.0)

    def ends(i: int) -> bool:  # or reaches the target
        try:
            done = at(i - 1)
            following = after(i - 1, done)[1]
        except StallError:  # at efficiency 1 the cap's fixed point is a stall point
            return True
        return ended(following, done) is not None or following[8] >= target

    def outcome(termination: Termination, done: tuple, count: int) -> tuple:
        # The orbit is monotone from squat 2 on: the peak is squat 1 or the last.
        return termination, done, max(first[8], done[8]), count, reached

    first = done = squat(1, config.initial_spring_position, initial_spring_length(config), 0.0)
    n, last, reached = 1, None, None
    while True:
        if reached is None and done[8] >= target:
            reached, target = n, math.inf
        termination = ended(done, last)
        if termination is not None:
            return outcome(termination, done, n)
        if n == budget:
            return outcome(Termination.ITERATION_CAP, done, n)
        if n > 1:
            start, orbit, side = n, orbit_from(done[4], s), bisect(thresholds, s)
            later = range(n + 1, budget + 1)
            stop = later.start + bisect_left(  # budget + 1 if no event comes
                later, True, key=lambda i: bisect(thresholds, orbit(i - start)) != side or ends(i)
            )
            # Jump to the squat before the event, then step into it as ``ends`` did.
            try:
                n, done = stop - 1, at(stop - 1)
            except StallError:  # as ``ends`` saw it
                return outcome(Termination.STALLED, at(stop - 2), stop - 2)
            if stop > budget:  # a closed form settled by then has repeated a squat
                if orbit(budget - start) == orbit(budget - 1 - start):
                    return outcome(Termination.CONVERGED, done, n)
                return outcome(Termination.ITERATION_CAP, done, n)
        try:
            s, following = after(n, done)
        except StallError:
            return outcome(Termination.STALLED, done, n)
        n, last, done = n + 1, done, following


def _orbits(config: Configuration) -> tuple[Callable, list[float]] | None:
    """``(orbit_from, thresholds)`` for ``_jumped_run``, or None where the
    force cap's closed form would overflow.

    ``orbit_from(stop, s)(j)`` is the pre-squat length ``j > 0`` squats after
    one of length ``s`` that stopped on ``stop``, while the squats keep that
    stop; -inf once a rotation has passed through infinity.  The leg range maps
    ``s`` affinely.  The cap maps it by ``s -> s0 - K/s``, ``K = sqrt(efficiency)
    cap l_stand / k``: with ``d = s - s0/2`` and ``disc = s0**2 - 4K``, exact
    from the floats, ``j`` squats give ``s0/2 + (d C + disc/4 S) / (d S + C)``,
    where ``(C, S)`` is ``(cos(j a), sin(j a) / w)`` for ``disc < 0``, a
    rotation, and ``(1, tanh(j a) / w)`` otherwise, ``w = sqrt(|disc|) / 2``.
    A falling orbit changes its stop, and the gain of its cap squats turns from
    falling to rising, only where it crosses one of the sorted ``thresholds``;
    past its pole, one falling from below the lower fixed point with
    ``disc >= 0`` goes on above the upper one, beyond the gain's threshold.
    """
    leg, spring = config.leg, config.spring
    lstand, k, s0 = leg.standing_length, spring.stiffness, spring.free_length
    root_efficiency = math.sqrt(config.loss.efficiency)
    ratio = (lstand - leg.max_deformation) / lstand  # a leg-range squat from s ends at ratio * s
    slope = root_efficiency * ratio
    drop = (1 - root_efficiency) + root_efficiency * (1 - ratio)  # 1 - slope
    anchor = s0 * (1 - root_efficiency) / drop if drop else 0.0  # its fixed point
    thresholds = []
    c = config.force_cap * lstand / k  # a cap squat from s ends at s0 - c/s
    big_k = root_efficiency * c
    rivalry = s0 * s0 - 4 * ratio * c  # the cap binds between the roots of ratio s**2 - s0 s + c
    if config.policy is CompressionPolicy.FORCE_LIMITED and rivalry >= 0:
        if not (big_k > 0 and s0 * s0 < math.inf):
            return None
        wide = 0.5 * (s0 + math.sqrt(rivalry)) / ratio
        thresholds += [wide, c / (ratio * wide)]
        # The gain of a cap squat from t is least where K t**4 = (s0 t - K)**3, at
        # t = sqrt(K) w**3 for the smaller root w > 0 of w**4 - sigma w**3 + 1.
        scale = math.sqrt(big_k)
        sigma = s0 / scale
        low, high = 0.0, 0.75 * sigma  # where the quartic is least
        if high**3 * (high - sigma) + 1 < 0:
            while high - low > 1e-9 * high:
                mid = 0.5 * (low + high)
                low, high = (mid, high) if mid**3 * (mid - sigma) + 1 > 0 else (low, mid)
            thresholds.append(scale * low**3)
        # disc from the exact values of the floats, each a ratio of integers.
        (n0, d0), (ne, de), (nc, dc), (nl, dl), (nk, dk) = (
            value.as_integer_ratio() for value in (s0, root_efficiency, config.force_cap, lstand, k)
        )
        denominator = d0 * d0 * de * dc * dl * nk
        disc = (n0 * n0 * de * dc * dl * nk - 4 * d0 * d0 * ne * nc * nl * dk) / denominator
        half, width = 0.5 * s0, 0.5 * math.sqrt(abs(disc))
        # A tiny K need not move the float s0**2: then the orbit reaches s0 at once.
        rate = math.atan2(2 * width, s0) if disc < 0 else math.atanh(min(width / half, 1 - 2**-53))
    thresholds.sort()

    def orbit_from(stop: StopReason, s: float) -> Callable[[int], float]:
        if stop is not StopReason.FORCE_CAP:
            return lambda j: anchor + (s - anchor) * slope**j
        d = s - half
        pole = math.pi - math.atan2(width, d)  # where a rotation passes through infinity

        def orbit(j: int) -> float:
            if disc < 0:
                if j * rate >= pole:
                    return -math.inf
                cos, sin = math.cos(j * rate), math.sin(j * rate) / width
            else:
                cos, sin = 1.0, math.tanh(j * rate) / width if disc else j / half
            return half + (d * cos + 0.25 * disc * sin) / (d * sin + cos)

        return orbit

    return orbit_from, thresholds


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
    points: Iterable[Mapping[str, object]],
    workers: int = 1,
) -> list[SweepRow]:
    """Simulate every override point of a parameter grid.

    Each point is a mapping of configuration keys (see ``config.ALL_KEYS``)
    merged over the template by ``config.apply_overrides``; a point's memory
    does not grow with its squat count.  A point with the keys of the last
    point that built a configuration is built over that one from the values
    that are not its very objects: a value object must not change meanwhile.
    Invalid, malformed or stalling points are flagged in their row and do not
    abort the sweep; a ``config`` that is no ``Configuration`` and ``points`` that
    are not iterable raise ``DomainError``.  Row order is grid order; ``workers`` has no effect.
    """
    _expect(config, Configuration, "config")
    try:
        points = iter(points)
    except TypeError:
        kind = type(points).__name__
        raise DomainError(f"points must be an iterable of mappings, got {kind}") from None
    rows, last = [], ({}, config)  # the last point that built a Configuration, and its config
    for point in points:
        if not hasattr(point, "keys"):  # dict()'s test for a mapping
            reason = f"not a mapping: {type(point).__name__}"
            rows.append(SweepRow(params={}, status="invalid", reason=reason))
            continue
        params = dict(point)
        before, built = last
        if params.keys() == before.keys():
            changed = {key: value for key, value in params.items() if value is not before[key]}
        else:
            changed, built = params, config
        try:
            built = apply_overrides(built, changed)
        except (ConfigurationError, DomainError) as exc:
            rows.append(SweepRow(params=params, status="invalid", reason=str(exc)))
            continue
        last = params, built
        rows.append(_evaluate_point(built, params))
    return rows


def _evaluate_point(config: Configuration, params: dict[str, object]) -> SweepRow:
    try:
        run, peak = Run(config, config.max_iterations), None  # streamed: nothing else is kept
        for iterations, last in enumerate(run, 1):  # a run yields a squat or raises
            if peak is None or last[6] > peak:  # max()'s comparisons
                peak = last[6]
    except SimulationError as exc:
        return SweepRow(params=params, status="stall", reason=str(exc))
    full = run.termination is Termination.FULL_COMPRESSION
    return SweepRow(
        params=params,
        status="ok",
        final_energy=last[8],
        iterations=iterations,
        iterations_to_full_compression=iterations if full else None,
        peak_force=peak,
        final_over_e1max=last[8] / e1_max(config.body, config.leg),
        peak_over_cap=peak / config.force_cap,
        termination=run.termination.value,
    )
