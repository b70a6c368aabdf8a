"""max_energy and min_squats of ratchet-free configs, which jump from event to
event in closed form, against the run streamed squat by squat."""

import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from springleg import (
    CompressionPolicy,
    LossModel,
    SimulationError,
    SpringParams,
    StallError,
    max_energy,
    min_squats,
    parse_config,
    simulate,
    spring_capacity,
    spring_energy,
)
from springleg.cyclic import Run, StopReason, Termination
from springleg.explore import _jumped_run, _orbits, _outcome
from springleg.model import initial_spring_length

from conftest import CONFIG_DIR, random_config, worked_config

#: The queries run at least this many squats, as ``explore`` does.
QUERY_BUDGET = 10_000
ENERGY_RTOL = 1e-11
TARGET_RTOL = 1e-9


def critical_cap(config) -> float:
    """s0**2 k / (4 sqrt(eta) l_stand): below it a ratchet-free run converges on
    the cap, above it the run passes a bottleneck on its way to the solid length."""
    s0 = config.spring.free_length
    return s0 * s0 * config.spring.stiffness / (
        4 * math.sqrt(config.loss.efficiency) * config.leg.standing_length
    )


def streamed(config, target):
    """``(max_energy, min_squats(target), termination, energies)`` from the
    squats of ``Run`` at the queries' budget, or the error the run raises."""
    preload = spring_energy(initial_spring_length(config), config.spring)
    run = Run(config, max(config.max_iterations, QUERY_BUDGET))
    try:
        energies = [squat[8] for squat in run]
    except StallError:  # first-squat stall: the start is the fixed point
        return preload, 0 if target <= preload else None, None, []
    except SimulationError as exc:
        return exc
    if run.termination is Termination.FULL_COMPRESSION:
        ceiling = spring_capacity(config)
    else:
        ceiling = max(energies)
    reached = next((n for n, e in enumerate(energies, 1) if e >= target), None)
    return ceiling, 0 if target <= preload else reached, run.termination, energies


def exact_ceiling(config) -> float:
    """``max_energy`` of a ratchet-free run on the same float constants, with
    the squat map and the termination rules of ``Run`` in 40-digit arithmetic."""
    leg, spring = config.leg, config.spring
    with localcontext() as context:
        context.prec = 40
        seg, lstand, k, s0, solid, cap = map(Decimal, (
            leg.segment_length, leg.standing_length, spring.stiffness,
            spring.free_length, spring.solid_length, config.force_cap,
        ))
        span = Decimal(leg.standing_length - leg.max_deformation)
        root_efficiency = Decimal(math.sqrt(config.loss.efficiency))
        x, s = Decimal(config.initial_spring_position), Decimal(initial_spring_length(config))
        previous = k * (s0 - s) ** 2 / 2
        for n in range(1, max(config.max_iterations, QUERY_BUDGET) + 1):
            ratio = x / seg
            s_end = max(ratio * span, solid)
            if config.policy is CompressionPolicy.FORCE_LIMITED:
                s_end = max(s0 - cap / (k * ratio), s_end)
            if s_end >= s:
                break  # a stall: the run ends on the squat before
            energy = k * (s0 - s_end) ** 2 / 2
            if s_end <= solid:
                return spring_capacity(config)
            if energy - previous < Decimal(config.tol_gain):  # squat 1 or the last is the peak
                return float(max(energy, previous) if n > 1 else energy)
            s = s0 - root_efficiency * (s0 - s_end)
            x, previous = s * seg / lstand, energy
        return float(previous)


def assert_answers_match(config, target):
    """Both queries as the streamed run gives them: equal errors, equal squat
    counts unless the target lies within round-off of a squat's energy, and
    energies within 1e-11 relative plus a few ``tol_gain``, where the stop
    squat may move by round-off."""
    expected = streamed(config, target)
    if isinstance(expected, Exception):
        for query in (max_energy, lambda c: min_squats(c, spring_capacity(c))):
            with pytest.raises(type(expected)) as info:
                query(config)
            assert str(info.value) == str(expected)
        return
    ceiling, squats, termination, energies = expected
    energy = max_energy(config)
    if termination is Termination.FULL_COMPRESSION or termination is None:
        assert energy == ceiling
    else:
        tolerance = ENERGY_RTOL * ceiling + 4 * config.tol_gain
        if abs(energy - ceiling) > tolerance:
            # A run that leaves the bottleneck above the critical cap magnifies
            # every rounding, and the streamed run drifts from the exact orbit:
            # the closed form must then be no further from it.
            exact = exact_ceiling(config)
            assert abs(energy - exact) <= abs(ceiling - exact) + tolerance
    answer = min_squats(config, target)
    if answer != squats:
        assert any(abs(e - target) <= TARGET_RTOL * target for e in energies), (answer, squats)


@st.composite
def ratchet_free_configs(draw):
    """Random geometry and spring, efficiency in [0.01, 1], force cap 1e-9 to
    1 (log-uniform, relative) above or below the critical cap, tol_gain 1e-12
    to 1 J, budgets up to 10**4, both policies."""
    config = random_config(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        policy=draw(st.sampled_from(CompressionPolicy)),
        max_iterations=draw(st.integers(1, QUERY_BUDGET)),
    )
    config = replace(config, loss=LossModel(efficiency=draw(st.floats(0.01, 1.0))))
    offset = 1 + 10 ** draw(st.floats(-9.0, 0.0))
    above = draw(st.booleans())
    return replace(
        config,
        force_cap=critical_cap(config) * (offset if above else 1 / offset),
        tol_gain=10 ** draw(st.floats(-12.0, 0.0)),
    )


@settings(max_examples=100, deadline=None)
@given(config=ratchet_free_configs(), fraction=st.floats(0.0, 1.0))
def test_queries_match_the_streamed_run(config, fraction):
    assert_answers_match(config, fraction * spring_capacity(config))


@settings(max_examples=100, deadline=None)
@given(config=ratchet_free_configs())
def test_full_compression_stores_the_capacity(config):
    # A full run ends on the solid stop, so its last squat stores the spring
    # capacity bit for bit, and the queries answer for that squat.
    run = Run(config, config.max_iterations)
    try:
        count = sum(1 for _ in run)
    except SimulationError:
        count = None
    assume(count is not None and run.termination is Termination.FULL_COMPRESSION)
    energies = max_energy(config), spring_capacity(config), simulate(config).final_energy
    assert len({energy.hex() for energy in energies}) == 1
    assert min_squats(config, max_energy(config)) == count


def test_full_compression_ends_on_the_solid_stop():
    # Squat 18 ends 0.5 mm above the solid length, storing 3.15996 J of the
    # 3.2 J capacity; that is no full compression, and squat 19 stores it all.
    config = worked_config(force_cap=12.25)
    result = simulate(config)
    assert result.termination is Termination.FULL_COMPRESSION
    assert result.squats.stop[-2:] == (StopReason.FORCE_CAP, StopReason.SPRING_SOLID)
    assert min_squats(config, max_energy(config)) == len(result.squats.x) == 19


def four_squat_config(**changes):
    return replace(parse_config(CONFIG_DIR / "four_squat_demo.cfg"), **changes)


def test_long_near_critical_runs_match_the_streamed_run(rng):
    # Runs of hundreds to ten thousand squats on the cap, which the random
    # geometries above reach rarely: four_squat_demo near its critical cap.
    lengths = []
    for case in range(40):
        config = four_squat_config(
            loss=LossModel(efficiency=float(rng.uniform(0.3, 1.0))),
            policy=(CompressionPolicy.FORCE_LIMITED, CompressionPolicy.FULL_RANGE)[case % 8 == 7],
            tol_gain=10 ** float(rng.uniform(-12, -6)),
        )
        offset = 1 + 10 ** float(rng.uniform(-9, -2))
        cap = critical_cap(config) * (offset if case % 2 else 1 / offset)
        config = replace(config, force_cap=cap)
        lengths.append(len(streamed(config, 0.0)[3]))
        for fraction in (*rng.uniform(0.0, 1.0, 2), 1.0):
            assert_answers_match(config, fraction * spring_capacity(config))
    assert sum(n >= 1000 for n in lengths) >= 10


@pytest.mark.parametrize("factor", [1.5, 10.0])
def test_large_gain_tolerance_stops_inside_the_bottleneck(factor):
    # 1e-6 above the critical cap, gains fall into a bottleneck at s0/2 and
    # rise after it: with tol_gain 0 the run reaches full compression, with a
    # multiple of the smallest gain it converges on the way in.
    config = four_squat_config(loss=LossModel(efficiency=0.95), tol_gain=0.0)
    config = replace(config, force_cap=critical_cap(config) * (1 + 1e-6))
    run = Run(config, QUERY_BUDGET)
    energies = [squat[8] for squat in run]
    assert run.termination is Termination.FULL_COMPRESSION
    assert max_energy(config) == spring_capacity(config)
    gains = [b - a for a, b in zip(energies, energies[1:])]
    smallest = min(gains)
    tolerant = replace(config, tol_gain=factor * smallest)
    run = Run(tolerant, QUERY_BUDGET)
    squats = list(run)
    assert run.termination is Termination.CONVERGED
    assert len(squats) < gains.index(smallest) + 2  # before the smallest gain
    half = 0.5 * config.spring.free_length
    assert abs(squats[-1][1] - half) < 0.01 * half  # inside the bottleneck
    assert max_energy(tolerant) == pytest.approx(squats[-1][8], rel=ENERGY_RTOL)
    assert min_squats(tolerant, squats[-1][8]) == len(squats)
    assert_answers_match(tolerant, 0.5 * spring_capacity(tolerant))


def test_stall_after_the_first_squat():
    # Squat 1 starts below the lower stall root of s**2 - s0 s + c; the lossy
    # retraction puts squat 2 between the roots, where the cap cannot compress.
    config = worked_config(
        initial_spring_position=0.018,
        force_cap=9.0,
        spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.004),
        loss=LossModel(efficiency=0.25),
    )
    run = Run(config, QUERY_BUDGET)
    (squat,) = run
    assert run.termination is Termination.STALLED
    assert max_energy(config) == squat[8]
    assert min_squats(config, squat[8]) == 1
    assert min_squats(config, squat[8] * (1 + 1e-9)) is None
    assert_answers_match(config, 0.5 * (squat[7] + squat[8]))


def test_jump_landing_on_a_stall_ends_as_the_run():
    # Lossless at half the critical cap, the orbit falls to the cap's fixed
    # point, which is a stall point: the closed form stalls on the squat the
    # jump lands on, after squat 20, and the run after its 21st squat, whose end
    # length is one float step shorter.
    config = four_squat_config(loss=LossModel(efficiency=1.0), tol_gain=0.0)
    config = replace(config, force_cap=critical_cap(config) / 2)
    run = Run(config, QUERY_BUDGET)
    squats = list(run)
    assert run.termination is Termination.STALLED and len(squats) == 21
    termination, last, peak, count, reached = _jumped_run(config, math.inf, QUERY_BUDGET)
    assert termination is Termination.STALLED and count == 20 and reached is None
    assert peak == last[8] == pytest.approx(squats[-1][8], rel=1e-14)
    assert last[4] is squats[-1][4] is StopReason.FORCE_CAP
    numbers = [0, 1, 2, 3, 5, 6, 7, 8, 9]  # all but the stop
    assert [last[i] for i in numbers] == pytest.approx([squats[-1][i] for i in numbers], rel=1e-14)
    assert_answers_match(config, 0.5 * spring_capacity(config))


@pytest.mark.parametrize("budget", [1, 2])
def test_budget_reached_before_the_first_jump_ends_as_the_run(budget):
    # Squats 1 and 2 are stepped, not jumped, so the run's own squats reach
    # the budget.
    config = four_squat_config(loss=LossModel(efficiency=0.95))
    config = replace(config, force_cap=critical_cap(config) * (1 - 1e-3))
    run = Run(config, budget)
    *_, last = run
    assert run.termination is Termination.ITERATION_CAP
    outcome = (run.termination, last, last[8], budget, None)
    assert _jumped_run(config, math.inf, budget) == outcome


def test_beyond_hip_error_after_the_first_squat():
    # With continuous locking the orbit is monotone from squat 1; a rising one
    # stores less at squat 3 than at squat 2 and converges before retraction 2,
    # so only the first retraction can go beyond the hip.
    config = worked_config(
        spring=SpringParams(stiffness=1000.0, free_length=0.35, solid_length=0.01),
        initial_spring_position=0.2,
        force_cap=400.0,
        loss=LossModel(efficiency=0.01),
    )
    with pytest.raises(SimulationError, match="retraction after squat 1 .* beyond the hip"):
        max_energy(config)
    assert_answers_match(config, 0.5 * spring_capacity(config))


@pytest.mark.parametrize("tol_gain", [1e-12, 0.0])
def test_leg_range_then_cap_then_leg_range(tol_gain):
    # A short leg range binds while the spring is long and again near the
    # solid length; the cap binds in between, 1.2e-6 above its critical value.
    # With tol_gain 0 the squats after full compression would run on.
    config = four_squat_config(
        leg=replace(four_squat_config().leg, max_deformation=0.05),
        loss=LossModel(efficiency=0.98),
        tol_gain=tol_gain,
    )
    config = replace(config, force_cap=critical_cap(config) * (1 + 1.2e-6))
    stops = [squat[4].value for squat in Run(config, QUERY_BUDGET)]
    changes = [b for a, b in zip(stops, stops[1:]) if a != b]
    assert stops[0] == "leg_range" and changes[:2] == ["force_cap", "leg_range"]
    assert len(stops) > 1000
    for fraction in (0.2, 0.6, 0.95, 1.0):
        assert_answers_match(config, fraction * spring_capacity(config))
    assert min_squats(config, spring_capacity(config)) == len(stops)


@pytest.mark.parametrize(
    "efficiency, termination",
    [
        (1.0, Termination.FULL_COMPRESSION),
        (0.99, Termination.CONVERGED),
        (0.999, Termination.ITERATION_CAP),
    ],
)
def test_full_range_runs_of_many_squats(efficiency, termination):
    # A short leg range shrinks the spring by about 0.1% per squat.
    config = four_squat_config(
        policy=CompressionPolicy.FULL_RANGE,
        leg=replace(four_squat_config().leg, max_deformation=0.001),
        loss=LossModel(efficiency=efficiency),
        tol_gain=0.0 if efficiency == 1 else 1e-12,  # full compression gains nothing
    )
    run = Run(config, QUERY_BUDGET)
    assert sum(1 for _ in run) > 1000
    assert run.termination is termination
    for fraction in (0.1, 0.5, 0.9, 1.0):
        assert_answers_match(config, fraction * spring_capacity(config))


@pytest.mark.parametrize(
    "efficiency, squats, termination",
    [(1.0, 9, Termination.FULL_COMPRESSION), (0.9, 63, Termination.CONVERGED)],
)
def test_cap_orbit_past_its_pole_ends_as_the_run(efficiency, squats, termination):
    # At 0.9 times the critical cap, disc > 0 and the cap map s -> s0 - K/s has
    # the fixed points s0/2 -+ sqrt(disc)/2.  A run started in the cap band, a
    # quarter of the way down from the lower fixed point to the band's lower
    # root r1, falls away from that point and leaves the band; the closed form
    # of its cap squats passes its pole within a few squats and goes on above
    # the fixed points, down to the upper one.
    config = worked_config(
        spring=SpringParams(1000.0, 0.12, 0.002), loss=LossModel(efficiency=efficiency)
    )
    leg, s0, cap = config.leg, config.spring.free_length, 0.9 * critical_cap(config)
    ratio = (leg.standing_length - leg.max_deformation) / leg.standing_length
    c = cap * leg.standing_length / config.spring.stiffness
    s_low = 0.5 * (s0 - math.sqrt(s0 * s0 - 4 * math.sqrt(efficiency) * c))
    r1 = 0.5 * (s0 - math.sqrt(s0 * s0 - 4 * ratio * c)) / ratio
    x1 = (r1 + 0.75 * (s_low - r1)) * leg.segment_length / leg.standing_length
    config = replace(config, force_cap=cap, initial_spring_position=x1)
    orbit = _orbits(config)[0](StopReason.FORCE_CAP, initial_spring_length(config))
    assert orbit(squats) > 0.5 * s0
    run = Run(config, QUERY_BUDGET)
    stops, energies = zip(*((squat[4], squat[8]) for squat in run))
    assert stops[0] is StopReason.FORCE_CAP
    assert (len(energies), run.termination) == (squats, termination)
    assert max_energy(config) == energies[-1]
    assert min_squats(config, energies[-1]) == squats


@st.composite
def cap_orbits_below_the_lower_fixed_point(draw):
    """Force-limited ratchet-free configs below the critical cap (disc > 0) whose
    run starts in the cap band, between its lower root r1 and the lower fixed
    point t of the cap map s -> s0 - e c / s, e = sqrt(efficiency): the cap
    squats fall away from t, and their closed form passes its pole unless the
    run ends first.  Budgets reach ten times the queries' least one."""
    config = random_config(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        max_iterations=draw(st.integers(1, 10 * QUERY_BUDGET)),
    )
    leg, spring, s0 = config.leg, config.spring, config.spring.free_length
    ratio = (leg.standing_length - leg.max_deformation) / leg.standing_length
    # t lies in the band, where ratio t**2 - s0 t + c < 0, if (1 - ratio) t > (s0 - t) (1 - e) / e,
    # which some t < s0/2 meets if e > 1 / (2 - ratio).
    e = draw(st.floats(1 / (2 - ratio), 1.0, exclude_min=True))
    least = s0 * (1 - e) / (e * (1 - ratio) + 1 - e)
    t = least + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (0.5 * s0 - least)
    c = t * (s0 - t) / e
    r1 = max(0.5 * (s0 - math.sqrt(s0 * s0 - 4 * ratio * c)) / ratio, spring.solid_length)
    s = r1 + draw(st.floats(0.0, 1.0)) * (t - r1)
    assume(r1 < s < t)
    return replace(
        config,
        loss=LossModel(efficiency=e * e),
        force_cap=c * spring.stiffness / leg.standing_length,
        initial_spring_position=s * leg.segment_length / leg.standing_length,
        tol_gain=10 ** draw(st.floats(-12.0, 0.0)),
    )


@settings(max_examples=100, deadline=None)
@given(config=cap_orbits_below_the_lower_fixed_point(), fraction=st.floats(0.0, 1.0))
def test_cap_orbit_from_below_its_lower_fixed_point_ends_as_the_run(config, fraction):
    assert_answers_match(config, fraction * spring_capacity(config))


def test_cap_too_small_for_the_closed_form_streams():
    # K = sqrt(efficiency) cap l_stand / k underflows to 0: the run streams,
    # and its first squat stalls, as the cap stops it at the free length.
    config = worked_config(force_cap=5e-324)
    preload = spring_energy(initial_spring_length(config), config.spring)
    assert max_energy(config) == preload
    assert min_squats(config, spring_capacity(config)) is None


def test_billion_squat_budget_just_below_the_critical_cap():
    # With tol_gain 0 the run ends where it settles on a float fixed point near
    # s*, after some 33,000 squats, to which the closed form jumps.
    config = worked_config(
        spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
        loss=LossModel(efficiency=0.95),
        max_iterations=10**9,
        tol_gain=0.0,
    )
    config = replace(config, force_cap=critical_cap(config) * (1 - 1e-7))
    k, s0 = config.spring.stiffness, config.spring.free_length
    c = config.force_cap * config.leg.standing_length / k
    s_star = 0.5 * (s0 + math.sqrt(s0 * s0 - 4 * math.sqrt(0.95) * c))
    ceiling = 0.5 * k * (c / s_star) ** 2
    assert max_energy(config) == pytest.approx(ceiling, rel=1e-12)
    assert min_squats(config, ceiling * (1 - 1e-6)) > 1000
    assert min_squats(config, ceiling * (1 + 1e-9)) is None


@pytest.mark.parametrize("digits", range(2, 8))
def test_closed_form_ends_as_the_run_on_a_repeated_squat(digits):
    # With tol_gain 0 and the cap 10**-digits below its critical value, the run
    # ends on a squat that repeats the one before, after 164 (digits 2) to
    # 33,161 squats (digits 7); the closed form ends it as converged too.
    config = worked_config(
        spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
        loss=LossModel(efficiency=0.95),
        max_iterations=10**5,
        tol_gain=0.0,
    )
    config = replace(config, force_cap=critical_cap(config) * (1 - 10.0**-digits))
    run = Run(config, config.max_iterations)
    squats = list(run)
    assert run.termination is Termination.CONVERGED and squats[-1] == squats[-2]
    assert _outcome(config, math.inf)[0] is Termination.CONVERGED
    assert_answers_match(config, 0.5 * squats[-1][8])
