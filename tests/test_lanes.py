"""The lane squat map and the lane fit objective against their scalar references.

Each case is one configuration with a few (efficiency, force cap) lanes and
measured cycles made from the configuration's own run.  The explicit
examples cover every rule the lanes must carry: ratchets, ``full_range``,
ENGAGED_ONLY squats, first-squat and later stalls, retraction beyond the
hip, full compression before the last cycle and the ``tol_gain`` stop.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from springleg import (
    BodyParams,
    CompressionPolicy,
    Configuration,
    LegGeometry,
    LossModel,
    MeasuredCycle,
    SimulationError,
    SpringParams,
    StallError,
    calibration,
    simulate,
)
from springleg.cyclic import LANE_STOPS, Run, StopReason, Termination, run_lanes

from conftest import worked_config
from oracle import reference_objective

CASES = st.fixed_dictionaries(
    {
        "lt": st.floats(0.2, 0.6),
        "stand": st.floats(1.2, 1.95),
        "deform": st.floats(0.15, 0.75),
        "position": st.floats(0.25, 1.0),
        "free": st.floats(1.0, 1.25),
        "solid": st.floats(0.1, 0.9),
        "k": st.floats(300.0, 3000.0),
        "cap": st.floats(0.02, 1.2),
        "eta": st.floats(0.05, 1.0),
        "pitch": st.just(0.0) | st.floats(0.01, 0.6),
        "full_range": st.booleans(),
        "cycles": st.integers(2, 6),
        "samples": st.integers(2, 40),
        "tol_gain": st.just(1e-12) | st.floats(1e-4, 0.1),
        "lanes": st.lists(
            st.tuples(st.floats(0.05, 1.0), st.floats(0.02, 1.2)), min_size=1, max_size=6
        ),
        "measured": st.integers(2, 40),
        "seed": st.integers(0, 2**32 - 1),
    }
)

#: One case per rule, named by the rule its lanes reach.
EXAMPLES = {
    "full_compression_early": dict(
        lt=0.45, stand=1.87, deform=0.615, position=0.419, free=1.08, solid=0.799, k=314.0,
        cap=0.989, eta=0.807, pitch=0.286, full_range=False, cycles=3, samples=29, tol_gain=1e-12,
        lanes=[(0.529, 0.673), (0.996, 0.955), (0.641, 1.19)], measured=17, seed=1,
    ),
    "tol_gain": dict(
        lt=0.307, stand=1.86, deform=0.456, position=0.885, free=1.16, solid=0.693, k=547.0,
        cap=0.659, eta=0.532, pitch=0.524, full_range=False, cycles=3, samples=7, tol_gain=1e-12,
        lanes=[(0.357, 0.197), (0.826, 0.468), (0.98, 0.716)], measured=9, seed=2,
    ),
    "first_stall": dict(
        lt=0.277, stand=1.9, deform=0.481, position=0.385, free=1.22, solid=0.613, k=1840.0,
        cap=0.464, eta=0.44, pitch=0.151, full_range=False, cycles=2, samples=23, tol_gain=1e-12,
        lanes=[(0.356, 0.907), (0.0739, 0.459), (0.0788, 0.165)], measured=30, seed=3,
    ),
    "later_stall": dict(
        lt=0.587, stand=1.69, deform=0.407, position=0.643, free=1.22, solid=0.375, k=1890.0,
        cap=0.827, eta=0.388, pitch=0.316, full_range=False, cycles=5, samples=39, tol_gain=1e-12,
        lanes=[(0.0549, 0.909), (0.82, 0.181), (0.448, 0.982)], measured=25, seed=4,
    ),
    "engaged_only": dict(
        lt=0.47, stand=1.48, deform=0.189, position=0.639, free=1.19, solid=0.253, k=1020.0,
        cap=0.653, eta=0.761, pitch=0.539, full_range=True, cycles=2, samples=5, tol_gain=0.0645,
        lanes=[(0.735, 1.2), (0.942, 1.01), (0.788, 0.486)], measured=12, seed=5,
    ),
    "beyond_hip": dict(
        lt=0.485, stand=1.56, deform=0.229, position=0.979, free=1.17, solid=0.203, k=2750.0,
        cap=0.142, eta=0.138, pitch=0.0, full_range=True, cycles=6, samples=17, tol_gain=0.0612,
        lanes=[(0.114, 0.691), (0.486, 0.686), (0.75, 0.821)], measured=8, seed=6,
    ),
}


def build(case: dict):
    """The configuration, measured cycles and lane arrays of ``case``.

    Caps are fractions of the hip force that fully compresses the spring at
    the initial position; under ``full_range`` every lane keeps the
    configuration's cap, since only the efficiency can be fitted there.
    """
    lt = case["lt"]
    lstand, x1 = lt * case["stand"], lt * case["position"]
    s1 = x1 / lt * lstand
    s0, k = s1 * case["free"], case["k"]
    scale = x1 / lt * k * s0
    config = Configuration(
        body=BodyParams(mass=1.0),
        leg=LegGeometry(lt, lstand, lstand * case["deform"]),
        spring=SpringParams(k, s0, s1 * case["solid"]),
        initial_spring_position=x1,
        force_cap=scale * case["cap"],
        loss=LossModel(case["eta"], lt * case["pitch"]),
        policy=CompressionPolicy.FULL_RANGE
        if case["full_range"]
        else CompressionPolicy.FORCE_LIMITED,
        max_iterations=case["cycles"],
        sample_count=case["samples"],
        tol_gain=0.5 * k * s0 * s0 * case["tol_gain"],
    )
    eta = np.array([e for e, _ in case["lanes"]])
    if case["full_range"]:
        cap = np.full(len(eta), config.force_cap)
    else:
        cap = np.array([scale * c for _, c in case["lanes"]])
    return config, measured_cycles(config, case["measured"], case["seed"], scale), eta, cap


def measured_cycles(config, samples, seed, scale):
    """Noisy samples of the configuration's own strokes at random
    displacements over the whole leg range, ``samples`` to ``samples + 2``
    per cycle; random forces for cycles its run does not reach."""
    rng = np.random.default_rng(seed)
    try:
        strokes = simulate(config).trajectories
    except SimulationError:
        strokes = ()
    cycles = []
    for i in range(config.max_iterations):
        d = np.sort(rng.uniform(0.0, config.leg.max_deformation, samples + i % 3))
        if i < len(strokes):
            f = np.interp(d, strokes[i].leg_deformation, strokes[i].hip_force)
            f = f + rng.normal(0.0, 0.01 * scale, len(d))
        else:
            f = rng.uniform(0.0, scale, len(d))
        cycles.append(MeasuredCycle(i + 1, d, f))
    return cycles


def scalar_run(config, eta, cap, budget):
    """``Run``'s squats of one lane, with what it raised or how it ended.

    ``Run`` raises ``StallError`` on a first-squat stall and
    ``SimulationError`` on a retraction beyond the hip.
    """
    trial = replace(
        config,
        loss=replace(config.loss, efficiency=float(eta)),
        force_cap=float(cap),
        max_iterations=budget,
    )
    run, squats = Run(trial, budget), []
    try:
        for squat in run:
            squats.append(squat)
    except SimulationError as error:
        return squats, error
    return squats, run.termination


def with_examples(test):
    for case in EXAMPLES.values():
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(CASES)
@with_examples
def test_lane_map_matches_run(case):
    """Every lane's squats equal ``Run``'s bit for bit in x, s_start,
    dead_band, s_end, stop and travel, and the lane stops where ``Run``
    stops or raises."""
    config, cycles, eta, cap = build(case)
    lanes = run_lanes(config, eta, cap, len(cycles))
    for lane, (e, c) in enumerate(zip(eta, cap)):
        squats, end = scalar_run(config, e, c, len(cycles))
        assert lanes.squats[lane] == len(squats)
        assert lanes.raised[lane] == isinstance(end, SimulationError)
        for n, (x, s_start, dead_band, s_end, stop, *_, travel) in enumerate(squats):
            got = [lanes.x, lanes.s_start, lanes.dead_band, lanes.s_end, lanes.travel]
            assert [float(v[n, lane]).hex() for v in got] == [
                v.hex() for v in (x, s_start, dead_band, s_end, travel)
            ]
            assert LANE_STOPS[lanes.stop[n, lane]] is stop


@settings(max_examples=150, deadline=None)
@given(CASES)
@with_examples
def test_lane_objective_matches_reference(case):
    """Each lane's summed squared error is the reference objective's to
    1e-12 of the summed squared measured forces, and both compare as many
    points and penalise the same cycles."""
    config, cycles, eta, cap = build(case)
    sse, n_points = calibration.objective(cycles, config, eta, cap)
    # Blocks of 1-4 (cycle, lane) rows, which also split cycles.
    longest = max(config.sample_count, *(len(c.hip_displacement) for c in cycles))
    with mock.patch.object(calibration, "_BLOCK_ELEMENTS", (1 + case["seed"] % 4) * longest):
        blocked, _ = calibration.objective(cycles, config, eta, cap)
    lanes = run_lanes(config, eta, cap, len(cycles))
    squared = sum(float(np.sum(c.hip_force**2)) for c in cycles)
    for lane, (e, c) in enumerate(zip(eta, cap)):
        ref_sse, ref_points, ref_modelled = reference_objective(cycles, config, float(e), float(c))
        assert abs(sse[lane] - ref_sse) <= 1e-12 * squared
        assert abs(blocked[lane] - ref_sse) <= 1e-12 * squared
        assert n_points[lane] == ref_points
        assert (0 if lanes.raised[lane] else lanes.squats[lane]) == ref_modelled


def test_cap_range_tie_goes_to_force_cap():
    """At a 16 N cap the worked configuration's cap and range stops coincide
    exactly; like ``Run``, the lane gives the tie to FORCE_CAP."""
    config = worked_config(force_cap=16.0)
    lanes = run_lanes(config, np.array([1.0]), np.array([16.0]), 1)
    squat = next(iter(Run(config, 1)))
    assert lanes.s_end[0, 0] == squat[3] == 0.07999999999999999
    assert LANE_STOPS[lanes.stop[0, 0]] is squat[4] is StopReason.FORCE_CAP


def regimes(case: dict) -> set[str]:
    """The rules the lanes of ``case`` reach, from ``Run``."""
    config, cycles, eta, cap = build(case)
    found = {"ratchet"} if config.loss.ratchet_pitch > 0 else set()
    if config.policy is CompressionPolicy.FULL_RANGE:
        found.add("full_range")
    for e, c in zip(eta, cap):
        squats, end = scalar_run(config, e, c, len(cycles))
        if isinstance(end, StallError):
            found.add("first_stall")
        elif isinstance(end, SimulationError):
            found.add("beyond_hip")
        elif end is Termination.STALLED:
            found.add("later_stall")
        elif end is Termination.FULL_COMPRESSION and len(squats) < len(cycles):
            found.add("full_compression_early")
        elif end is Termination.CONVERGED:
            found.add("tol_gain")
        if any(squat[4] is StopReason.ENGAGED_ONLY for squat in squats):
            found.add("engaged_only")
    return found


@pytest.mark.parametrize("rule", sorted(EXAMPLES))
def test_examples_reach_their_rule(rule):
    assert rule in regimes(EXAMPLES[rule])


def test_examples_cover_ratchet_and_full_range():
    reached = set().union(*(regimes(case) for case in EXAMPLES.values()))
    assert {"ratchet", "full_range"} <= reached
