"""``Run``'s efficiency and force-cap overrides and its budget, and the fit
objective's lanes, against their scalar references, and the fit's bounded
grid minimum against evaluating every lane.

Each case is one configuration with a few (efficiency, force cap) lanes and
measured cycles made from the configuration's own run.  The explicit
examples cover every rule a lane's run must carry: ratchets, ``full_range``,
ENGAGED_ONLY squats, first-squat and later stalls, retraction beyond the
hip, full compression before the last cycle and the ``tol_gain`` stop.
"""

from __future__ import annotations

import functools
import math
import operator
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
    DomainError,
    LegGeometry,
    LossModel,
    MeasuredCycle,
    SimulationError,
    SpringParams,
    StallError,
    calibration,
    simulate,
)
from springleg.cyclic import Run, StopReason, Termination, _strokes

from conftest import lane_points, worked_config
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
        "cycles": st.integers(2, 10),  # numpy sums 8 or more values pairwise
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
    noise = case.get("noise", 0.01)
    return config, measured_cycles(config, case["measured"], case["seed"], scale, noise), eta, cap


def measured_cycles(config, samples, seed, scale, noise=0.01):
    """Samples of the configuration's own strokes at random displacements
    over the whole leg range, ``samples`` to ``samples + 2`` per cycle, with
    normal noise of ``noise`` times ``scale``; random forces for cycles its
    run does not reach."""
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
            f = f + rng.normal(0.0, noise * scale, len(d))
        else:
            f = rng.uniform(0.0, scale, len(d))
        cycles.append(MeasuredCycle(i + 1, d, f))
    return cycles


def scalar_run(config, eta, cap, budget, override=False):
    """``Run``'s squats of one lane, with what it raised or how it ended.

    The lane's efficiency and cap go into a replaced configuration, or with
    ``override`` into ``Run``'s keyword overrides.  ``Run`` raises
    ``StallError`` on a first-squat stall and ``SimulationError`` on a
    retraction beyond the hip.
    """
    if override:
        run = Run(config, budget, efficiency=float(eta), force_cap=float(cap))
    else:
        trial = replace(
            config,
            loss=replace(config.loss, efficiency=float(eta)),
            force_cap=float(cap),
            max_iterations=budget,
        )
        run = Run(trial, budget)
    squats = []
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


def hexed(squats):
    return [[v.hex() if isinstance(v, float) else v for v in squat] for squat in squats]


@settings(max_examples=150, deadline=None)
@given(CASES)
@with_examples
def test_run_overrides_match_replaced_config(case):
    """``Run`` with a lane's efficiency and cap as overrides yields the
    squats of ``Run`` on the configuration with them replaced, bit for bit
    in every field, and ends the same way or raises the same error."""
    config, cycles, eta, cap = build(case)
    for e, c in zip(eta, cap):
        squats, end = scalar_run(config, e, c, len(cycles))
        got, got_end = scalar_run(config, e, c, len(cycles), override=True)
        assert hexed(got) == hexed(squats)
        if isinstance(end, SimulationError):
            assert type(got_end) is type(end) and str(got_end) == str(end)
        else:
            assert got_end is end


@settings(max_examples=150, deadline=None)
@given(CASES)
@with_examples
def test_lane_objective_matches_reference(case):
    """Each lane's summed squared error is the reference objective's to
    1e-12 of the summed squared measured forces, and both compare as many
    points and penalise the same cycles."""
    config, cycles, eta, cap = build(case)
    sse, n_points = lane_points(cycles, config, eta, cap)
    # Blocks of 1-4 strokes, which also split a lane's cycles; ``_Measured`` fixes
    # its block size when it is built, so the lanes are evaluated inside the patch.
    longest = max(config.sample_count, *(len(c.hip_displacement) for c in cycles))
    with mock.patch.object(calibration, "_BLOCK", (1 + case["seed"] % 4) * longest):
        blocked, _ = lane_points(cycles, config, eta, cap)
    squared = sum(float(np.sum(c.hip_force**2)) for c in cycles)
    for lane, (e, c) in enumerate(zip(eta, cap)):
        ref_sse, ref_points, ref_modelled = reference_objective(cycles, config, float(e), float(c))
        assert abs(sse[lane] - ref_sse) <= 1e-12 * squared
        assert abs(blocked[lane] - ref_sse) <= 1e-12 * squared
        assert n_points[lane] == ref_points
        squats, end = scalar_run(config, e, c, len(cycles))
        assert (0 if isinstance(end, SimulationError) else len(squats)) == ref_modelled


@pytest.mark.parametrize(
    "override, message",
    [
        ({"efficiency": -1.0}, "efficiency must lie in (0, 1], got -1.0"),
        ({"efficiency": 0.0}, "efficiency must lie in (0, 1], got 0.0"),
        ({"efficiency": 1.5}, "efficiency must lie in (0, 1], got 1.5"),
        ({"efficiency": math.nan}, "efficiency must lie in (0, 1], got nan"),
        ({"efficiency": "x"}, "efficiency needs a number, got 'x'"),
        ({"efficiency": True}, "efficiency needs a number, got True"),
        ({"force_cap": math.nan}, "force_cap must be finite and > 0, got nan"),
        ({"force_cap": math.inf}, "force_cap must be finite and > 0, got inf"),
        ({"force_cap": 0.0}, "force_cap must be finite and > 0, got 0.0"),
        ({"force_cap": -16.0}, "force_cap must be finite and > 0, got -16.0"),
        ({"force_cap": "x"}, "force_cap needs a number, got 'x'"),
        ({"max_iterations": 0}, "max_iterations must be >= 1, got 0"),
        ({"max_iterations": -1}, "max_iterations must be >= 1, got -1"),
        ({"max_iterations": True}, "max_iterations needs an integer, got True"),
        ({"max_iterations": 2.0}, "max_iterations needs an integer, got 2.0"),
        ({"max_iterations": None}, "max_iterations needs an integer, got None"),
    ],
)
def test_run_overrides_checked_where_they_enter(override, message):
    """``Run`` rejects an override or a budget the configuration would reject,
    with ``DomainError`` naming the keyword, before it runs a squat."""
    with pytest.raises(DomainError) as raised:
        Run(worked_config(), **{"max_iterations": 5, **override})
    assert str(raised.value) == message


def test_run_budget_takes_a_numpy_integer():
    """A numpy integer budget runs as its ``int``: three squats of a run that
    would go on (18 squats at a 12.25 N cap), ended by the budget."""
    config = worked_config(force_cap=12.25)
    run = Run(config, np.int64(3))
    squats = hexed(run)
    assert type(run.max_iterations) is int and len(squats) == 3
    assert squats == hexed(Run(config, 3)) and run.termination is Termination.ITERATION_CAP


def test_run_overrides_take_any_real_number():
    """An int or numpy integer override runs as its value's float; an
    efficiency of 1, the top of its range, is accepted."""
    config = worked_config()
    want = hexed(Run(config, 5, efficiency=1.0, force_cap=16.0))
    assert hexed(Run(config, 5, efficiency=1, force_cap=np.int64(16))) == want


@settings(max_examples=150, deadline=None)
@given(CASES)
@with_examples
def test_stroke_clamp_is_the_end_force_clamp(case):
    """The model onto measured clamps each leg length into its stroke's range
    before the force line; that is, bit for bit, the line clamped to the end
    forces ``_strokes`` samples, because ``_strokes`` puts its first and last
    samples at ``start`` and ``stop`` and the float line is monotone.  Checked
    at every measured point, before, inside and past each stroke, and one ulp
    around its ends, for one stroke and for a lane's strokes as rows."""
    config, cycles, eta, cap = build(case)
    lstand, seg, spring = config.leg.standing_length, config.leg.segment_length, config.spring
    for e, c in zip(eta, cap):
        squats, _ = scalar_run(config, e, c, len(cycles))
        strokes = [squat for squat in squats if squat[1] != squat[3]]  # not slack
        if not strokes:
            continue
        x, start, stop = np.array([(s[0], s[2], s[9]) for s in strokes]).T
        ends = np.concatenate([start, stop, np.nextafter(start, -1), np.nextafter(stop, 2)])
        beyond = [-0.01, 0.0, 1.01 * config.leg.max_deformation]
        d = np.sort(np.concatenate([cycles[0].hip_displacement, ends, beyond]))
        f = np.interp(d, cycles[0].hip_displacement, cycles[0].hip_force)
        leg_length = lstand - d
        ratio = (x / seg)[:, None]
        line = ratio * spring.stiffness * (spring.free_length - ratio * leg_length)
        force = np.array([_strokes(config, *stroke)[2] for stroke in zip(x, start, stop)])
        want = np.minimum(np.maximum(line, force[:, :1]), force[:, -1:]) - f
        columns = (v[:, None] for v in (x, start, stop))
        rows = calibration._onto_measured(config, *columns, f, leg_length)
        assert rows.tobytes() == want.tobytes()
        for row, stroke in zip(want, zip(x.tolist(), start.tolist(), stop.tolist())):
            one = calibration._onto_measured(config, *stroke, f, leg_length)
            assert one.tobytes() == row.tobytes()


def test_sum_adds_left_to_right():
    """A lane's cycle errors are added left to right at every length: on these
    values numpy's pairwise sum and a compensated sum (``math.fsum``, and the
    builtin ``sum`` from Python 3.12) give another last digit."""
    values = [1e16, 1.0, -1e16, 3.0, 1e-3, 7.0, 2.5, 1e15, 0.1]
    left_to_right = functools.reduce(operator.add, values)
    assert calibration._sum(np.array(values)).hex() == left_to_right.hex()
    assert np.sum(values) != left_to_right and math.fsum(values) != left_to_right


#: Lane sets the bounded grid minimum must get right, named by what their
#: lanes reach; each lane is repeated, so ties are decided by lane order.
LOWEST_EXAMPLES = {
    "first_stall": dict(EXAMPLES["first_stall"], noise=0.0),
    "beyond_hip": dict(EXAMPLES["beyond_hip"], noise=0.05),
    "engaged_only": dict(EXAMPLES["engaged_only"], noise=0.01),
    "all_stalled": dict(
        EXAMPLES["first_stall"],
        lanes=[(0.0788, 0.165), (0.5, 0.1), (1.0, 0.05), (0.2, 0.02)],
        noise=0.01,
    ),
    # Distinct within the flat tolerance: no lane may be dropped.
    "near_flat": dict(
        EXAMPLES["tol_gain"], lanes=[(0.5 + 1e-11 * i, 0.3) for i in (2, 0, 1, 3)], noise=0.01
    ),
    # Cycles of 3-4 samples, fewer than the bound's stride, whose last cycle
    # meets strokes and slack squats: the bound sees one point of it.
    "short_cycles": dict(EXAMPLES["engaged_only"], measured=3, noise=0.01),
    # Ten cycles, past numpy's pairwise threshold of 8: the grid and ``_point``
    # must both add a lane's cycles left to right.
    "ten_cycles": dict(
        EXAMPLES["full_compression_early"],
        cycles=10,
        seed=884,
        lanes=[(0.591, 0.464), (0.44, 0.303), (0.086, 1.054)],
        noise=0.05,
    ),
}


def lowest(cycles, config, eta, cap):
    """``_lowest`` on the cycles' traces, as ``fit_model`` calls it."""
    return calibration._lowest(calibration._Measured(cycles, config), config, eta, cap)


def lowest_of_objective(cycles, config, eta, cap):
    """``_lowest``'s answer from every lane's ``_point``, ``np.argmin`` and ``_is_flat``."""
    values, counts = lane_points(cycles, config, eta, cap)
    lowest = int(np.argmin(values))
    return lowest, values[lowest].hex(), counts[lowest], calibration._is_flat(values)


@settings(max_examples=150, deadline=None)
@given(
    CASES,
    st.lists(st.integers(0, 59), min_size=1, max_size=60),
    st.sampled_from([0.0, 0.01, 0.05]),
)
@example(LOWEST_EXAMPLES["first_stall"], [0, 1, 2, 0, 2, 1], 0.0)
@example(LOWEST_EXAMPLES["beyond_hip"], [2, 1, 0, 1, 2, 0, 0], 0.05)
@example(LOWEST_EXAMPLES["engaged_only"], [1, 0, 2] * 20, 0.01)
@example(LOWEST_EXAMPLES["all_stalled"], list(range(8)), 0.01)
@example(LOWEST_EXAMPLES["near_flat"], [0, 1, 2, 3], 0.01)
@example(LOWEST_EXAMPLES["ten_cycles"], [0, 1, 2], 0.05)
@example(LOWEST_EXAMPLES["short_cycles"], [2, 0, 1, 1, 0, 2], 0.01)
def test_lowest_matches_objective(case, picks, noise):
    """The bounded grid minimum returns the first lowest lane by ``_point``,
    its sse bit for bit, its point count and the flat flag,
    on 1-60 lanes drawn with repeats from the case's lanes."""
    lanes = [case["lanes"][p % len(case["lanes"])] for p in picks]
    config, cycles, eta, cap = build(dict(case, lanes=lanes, noise=noise))
    index, sse, count, flat = lowest(cycles, config, eta, cap)
    assert (index, sse.hex(), count, flat) == lowest_of_objective(cycles, config, eta, cap)


def test_all_stalled_grid_is_flat():
    """Every lane of the all-stalled example stalls on squat 1, so every
    measured force is unexplained on every lane and the grid is flat."""
    config, cycles, eta, cap = build(LOWEST_EXAMPLES["all_stalled"])
    for e, c in zip(eta, cap):
        assert isinstance(scalar_run(config, e, c, len(cycles))[1], StallError)
    assert lowest(cycles, config, eta, cap)[::3] == (0, True)


def test_near_flat_grid_is_flat():
    config, cycles, eta, cap = build(LOWEST_EXAMPLES["near_flat"])
    values, _ = lane_points(cycles, config, eta, cap)
    assert len(set(values)) > 1 and lowest(cycles, config, eta, cap)[3]


def test_cap_range_tie_goes_to_force_cap():
    """At a 16 N cap the worked configuration's cap and range stops coincide
    exactly; ``Run`` gives the tie to FORCE_CAP, with the cap in the
    configuration or as an override."""
    config = worked_config(force_cap=16.0)
    for run in (Run(config, 1), Run(worked_config(), 1, force_cap=16.0)):
        squat = next(iter(run))
        assert squat[3] == 0.07999999999999999
        assert squat[4] is StopReason.FORCE_CAP


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
