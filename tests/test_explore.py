"""Design-space queries: squat counts, energy ceilings, sweeps."""

import math
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from springleg import (
    ALL_KEYS,
    CompressionPolicy,
    ConfigurationError,
    DomainError,
    LossModel,
    SimulationError,
    SpringParams,
    StallError,
    SweepRow,
    config_from_values,
    e1_max,
    max_energy,
    min_squats,
    parse_config,
    simulate,
    spring_capacity,
    spring_energy,
    sweep,
)
from springleg.cyclic import Run, Termination, _recurrence
from springleg.explore import _outcome
from springleg.model import initial_spring_length

from conftest import CONFIG_DIR, oracle_params, random_config, values_from_config, worked_config
from oracle import oracle_energy, oracle_simulate


def oracle_answers(config, target: float) -> tuple[float, int | None, set[str]]:
    """max_energy, min_squats(target) and the stop reasons met, from the
    oracle's run to the queries' 10,000-squat budget."""
    params = oracle_params(config, max_iter=10_000)
    k, s0 = params["k"], params["s0"]
    preload = oracle_energy(min(params["x1"] / params["lt"] * params["lstand"], s0), k, s0)
    try:
        ref = oracle_simulate(params)
    except RuntimeError:  # first-squat stall: the start is the fixed point
        return preload, 0 if target <= preload else None, {"stall"}
    records = ref["records"]
    if ref["full_at"] is not None:
        ceiling = oracle_energy(params["smin"], k, s0)
    else:
        ceiling = records[-1]["e_after"]
    reached = (n for n, r in enumerate(records, 1) if r["e_after"] >= target)
    squats = 0 if target <= preload else next(reached, None)
    return ceiling, squats, {r["reason"] for r in records}


class TestMinSquats:
    def test_zero_target(self):
        assert min_squats(worked_config(), 0.0) == 0

    def test_worked_two_squats(self):
        assert min_squats(worked_config(), 2.0) == 2

    def test_one_squat(self):
        assert min_squats(worked_config(), 0.5) == 1

    def test_target_beyond_capacity_rejected(self):
        config = worked_config()
        with pytest.raises(DomainError, match="capacity"):
            min_squats(config, spring_capacity(config) * 1.01)

    def test_nan_target_rejected(self):
        config = worked_config()
        with pytest.raises(DomainError, match="nan"):
            min_squats(config, math.nan)
        assert min_squats(config, -math.inf) == 0

    def test_bool_target_rejected(self):
        # float(True) and float(np.True_) are 1.0, which would answer for a 1 J target.
        for target in (True, np.True_):
            with pytest.raises(DomainError) as info:
                min_squats(worked_config(), target)
            assert str(info.value) == f"target energy needs a number, got {target!r}"

    def test_target_beyond_float_range_rejected(self):
        config = worked_config()
        for target in (10**400, -(10**400)):
            with pytest.raises(DomainError) as info:
                min_squats(config, target)
            assert str(info.value) == f"target energy needs a number, got {target!r}"
        with pytest.raises(DomainError) as info:
            min_squats(config, 10**5000)
        assert str(info.value) == "target energy needs a number, got <int too long to print>"

    def test_exact_capacity_is_allowed(self):
        config = worked_config()
        assert min_squats(config, spring_capacity(config)) == 3

    def test_infeasible_when_recurrence_converges_short(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=10.0,
        )
        assert min_squats(config, spring_capacity(config)) is None

    def test_monotone_in_target_and_cap(self):
        config = worked_config()
        targets = [0.0, 0.4, 0.8, 1.6, 2.4, 3.1]
        counts = [min_squats(config, t) for t in targets]
        assert counts == sorted(counts)
        # a lower cap can never reach a target in fewer squats
        tighter = worked_config(force_cap=14.0)
        for target in (0.5, 1.5, 2.5):
            assert min_squats(tighter, target) >= min_squats(config, target)


class TestMaxEnergy:
    def test_ample_range_reaches_capacity(self):
        config = worked_config()
        assert max_energy(config) == pytest.approx(spring_capacity(config), rel=1e-12)
        assert max_energy(config) == pytest.approx(3.2, rel=1e-12)

    def test_low_cap_fixed_point_matches_bisection(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=10.0,
        )
        ceiling = max_energy(config)
        # the fixed point satisfies k*s*(s0-s)/standing = cap; solve by
        # bisection on the larger root's branch as an independent check
        k, s0, lstand, cap = 1000.0, 0.12, 0.3, 10.0
        lo, hi = s0 / 2, s0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if k * mid * (s0 - mid) / lstand >= cap:
                lo = mid
            else:
                hi = mid
        s_star = 0.5 * (lo + hi)
        assert ceiling == pytest.approx(0.5 * k * (s0 - s_star) ** 2, rel=1e-6)

    def test_degenerate_spring_stores_nothing(self):
        config = worked_config(
            spring=SpringParams(
                stiffness=1000.0, free_length=0.12, solid_length=0.12 * (1 - 1e-9)
            ),
        )
        assert max_energy(config) == pytest.approx(0.0, abs=1e-12)


def settling_ratchet_config(force_cap, efficiency, pitch, max_iterations):
    """four_squat_demo below its critical cap with a fine ratchet and tol_gain
    0: no squat gains less than 0, so the run ends, converged, at the first
    squat that repeats the one before it."""
    config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
    return replace(
        config,
        force_cap=force_cap,
        loss=LossModel(efficiency=efficiency, ratchet_pitch=pitch),
        tol_gain=0.0,
        max_iterations=max_iterations,
    )


SETTLING_RATCHETS = pytest.mark.parametrize(
    "force_cap, efficiency, pitch",
    [
        (232.70286216318496, 0.9329731716499092, 2.9461106082787717e-06),
        (229.14718897707976, 0.9641328169139375, 4.0343877090258614e-07),
    ],
)


class TestRatchetFixedPoint:
    @SETTLING_RATCHETS
    @pytest.mark.parametrize("budget", [10_000, 25_000])
    def test_answers_equal_the_streamed_run(self, force_cap, efficiency, pitch, budget):
        """The run ends, converged, at its first squat that repeats the one
        before, which is the squat the map reaches at the budget; the queries'
        answers equal, bit for bit, those of every squat streamed, and so does
        the termination, also where the least positive gain tolerance ends
        the run on the first squat that gains nothing."""
        config = settling_ratchet_config(force_cap, efficiency, pitch, budget)
        converging = replace(config, tol_gain=5e-324)
        run = Run(converging, budget)
        last = list(run)[-1]
        assert run.termination is Termination.CONVERGED
        assert _outcome(converging, math.inf)[:2] == (Termination.CONVERGED, last)
        run = Run(config, budget)
        squats = list(run)
        assert run.termination is Termination.CONVERGED and len(squats) < budget
        assert squats[-1] == squats[-2]
        assert all(a != b for a, b in zip(squats[:-2], squats[1:-1]))
        assert _outcome(config, math.inf)[:2] == (Termination.CONVERGED, squats[-1])
        squat, retract, _ = _recurrence(config)  # the map alone, to the budget
        done = squat(1, config.initial_spring_position, initial_spring_length(config), 0.0)
        for n in range(2, budget + 1):
            done = squat(n, *retract(n - 1, done[3]))
        assert done == squats[-1]
        energies = [squat[8] for squat in squats]
        assert max_energy(config) == energies[-1]
        preload = spring_energy(initial_spring_length(config), config.spring)
        targets = [0.5 * (preload + energies[0]), energies[1], energies[len(energies) // 2]]
        targets += [energies[-1], math.nextafter(energies[-1], math.inf)]
        for target in targets:
            reached = next((n for n, e in enumerate(energies, 1) if e >= target), None)
            assert min_squats(config, target) == reached

    @SETTLING_RATCHETS
    def test_billion_squat_budget_answers_at_once(self, force_cap, efficiency, pitch):
        # The run ends at its first repeated squat, whatever its budget.
        config = settling_ratchet_config(force_cap, efficiency, pitch, 10**9)
        start = time.perf_counter()
        energy = max_energy(config)
        assert time.perf_counter() - start < 1.0
        assert energy == max_energy(replace(config, max_iterations=10_000))


class TestQueriesAgainstOracle:
    def test_random_configs_match_oracle(self, rng):
        # ratchet, full_range and dead-band (ENGAGED_ONLY) squats all occur
        seen = set()
        for case in range(90):
            pitch = (0.0, 0.004, float(rng.uniform(0.02, 0.12)))[case % 3]
            config = random_config(
                rng,
                efficiency=1.0 if case % 4 else float(rng.uniform(0.8, 1.0)),
                ratchet_pitch=pitch,
                policy=(CompressionPolicy.FORCE_LIMITED, CompressionPolicy.FULL_RANGE)[case % 5 == 0],
            )
            target = float(rng.uniform(0.0, 1.0)) * spring_capacity(config)
            ceiling, squats, stops = oracle_answers(config, target)
            seen |= stops | {config.policy.value}
            assert max_energy(config) == pytest.approx(ceiling, rel=1e-9, abs=1e-12)
            assert min_squats(config, target) == squats
        assert {"engaged_only", "force_cap", "leg_range", "full_range"} <= seen


class TestQueryMemory:
    def test_queries_keep_constant_memory(self):
        # just below the critical cap k*s0^2/(4*standing) = 12 N the run
        # neither converges nor compresses fully within the 10,000 budget
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=12.0 * (1 - 1e-7),
        )
        assert len(simulate(replace(config, max_iterations=10_000)).records) == 10_000
        target = 0.99 * spring_capacity(config)
        tracemalloc.start()
        try:
            energy = max_energy(config)
            squats = min_squats(config, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert energy < target and squats is None
        assert peak < 2**20

    def test_min_squats_streams_past_the_answer(self):
        # the lossy retraction after squat 1 needs a position beyond the hip:
        # squat 1 already reaches the first target, but the run fails, so
        # min_squats raises like simulate and max_energy, whatever the target
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.35, solid_length=0.01),
            initial_spring_position=0.2,
            force_cap=400.0,
            loss=LossModel(efficiency=0.01),
        )
        with pytest.raises(SimulationError, match="beyond the hip"):
            simulate(config)
        with pytest.raises(SimulationError, match="beyond the hip"):
            max_energy(config)
        first = simulate(replace(config, max_iterations=1)).records[0]
        preload = spring_energy(first.state.spring_length_start, config.spring)
        reached = 0.5 * (preload + first.energy_after)
        assert first.energy_after >= reached
        for target in (reached, spring_capacity(config)):
            with pytest.raises(SimulationError, match="beyond the hip"):
                min_squats(config, target)


def tolerant_four_squat_config():
    """four_squat_demo at half its cap with a coarse gain tolerance: the
    run converges after 4 squats, where the default tolerance takes 25."""
    config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
    return replace(config, tol_gain=0.5, max_iterations=1000, force_cap=0.5 * config.force_cap)


class TestSweep:
    def test_single_point_equals_simulate(self):
        config = worked_config()
        rows = sweep(config, [{}])
        result = simulate(config)
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert rows[0].final_energy == result.final_energy
        assert rows[0].iterations == len(result.records)

    def test_point_keeps_the_template_tolerances(self):
        # tol_gain has no flat key; points ran with the default
        config = tolerant_four_squat_config()
        (row,) = sweep(config, [{}])
        result = simulate(config)
        assert (row.iterations, row.final_energy, row.termination) == (
            len(result.records),
            result.final_energy,
            result.termination.value,
        )
        assert row.iterations == 4

    def test_cap_sweep_shows_force_energy_tradeoff(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
        )
        caps = [50.0, 75.0, 100.0]
        rows = sweep(config, [{"force_cap_n": c} for c in caps])
        iterations = [r.iterations for r in rows]
        assert iterations == sorted(iterations, reverse=True)  # lower cap, more squats
        assert all(r.peak_force <= c * (1 + 1e-12) for r, c in zip(rows, caps))

    def test_stall_rows_flagged_without_abort(self):
        # middle point has a cap below the preload force: first-squat stall
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.13, solid_length=0.04),
        )
        rows = sweep(
            config,
            [{"force_cap_n": 100.0}, {"force_cap_n": 1.0}, {"force_cap_n": 50.0}],
        )
        assert [r.status for r in rows] == ["ok", "stall", "ok"]
        assert "no compression" in rows[1].reason

    def test_ok_rows_name_their_termination(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.13, solid_length=0.04),
        )
        rows = sweep(config, [{}, {"force_cap_n": 1.0}, {"max_iterations": 1}])
        assert [r.termination for r in rows] == ["full_compression", None, "iteration_cap"]

    def test_invalid_rows_flagged(self):
        rows = sweep(worked_config(), [{"efficiency": 1.2}, {"efficiency": 1.0}])
        assert rows[0].status == "invalid"
        assert "efficiency" in rows[0].reason
        assert rows[1].status == "ok"

    def test_non_finite_point_flagged_without_abort(self):
        bad_points = [
            ({"ratchet_pitch_m": math.inf}, "ratchet_pitch must be finite"),
            ({"ratchet_pitch_m": 5e-324}, "ratchet_pitch"),
            ({"max_iterations": math.inf}, "max_iterations"),
            ({"sample_count": math.nan}, "sample_count"),
            ({"max_iterations": "nan"}, "max_iterations"),
            # repr() of an int past Python's digit limit raises ValueError
            ({"mass_kg": 10**5000}, "key 'mass_kg' needs a number, got <int too long to print>"),
            ({"max_iterations": -(10**5000)}, "max_iterations must be >= 1, got <int too long"),
        ]
        for bad, reason in bad_points:
            points = [{"force_cap_n": 50.0}, bad, {"force_cap_n": 80.0}]
            rows = sweep(worked_config(), points)
            assert [r.status for r in rows] == ["ok", "invalid", "ok"], bad
            assert reason in rows[1].reason

    def test_first_error_is_the_first_in_key_order(self):
        # Values convert in ALL_KEYS order, whatever the point's order; then
        # the parts validate in the order body, leg, spring, loss.
        points = [
            {"sample_count": "many", "mass_kg": "heavy"},
            {"efficiency": 1.2, "spring_stiffness_n_per_m": -1.0},
        ]
        assert [row.reason for row in sweep(worked_config(), points)] == [
            "key 'mass_kg' needs a number, got 'heavy'",
            "stiffness must be finite and > 0, got -1.0",
        ]

    def test_failing_part_gives_its_reason_at_every_point(self):
        # A part that fails is never reused: each point rebuilds it and raises
        # its own message, and the valid parts built between stay valid.
        points = [
            {"efficiency": 1.2},
            {"efficiency": 0.9},
            {"efficiency": 1.2, "force_cap_n": 50.0},
            {"efficiency": 0.9, "force_cap_n": 50.0},
            {"efficiency": 1.2},
        ]
        rows = sweep(worked_config(), points)
        assert [row.status for row in rows] == ["invalid", "ok", "invalid", "ok", "invalid"]
        assert {rows[i].reason for i in (0, 2, 4)} == {"efficiency must lie in (0, 1], got 1.2"}
        assert rows[1] == sweep(worked_config(), [points[1]])[0]
        assert rows[3] == sweep(worked_config(), [points[3]])[0]

    def test_malformed_points_flagged_without_abort(self):
        points = [None, "ab", {None: 1}, {1: 2, "typo": 3}, {"force_cap_n": 50.0}]
        rows = sweep(worked_config(), points)
        assert [(row.params, row.status, row.reason) for row in rows[:4]] == [
            ({}, "invalid", "not a mapping: NoneType"),
            ({}, "invalid", "not a mapping: str"),
            ({None: 1}, "invalid", "unknown keys: None"),
            ({1: 2, "typo": 3}, "invalid", "unknown keys: 1, typo"),
        ]
        assert rows[4] == sweep(worked_config(), points[4:])[0]

    @pytest.mark.parametrize("points, kind", [(None, "NoneType"), (5, "int")])
    def test_points_that_are_not_iterable_rejected(self, points, kind):
        with pytest.raises(DomainError) as error:
            sweep(worked_config(), points)
        assert str(error.value) == f"points must be an iterable of mappings, got {kind}"

    def test_point_with_listed_keys_runs_as_its_dict(self):
        class Listed:  # dict() takes it; its keys() is a list, not a set-like view
            def keys(self):
                return ["force_cap_n"]

            def __getitem__(self, key):
                return 50.0

        (row,) = sweep(worked_config(), [Listed()])
        assert row == sweep(worked_config(), [{"force_cap_n": 50.0}])[0]
        assert row.status == "ok"

    def test_point_memory_does_not_grow_with_its_squats(self):
        # just below the critical cap of 12 N every squat differs from the one before
        template = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=12.0 * (1 - 1e-7),
            tol_gain=0.0,
        )
        tracemalloc.start()
        try:
            (row,) = sweep(template, [{"max_iterations": 20_000}])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (row.status, row.iterations, row.termination) == ("ok", 20_000, "iteration_cap")
        assert peak < 2**20

    def test_repeated_squat_ends_an_endless_budget(self):
        # four_squat_demo at cap 200 N repeats squat 6 at squat 7; streamed
        # to a budget of 10**300 squats, this point would never return
        config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
        loss = LossModel(efficiency=0.9, ratchet_pitch=0.003)
        template = replace(config, force_cap=200.0, loss=loss, tol_gain=0.0)
        (row,) = sweep(template, [{"max_iterations": 10**300}])
        assert (row.status, row.termination, row.iterations) == ("ok", "converged", 7)
        result = simulate(replace(template, max_iterations=10**300))
        assert len(result.squats.x) == 7 and result.termination is Termination.CONVERGED

    def test_row_order_independent_of_workers(self):
        config = worked_config()
        points = [{"force_cap_n": c} for c in (20.0, 40.0, 60.0, 80.0, 100.0, 120.0)]
        serial = sweep(config, points, workers=1)
        threaded = sweep(config, points, workers=4)
        assert serial == threaded


def reference_row(template, point) -> SweepRow:
    """The row of ``point`` by the flat-mapping path: every key of the
    template converted and every part rebuilt, the template's tolerances
    carried over."""
    if not isinstance(point, dict):
        return SweepRow(params={}, status="invalid", reason=f"not a mapping: {type(point).__name__}")
    params = dict(point)
    try:
        config = config_from_values({**values_from_config(template), **point})
        result = simulate(replace(config, tol_gain=template.tol_gain))
    except (ConfigurationError, DomainError) as exc:
        return SweepRow(params=params, status="invalid", reason=str(exc))
    except (StallError, SimulationError) as exc:
        return SweepRow(params=params, status="stall", reason=str(exc))
    e1, cap = e1_max(config.body, config.leg), config.force_cap
    peak = max(result.squats.f_end)
    return SweepRow(
        params=params,
        status="ok",
        final_energy=result.final_energy,
        iterations=len(result.squats.f_end),
        iterations_to_full_compression=result.iterations_to_full_compression,
        peak_force=peak,
        final_over_e1max=result.final_energy / e1,
        peak_over_cap=peak / cap,
        termination=result.termination.value,
    )


@st.composite
def templates(draw):
    config = random_config(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        efficiency=draw(st.sampled_from([1.0, 0.97, 0.8])),
        ratchet_pitch=draw(st.sampled_from([0.0, 1e-3, 2e-2])),
        policy=draw(st.sampled_from(CompressionPolicy)),
        allow_preload=draw(st.booleans()),
        max_iterations=draw(st.integers(1, 60)),
    )
    return replace(config, tol_gain=draw(st.sampled_from([1e-12, 0.0, 1e-3, 0.5])))


def near_values(template_value):
    """A float template value times 0.5 to 1.5, or the template value."""
    if isinstance(template_value, float):
        return st.floats(0.5, 1.5).map(lambda f: template_value * f)
    return st.just(template_value)


def override_values(template_value):
    """Near-template, out-of-range, non-finite, wrong-type, integer and
    policy values for one key."""
    return st.one_of(
        near_values(template_value),
        st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e300, math.inf, -math.inf, math.nan]),
        st.sampled_from(["abc", "", None, [1.0], True]),
        st.integers(-2, 200) | st.just(10**5000),
        st.sampled_from(["full_range", "force_limited", CompressionPolicy.FULL_RANGE, "fast"]),
    )


def row_bits(row: SweepRow) -> list:
    """A row's fields, params included, with every float as its ``float.hex``
    text: ``==`` on floats would take -0.0 for 0.0."""

    def bits(value):
        return value.hex() if isinstance(value, float) else value

    return [
        [(key, bits(value)) for key, value in row.params.items()],
        *(bits(getattr(row, field.name)) for field in fields(row) if field.name != "params"),
    ]


@st.composite
def sweep_cases(draw):
    """A template and points for it, as a grid hands them over and not: variants
    of one point of near-template values, each with 1-2 of its values replaced
    (mostly by near ones) and the rest the very same objects, among points of
    other keys (unknown ones too), invalid values and non-mappings."""
    template = draw(templates())
    base = values_from_config(template)
    keys = st.lists(st.sampled_from(ALL_KEYS + ("bogus", None, 1)), unique=True, max_size=4)

    def values(key):
        return override_values(base.get(key, 1.0))

    point = keys.flatmap(lambda ks: st.fixed_dictionaries({key: values(key) for key in ks}))
    origin = draw(st.lists(st.sampled_from(ALL_KEYS), unique=True, max_size=4))
    family = [{key: draw(near_values(base[key])) for key in origin}]
    points = [family[0]]
    for kind in draw(st.lists(st.sampled_from("vvvpn"), max_size=10)):
        if kind == "v":  # a variant of a member of the family
            source = draw(st.sampled_from(family))
            replaced = st.lists(st.sampled_from(origin), min_size=1, max_size=2, unique=True)
            new = {k: draw(near_values(base[k]) | values(k)) for k in draw(replaced)} if origin else {}
            family.append({**source, **new})
            points.append(family[-1])
        else:
            points.append(draw(point if kind == "p" else st.sampled_from([None, "ab"])))
    return template, points


#: One float object that an invalid point and the point after it share.
_SHARED_CAP = 120.0


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases())
# The second point's keys differ, so it is built over the template: it must not
# inherit the first point's efficiency.
@example(case=(worked_config(), [{"efficiency": 0.9}, {"force_cap_n": 100.0}]))
# An invalid point between two with the same keys: the third is built over the
# first, and the cap it shares with the invalid one is not taken as the first's.
@example(
    case=(
        worked_config(),
        [
            {"efficiency": 0.9, "force_cap_n": 50.0},
            {"efficiency": 1.5, "force_cap_n": _SHARED_CAP},
            {"efficiency": 0.8, "force_cap_n": _SHARED_CAP},
        ],
    )
)
def test_sweep_rows_equal_the_flat_mapping_path(case):
    """Building each point from validated parts, over the template or over the
    last point that built a configuration, gives the row, bit for bit and
    reason text included, that converting and validating every key of the
    merged mapping gives; malformed points and keys are invalid rows."""
    template, points = case
    rows = sweep(template, points)
    assert [row_bits(row) for row in rows] == [row_bits(reference_row(template, p)) for p in points]
