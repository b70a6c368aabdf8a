"""Multi-squat engine: worked examples, invariants, and oracle equivalence."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from springleg import (
    BodyParams,
    CompressionPolicy,
    Configuration,
    ConfigurationError,
    GeometryError,
    LegGeometry,
    LossModel,
    SimulationError,
    SpringParams,
    StallError,
    StopReason,
    Termination,
    cli,
    cyclic,
    emit_plot_svg,
    emit_trajectory_csv,
    hip_force,
    initial_spring_length,
    parse_config,
    release_profile,
    simulate,
    spring_energy,
)
from springleg.output import PLOT_KINDS

from conftest import (
    CONFIG_DIR,
    exact_zero_preload_config,
    oracle_params,
    random_config,
    worked_config,
)
from oracle import oracle_simulate


def linspace_stroke(config, x, start, stop):
    """One stroke by ``np.linspace`` and the force law, as the reference."""
    geom, spring = config.leg, config.spring
    ratio = x / geom.segment_length
    deformation = np.linspace(start, stop, config.sample_count)
    length = ratio * (geom.standing_length - deformation)
    force = ratio * spring.stiffness * (spring.free_length - length)
    return deformation, length, force


def stroke_bytes(trajectories) -> list[bytes]:
    fields = ("leg_deformation", "spring_length", "hip_force", "stored_energy")
    return [getattr(t, field).tobytes() for t in trajectories for field in fields]


class TestInitialState:
    def test_zero_preload_when_lengths_match_exactly(self):
        first = simulate(exact_zero_preload_config()).records[0]
        assert first.state.spring_length_start == 0.12
        assert first.start_force == 0.0
        assert first.state.dead_band == 0.0
        assert first.state.iteration == 1

    def test_worked_geometry(self):
        first = simulate(worked_config()).records[0]
        assert first.state.spring_length_start == pytest.approx(0.12, rel=1e-12)

    def test_slack_start_rejected(self):
        with pytest.raises(ConfigurationError, match="slack"):
            worked_config(initial_spring_position=0.09)

    def test_preloaded_start_reports_force(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.13, solid_length=0.04)
        )
        first = simulate(config).records[0]
        assert first.start_force == pytest.approx(
            0.08 / 0.2 * 1000.0 * (0.13 - first.state.spring_length_start), rel=1e-12
        )


class TestSquatStep:
    def test_worked_first_squat_is_range_limited(self):
        config = worked_config()
        result = simulate(replace(config, max_iterations=1))
        record, trajectory = result.records[0], result.trajectories[0]
        assert record.state.spring_length_end == pytest.approx(0.08, rel=1e-12)
        assert record.stop_reason is StopReason.LEG_RANGE
        assert record.end_force == pytest.approx(16.0, rel=1e-12)
        assert record.energy_after == pytest.approx(0.8, rel=1e-12)
        assert record.leg_travel_used == pytest.approx(0.1, rel=1e-12)
        assert len(trajectory) == config.sample_count

    def test_low_cap_stops_at_cap(self):
        record = simulate(worked_config(force_cap=10.0)).records[0]
        assert record.stop_reason is StopReason.FORCE_CAP
        assert record.end_force == pytest.approx(10.0, rel=1e-12)

    def test_cap_range_tie_labeled_force_cap_or_range(self):
        # cap chosen so the cap stop coincides with the range stop; either
        # label is admissible, the spring length is what matters
        record = simulate(worked_config(force_cap=16.0)).records[0]
        assert record.state.spring_length_end == pytest.approx(0.08, rel=1e-12)
        assert record.stop_reason in (StopReason.FORCE_CAP, StopReason.LEG_RANGE)

    @pytest.mark.parametrize("pitch", [0.004, 0.0], ids=["ratchet", "continuous"])
    def test_full_range_policy_ignores_cap(self, pitch):
        """Under FULL_RANGE no cap binds.  Caps that do and do not bind under
        FORCE_LIMITED, set in the configuration or by ``Run``'s override, all
        give the squats of the FORCE_LIMITED run whose cap does not bind, bit
        for bit.  The ratchet run ends on an ENGAGED_ONLY squat, the
        continuous one on the solid spring."""
        slack = parse_config(CONFIG_DIR / "ratchet_slack.cfg")
        config = replace(slack, loss=replace(slack.loss, ratchet_pitch=pitch))
        binding, free = (simulate(replace(config, force_cap=cap)).squats for cap in (5.0, 1e3))
        assert StopReason.FORCE_CAP in binding.stop and StopReason.FORCE_CAP not in free.stop
        full = replace(config, policy=CompressionPolicy.FULL_RANGE)
        lossy = replace(full, loss=replace(full.loss, efficiency=0.5))
        runs = [simulate(replace(full, force_cap=cap)).squats for cap in (5.0, 1e3)]
        for cap in (5.0, 1e3):  # the override restores efficiency 1.0
            run = cyclic.Run(lossy, full.max_iterations, force_cap=cap, efficiency=1.0)
            runs.append(cyclic.Squats(*zip(*run)))

        def bits(squats):
            return [[v.hex() if isinstance(v, float) else v for v in column] for column in squats]

        assert all(bits(run) == bits(free) for run in runs)
        last = StopReason.ENGAGED_ONLY if pitch else StopReason.SPRING_SOLID
        assert free.stop[-1] is last and set(free.stop[:-1]) == {StopReason.LEG_RANGE}

    def test_solid_spring_stalls(self):
        # no run starts a squat at the solid length (it ends at full
        # compression first), so the map is driven directly
        config = worked_config()
        squat, _, _ = cyclic._recurrence(config)
        with pytest.raises(StallError, match="solid"):
            squat(1, config.initial_spring_position, config.spring.solid_length, 0.0)

    def test_start_force_at_cap_stalls(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.13, solid_length=0.04),
            force_cap=1.0,  # below the 4 N preload force
        )
        with pytest.raises(StallError, match="squat 1: no compression"):
            simulate(config)

    def test_trajectory_follows_fixed_position_kinematics(self):
        config = worked_config(sample_count=257)
        result = simulate(replace(config, max_iterations=1))
        x = result.records[0].state.spring_position
        trajectory = result.trajectories[0]
        expected = x / 0.2 * (0.3 - trajectory.leg_deformation)
        np.testing.assert_allclose(trajectory.spring_length, expected, rtol=1e-12)
        assert np.all(np.diff(trajectory.leg_deformation) > 0)


class TestLockAndRetract:
    def test_ideal_transition_carries_length_and_position(self):
        nxt = simulate(worked_config()).records[1].state
        assert nxt.spring_length_start == pytest.approx(0.08, rel=1e-12)
        assert nxt.spring_position == pytest.approx(0.08 / 0.12 * 0.08, rel=1e-12)
        assert nxt.dead_band == 0.0
        assert nxt.iteration == 2

    def test_no_compression_is_a_fixed_point(self):
        # a squat that compresses nothing is never retracted in a run (it
        # converges first), so the map is driven directly
        config = worked_config()
        _, retract, _ = cyclic._recurrence(config)
        s_start = initial_spring_length(config)
        x, s_next, _ = retract(1, s_start)
        assert s_next == pytest.approx(s_start, rel=1e-12)
        assert x == pytest.approx(config.initial_spring_position, rel=1e-12)

    def test_lossy_transition_scales_energy_by_efficiency(self):
        config = worked_config(loss=LossModel(efficiency=0.84))
        record, following = simulate(config).records[:2]
        nxt = following.state
        assert nxt.spring_length_start == pytest.approx(
            0.12 - math.sqrt(0.84) * 0.04, rel=1e-12
        )
        ratio = spring_energy(nxt.spring_length_start, config.spring) / record.energy_after
        assert ratio == pytest.approx(0.84, rel=1e-12)

    def test_ratio_recurrence_matches_closed_form(self):
        first, second = simulate(worked_config()).records[:2]
        state, nxt = first.state, second.state
        # iterating the per-transition ratio from x_1 gives the same position
        assert nxt.spring_position == pytest.approx(
            (nxt.spring_length_start / state.spring_length_start) * state.spring_position,
            rel=1e-12,
        )

    def test_ratchet_rounds_away_from_knee_with_dead_band(self):
        pitch = 0.015
        config = worked_config(loss=LossModel(efficiency=1.0, ratchet_pitch=pitch))
        nxt = simulate(config).records[1].state
        target = nxt.spring_length_start * 0.2 / 0.3
        assert 0.0 <= nxt.spring_position - target < pitch
        assert nxt.spring_position == pytest.approx(pitch * math.ceil(target / pitch))
        assert nxt.dead_band >= 0.0
        # the spring engages exactly at its locked length after the dead band
        engaged = nxt.spring_position / 0.2 * (0.3 - nxt.dead_band)
        assert engaged == pytest.approx(nxt.spring_length_start, rel=1e-12)

    def test_retraction_beyond_hip_is_an_error(self):
        # lossy regrowth with a free length above standing: the locked spring
        # no longer fits the standing leg at any admissible position
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.35, solid_length=0.01),
            initial_spring_position=0.2,
            force_cap=400.0,
            loss=LossModel(efficiency=0.01),
        )
        with pytest.raises(SimulationError, match="retraction after squat 1 .* beyond the hip"):
            simulate(config)


class TestStartForce:
    def test_no_preload_no_force(self):
        assert simulate(exact_zero_preload_config()).records[0].start_force == 0.0

    def test_second_squat_matches_ratio_form(self):
        record, following = simulate(worked_config()).records[:2]
        f = following.start_force
        assert f == pytest.approx(10.0 + 2.0 / 3.0, rel=1e-12)
        ratio = following.state.spring_length_start / record.state.spring_length_start
        assert f == pytest.approx(ratio * record.end_force, rel=1e-12)

    def test_zero_compression_keeps_previous_cap(self):
        # retracting a squat that compressed nothing, driven on the map directly
        config = worked_config(force_cap=16.0)
        record = simulate(config).records[0]
        _, retract, _ = cyclic._recurrence(config)
        x, s_start, _ = retract(1, record.state.spring_length_start)
        f = hip_force(x, s_start, config.leg, config.spring)
        assert f == pytest.approx(record.start_force, rel=1e-12)


class TestSimulate:
    def test_worked_two_squat_accumulation(self):
        result = simulate(worked_config())
        assert result.records[0].energy_after == pytest.approx(0.8, rel=1e-12)
        assert result.records[1].energy_after == pytest.approx(2.0 + 2.0 / 9.0, rel=1e-12)
        xs = [r.state.spring_position for r in result.records]
        assert xs[0] == pytest.approx(0.08, rel=1e-12)
        assert xs[1] == pytest.approx(0.08 * 2.0 / 3.0, rel=1e-12)
        assert result.iterations_to_full_compression == 3
        assert result.final_energy == pytest.approx(
            spring_energy(result.final_spring_length, worked_config().spring), rel=1e-12
        )

    def test_low_cap_converges_short_of_full_compression(self):
        # a cap below k*s0^2/(4*standing) = 12 N pins the recurrence at the
        # fixed point where the standing start force equals the cap
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=10.0,
            max_iterations=500,
        )
        result = simulate(config)
        assert result.iterations_to_full_compression is None
        k, s0, lstand = 1000.0, 0.12, 0.3
        s_star = result.records[-1].state.spring_length_end
        s_expected = 0.5 * (s0 + math.sqrt(s0**2 - 4 * config.force_cap * lstand / k))
        assert s_star == pytest.approx(s_expected, rel=1e-6)
        standing_force = k * s_star * (s0 - s_star) / lstand
        assert standing_force == pytest.approx(10.0, rel=1e-6)
        assert result.final_energy == pytest.approx(0.5 * k * (s0 - s_star) ** 2, rel=1e-12)

    def test_single_iteration_equals_one_squat_step(self):
        result = simulate(worked_config(max_iterations=1))
        record = simulate(worked_config()).records[0]
        assert len(result.records) == 1
        assert result.records[0] == record
        assert result.final_energy == record.energy_after

    def test_first_squat_stall_raises(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.13, solid_length=0.04),
            force_cap=1.0,
        )
        with pytest.raises(StallError):
            simulate(config)

    def test_deterministic_repetition(self):
        a = simulate(worked_config())
        b = simulate(worked_config())
        assert a.records == b.records
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.hip_force, tb.hip_force)

    def test_samples_not_stored_per_squat(self):
        # stored samples would need 4 arrays * 1000 samples * 8 B = 32 kB per
        # squat, 64 MB for this run; the per-squat columns stay under 1 MB.
        # Just below the critical cap of 12 N every squat differs from the one
        # before, so the run neither converges nor settles on a repeated squat.
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=12.0 * (1 - 1e-7),
            max_iterations=2000,
            sample_count=1000,
            tol_gain=0.0,
        )
        tracemalloc.start()
        try:
            result = simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == 2000
        assert result.termination is Termination.ITERATION_CAP
        assert len(set(zip(*result.squats))) == 2000
        assert peak < 8 * 2**20

    def test_trajectories_sampled_on_each_read_and_not_kept(self):
        # 200 distinct squats of 1000 samples: 6.4 MB of strokes if a read kept them.
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=12.0 * (1 - 1e-7),
            max_iterations=200,
            sample_count=1000,
            tol_gain=0.0,
        )
        result = simulate(config)
        tracemalloc.start()
        try:
            first, second = result.trajectories, result.trajectories
            assert len(first) == 200 and not any(a is b for a, b in zip(first, second))
            assert stroke_bytes(first) == stroke_bytes(second)
            del first, second
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024
        assert "trajectories" not in vars(result)

    def test_engaged_only_squat_ends_run_gracefully(self):
        # a coarse ratchet overshoots so far that the next squat's dead band
        # exceeds the leg range: recorded as ENGAGED_ONLY, zero gain
        config = worked_config(
            leg=LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.02),
            loss=LossModel(efficiency=1.0, ratchet_pitch=0.19),
            force_cap=1000.0,
        )
        result = simulate(config)
        assert result.records[-1].stop_reason is StopReason.ENGAGED_ONLY
        assert result.records[-1].energy_after == result.records[-1].energy_before

    @pytest.mark.parametrize("sample_count", [2, 3, 1000])
    def test_trajectories_equal_per_squat_linspace(self, sample_count):
        # Two of the four strokes start after a ratchet dead band; a fifth,
        # ENGAGED_ONLY squat is slack throughout.
        config = worked_config(
            leg=LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.05),
            loss=LossModel(efficiency=1.0, ratchet_pitch=0.01),
            force_cap=1000.0,
            sample_count=sample_count,
        )
        result = simulate(config)
        q, spring = result.squats, config.spring
        assert [d > 0 for d in q.dead_band] == [False, True, True, False, True]
        assert q.stop[-1] is StopReason.ENGAGED_ONLY
        for t, x, s_start, dead_band, stop, travel in zip(
            result.trajectories, q.x, q.s_start, q.dead_band, q.stop, q.travel
        ):
            if stop is StopReason.ENGAGED_ONLY:
                deformation, length = np.array([0.0, travel]), np.full(2, s_start)
                force, energy = np.zeros(2), np.full(2, spring_energy(s_start, spring))
            else:
                deformation, length, force = linspace_stroke(config, x, dead_band, travel)
                energy = 0.5 * spring.stiffness * (spring.free_length - length) ** 2
            got = (t.leg_deformation, t.spring_length, t.hip_force, t.stored_energy)
            expected = (deformation, length, force, energy)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("squats_per_block", [1, 2, 3])
    def test_blocks_of_squats_sample_as_one_block(self, squats_per_block):
        # The run above, whose ENGAGED_ONLY fifth squat is a block of its own
        # at 1 and 2 squats a block, and a lossy 12-squat ratchet run with all
        # three stops; each fits one block at the default size.
        ratchet = worked_config(
            leg=LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.05),
            loss=LossModel(efficiency=1.0, ratchet_pitch=0.01),
            force_cap=1000.0,
        )
        lossy = random_config(np.random.default_rng(12), efficiency=0.9, ratchet_pitch=0.004)
        for config in (ratchet, lossy):
            result = simulate(config)
            assert len(result.squats.x) in (5, 12)
            whole = stroke_bytes(result.trajectories)
            size = config.sample_count * squats_per_block
            with mock.patch.object(cyclic, "_BLOCK", size):
                assert stroke_bytes(result.trajectories) == whole


class TestRecordsView:
    def test_emission_builds_no_records(self, tmp_path, capsys):
        result = simulate(worked_config(loss=LossModel(efficiency=0.9, ratchet_pitch=0.004)))
        emit_trajectory_csv(result, tmp_path / "trajectory.csv")
        for kind in PLOT_KINDS:
            emit_plot_svg(result, kind, tmp_path / f"{kind}.svg")
        cli._print_run_summary(result)
        assert "records" not in vars(result)

        records = result.records
        assert [r.state.iteration for r in records] == list(range(1, len(records) + 1))
        assert tuple(r.energy_after for r in records) == result.squats.e_after
        assert tuple(r.end_force for r in records) == result.squats.f_end


class TestTermination:
    def test_full_compression(self):
        result = simulate(worked_config())
        assert result.termination is Termination.FULL_COMPRESSION
        assert result.iterations_to_full_compression == len(result.records) == 3

    def test_converged(self):
        config = worked_config(
            spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.002),
            force_cap=10.0,
            max_iterations=500,
        )
        result = simulate(config)
        assert result.termination is Termination.CONVERGED
        assert len(result.records) < config.max_iterations

    def test_stalled_after_squat_n(self):
        # the ratchet rounds the position up after a cap-bound squat, so the
        # fifth squat starts at the cap and cannot compress
        config = worked_config(force_cap=10.0, loss=LossModel(efficiency=1.0, ratchet_pitch=0.001))
        result = simulate(config)
        assert result.termination is Termination.STALLED
        assert len(result.records) == 4
        squat, retract, _ = cyclic._recurrence(config)
        with pytest.raises(StallError, match="squat 5: no compression"):
            squat(5, *retract(4, result.final_spring_length))

    def test_iteration_cap(self):
        result = simulate(worked_config(max_iterations=2))
        assert result.termination is Termination.ITERATION_CAP
        assert len(result.records) == 2
        assert result.iterations_to_full_compression is None


def ratchet_config(
    lt, stand, position, free, deform, solid, k, cap, eta, teeth, full_range, tol_gain
):
    """A ratchet configuration of these relative sizes (``teeth`` pitches to the
    segment), or None where they make no valid one."""
    lstand, x1 = lt * stand, lt * position
    s1 = x1 / lt * lstand
    try:
        return Configuration(
            body=BodyParams(mass=1.0),
            leg=LegGeometry(lt, lstand, lstand * deform),
            spring=SpringParams(k, s1 * free, s1 * solid),
            initial_spring_position=x1,
            force_cap=x1 / lt * k * s1 * free * cap,
            loss=LossModel(eta, lt / teeth),
            policy=CompressionPolicy.FULL_RANGE if full_range else CompressionPolicy.FORCE_LIMITED,
            tol_gain=0.5 * k * (s1 * free) ** 2 * tol_gain,
        )
    except ConfigurationError:
        return None


RATCHET_CONFIGS = st.builds(
    ratchet_config,
    lt=st.floats(0.2, 0.6),
    stand=st.floats(1.2, 1.95),
    position=st.floats(0.25, 1.0),
    free=st.floats(1.0, 1.25),
    deform=st.floats(0.01, 0.75),  # short leg ranges make ENGAGED_ONLY squats
    solid=st.floats(0.1, 0.9),
    k=st.floats(300.0, 3000.0),
    cap=st.floats(0.02, 1.2),
    eta=st.floats(0.05, 1.0) | st.floats(1.0 - 1e-9, 1.0),
    teeth=st.floats(1.0, 1e4),
    full_range=st.booleans(),
    tol_gain=st.just(0.0) | st.floats(1e-14, 1e-2),
)


@settings(max_examples=300, deadline=None)
@given(RATCHET_CONFIGS)
# Runs that end on ENGAGED_ONLY squats: ratchet_slack.cfg's, 13 squats at
# tol_gain = 0 with the last two slack, and a coarse ratchet's second squat,
# lossless and lossy.
@example(
    worked_config(
        leg=LegGeometry(0.2, 0.3, 0.03), loss=LossModel(1.0, 0.004), force_cap=20.0, tol_gain=0.0
    )
)
@example(worked_config(leg=LegGeometry(0.2, 0.3, 0.02), loss=LossModel(1.0, 0.19), force_cap=1e3))
@example(
    worked_config(
        leg=LegGeometry(0.2, 0.3, 0.02), loss=LossModel(0.9, 0.19), force_cap=1e3, tol_gain=0.0
    )
)
def test_ratchet_run_ends_within_its_tooth_bound(config):
    """From squat 2 a ratchet run's spring positions are monotone, and the run
    ends by squat ``ceil(segment_length / ratchet_pitch) + 3``: each squat's end
    length is a monotone function of the one before, so the run settles on one
    tooth, where it repeats a squat or loses energy, at ``tol_gain = 0`` too."""
    assume(config is not None)
    bound = math.ceil(config.leg.segment_length / config.loss.ratchet_pitch) + 3
    run, squats = cyclic.Run(config, bound + 1), []
    try:
        for squat in run:
            squats.append(squat)
    except SimulationError:  # a stall on squat 1, or a retraction beyond the hip
        pass
    target(len(squats) / bound)
    steps = np.diff([squat[0] for squat in squats[1:]])
    assert (steps >= 0).all() or (steps <= 0).all()
    assert len(squats) <= bound  # the budget, one above, would end it ITERATION_CAP


class TestCyclicInvariants:
    def test_start_force_bound_per_iteration(self, rng):
        for _ in range(30):
            config = random_config(rng)
            result = simulate(config)
            for prev, cur in zip(result.records, result.records[1:]):
                ratio = cur.state.spring_length_start / prev.state.spring_length_start
                assert cur.start_force == pytest.approx(ratio * prev.end_force, rel=1e-12)
                assert cur.start_force <= config.force_cap * (1 + 1e-12)

    def test_energy_retention_ideal_and_lossy(self, rng):
        for efficiency in (1.0, 0.84):
            for _ in range(15):
                config = random_config(rng, efficiency=efficiency)
                result = simulate(config)
                for prev, cur in zip(result.records, result.records[1:]):
                    e_locked = spring_energy(prev.state.spring_length_end, config.spring)
                    e_start = spring_energy(cur.state.spring_length_start, config.spring)
                    if e_locked == 0.0:
                        assert e_start == 0.0
                    else:
                        assert e_start / e_locked == pytest.approx(efficiency, rel=1e-12)

    def test_monotone_progress_without_losses(self, rng):
        for _ in range(20):
            config = random_config(rng)
            result = simulate(config)
            xs = [r.state.spring_position for r in result.records]
            ends = [r.state.spring_length_end for r in result.records]
            energies = [r.energy_after for r in result.records]
            assert all(b < a for a, b in zip(xs, xs[1:]))
            assert all(b < a for a, b in zip(ends, ends[1:]))
            assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_work_accounting_per_squat(self, rng):
        for _ in range(10):
            config = random_config(rng, sample_count=1001)
            result = simulate(config)
            for record, trajectory in zip(result.records, result.trajectories):
                work = float(np.trapezoid(trajectory.hip_force, trajectory.leg_deformation))
                gain = record.energy_after - record.energy_before
                assert work == pytest.approx(gain, rel=1e-6, abs=1e-12)

    def test_ratchet_overshoot_bounds(self, rng):
        for _ in range(20):
            pitch = float(rng.uniform(0.003, 0.03))
            config = random_config(rng, ratchet_pitch=pitch)
            result = simulate(config)
            for record in result.records[1:]:
                state = record.state
                target = (
                    state.spring_length_start
                    * config.leg.segment_length
                    / config.leg.standing_length
                )
                if state.spring_position < config.leg.segment_length:
                    assert 0.0 <= state.spring_position - target < pitch
                assert state.dead_band >= -1e-15

    def test_oracle_equivalence_on_random_configs(self, rng):
        # independent bisection-based reimplementation, >= 100 configs
        checked = repeats = 0
        for case in range(150):
            efficiency = 1.0 if case % 3 else 0.9
            pitch, tol_gain = 0.0 if case % 4 else 0.004, 1e-12
            if case >= 110:  # ratchet runs that no gain tolerance ends, many on a repeated squat
                efficiency, pitch, tol_gain = 0.9 if case % 4 else 1.0, 0.004, 0.0
            config = random_config(rng, efficiency=efficiency, ratchet_pitch=pitch)
            config = replace(config, tol_gain=tol_gain)
            result = simulate(config)
            squats = list(zip(*result.squats))
            repeats += tol_gain == 0 and len(squats) > 1 and squats[-1] == squats[-2]
            expected = oracle_simulate(oracle_params(config))
            assert len(result.records) == len(expected["records"])
            assert result.iterations_to_full_compression == expected["full_at"]
            for record, ref in zip(result.records, expected["records"]):
                state = record.state
                assert state.spring_position == pytest.approx(ref["x"], rel=1e-9)
                assert state.spring_length_start == pytest.approx(ref["s_start"], rel=1e-9)
                assert state.spring_length_end == pytest.approx(ref["s_end"], rel=1e-9)
                assert record.start_force == pytest.approx(ref["f_start"], rel=1e-9, abs=1e-9)
                assert record.end_force == pytest.approx(ref["f_end"], rel=1e-9)
                assert record.energy_before == pytest.approx(ref["e_before"], rel=1e-9, abs=1e-12)
                assert record.energy_after == pytest.approx(ref["e_after"], rel=1e-9)
                assert record.stop_reason.value == ref["reason"]
                checked += 1
        assert checked > 100 and repeats > 5


class TestReleaseProfile:
    def test_full_reset_gives_global_peak_force(self):
        # deformation range deep enough that the solid spring can span the
        # whole leg: hip-to-ankle release from full compression is feasible
        config = exact_zero_preload_config(
            leg=LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.47),
        )
        spring = config.spring
        profile = release_profile(spring.solid_length, config)
        assert profile.peak_force == pytest.approx(
            spring.stiffness * (spring.free_length - spring.solid_length), rel=1e-12
        )

    def test_release_at_final_position_matches_end_force(self):
        config = worked_config()
        result = simulate(config)
        last = result.records[-1]
        profile = release_profile(
            result.final_spring_length, config, x_release=last.state.spring_position
        )
        assert profile.peak_force == pytest.approx(last.end_force, rel=1e-12)

    def test_full_extension_releases_everything(self):
        config = exact_zero_preload_config(
            leg=LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.45),
        )
        result = simulate(config)
        assert result.final_spring_length == pytest.approx(config.spring.solid_length)
        # a position small enough to reach the start posture and large
        # enough for the spring to relax fully before standing
        profile = release_profile(result.final_spring_length, config, x_release=0.1)
        assert profile.trajectory.spring_length[-1] == pytest.approx(
            config.spring.free_length, rel=1e-12
        )
        assert profile.released_energy == pytest.approx(result.final_energy, rel=1e-12)

    def test_unreachable_posture_rejected(self):
        config = worked_config()  # leg range 0.1, spring solid at 0.04
        result = simulate(config)
        with pytest.raises(GeometryError, match="release"):
            release_profile(result.final_spring_length, config, x_release=0.2)

    @pytest.mark.parametrize("x_release", [0.25, 0.1])
    def test_posture_beyond_standing_rejected(self, x_release):
        # The demo's 0.5 m spring spans 0.45 m at x = 0.25 with the leg standing:
        # releasing it there would compress it further as the leg extends.
        config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
        with pytest.raises(GeometryError, match="beyond the standing length"):
            release_profile(0.5, config, x_release=x_release)

    def test_release_from_standing_releases_nothing(self):
        config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
        profile = release_profile(0.45, config, x_release=0.25)  # the span at standing
        assert profile.trajectory.leg_deformation.tolist() == [0.0] * config.sample_count
        assert profile.released_energy == 0.0

    @pytest.mark.parametrize(
        "name, value, shown",
        [
            ("x_release", "0.3", "'0.3'"),
            ("x_release", True, "True"),
            ("spring_length", np.True_, "np.True_"),
            ("spring_length", 10**400, str(10**400)),
        ],
        ids=["x_release_str", "x_release_bool", "spring_length_numpy_bool", "spring_length_huge"],
    )
    def test_non_number_rejected(self, name, value, shown):
        arguments = {"spring_length": 0.2, "config": worked_config(), name: value}
        with pytest.raises(GeometryError) as info:
            release_profile(**arguments)
        assert str(info.value) == f"{name} needs a number, got {shown}"

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"x_release": 0.0}, "x_release=0.0 outside (0, segment_length=0.2]"),
            ({"x_release": 0.25}, "x_release=0.25 outside (0, segment_length=0.2]"),
            ({"spring_length": 0.24}, "locked spring length 0.24 outside [0.04, 0.12]"),
            ({"spring_length": 0.02}, "locked spring length 0.02 outside [0.04, 0.12]"),
        ],
        ids=["x_release_zero", "x_release_past_segment", "spring_too_long", "spring_too_short"],
    )
    def test_out_of_range_rejected(self, arguments, message):
        with pytest.raises(GeometryError) as info:
            release_profile(**{"spring_length": 0.06, "config": worked_config(), **arguments})
        assert str(info.value) == message

    def test_release_trajectory_extends(self):
        config = exact_zero_preload_config(
            leg=LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.45),
        )
        profile = release_profile(0.06, config)
        assert np.all(np.diff(profile.trajectory.leg_deformation) < 0)
        assert profile.trajectory.hip_force[0] == pytest.approx(profile.peak_force, rel=1e-12)


#: The smallest subnormal float.  A stroke of a few of them has a step that
#: underflows to zero, where np.linspace scales by the length instead.
TINY = 5e-324

POSITIONS = st.floats(1e-3, 0.2)
DEFORMATIONS = st.floats(0.0, 0.1) | st.floats(0.0, 50 * TINY)
#: (x, start, stop); the second strategy draws zero-length strokes.
STROKES = st.tuples(POSITIONS, DEFORMATIONS, DEFORMATIONS) | st.builds(
    lambda x, d: (x, d, d), POSITIONS, DEFORMATIONS
)


class TestStrokeSampler:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 250, 1000, 1001]), st.lists(STROKES, min_size=1, max_size=6))
    @example(n=1001, strokes=[(0.1, 0.0, 3 * TINY), (0.05, 0.02, 0.09)])
    @example(n=3, strokes=[(0.2, 7 * TINY, 2 * TINY), (0.1, 0.03, 0.03), (0.1, 0.0, 0.0)])
    def test_rows_equal_linspace_bit_for_bit(self, n, strokes):
        """Each row of a batched call, and a call with floats, equal
        ``linspace_stroke`` byte for byte."""
        config = worked_config(sample_count=n)
        batched = cyclic._strokes(config, *map(np.array, zip(*strokes)))
        for row, (x, start, stop) in enumerate(strokes):
            expected = [a.tobytes() for a in linspace_stroke(config, x, start, stop)]
            assert [a.tobytes() for a in cyclic._strokes(config, x, start, stop)] == expected
            assert [a[row].tobytes() for a in batched] == expected

    def test_underflowing_step_takes_linspace_branch(self):
        """The example above reaches ``np.linspace``'s branch for a zero
        step: there, scaling the sample index by a zero step would differ."""
        n, stop = 1001, 3 * TINY
        assert stop / (n - 1) == 0.0
        branch = np.linspace(0.0, stop, n)
        assert branch.tobytes() != (np.arange(n) * (stop / (n - 1))).tobytes()
        deformation, _, _ = cyclic._strokes(worked_config(sample_count=n), 0.1, 0.0, stop)
        assert deformation.tobytes() == branch.tobytes()
