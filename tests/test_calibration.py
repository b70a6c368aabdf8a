"""Work integration, efficiency estimation, and model fitting."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from springleg import (
    CompressionPolicy,
    DataError,
    DomainError,
    LossModel,
    MeasuredCycle,
    SpringParams,
    calibration,
    emit_trajectory_csv,
    estimate_efficiency,
    fit_model,
    integrate_work,
    parse_config,
    read_measured_cycles,
    simulate,
)

from conftest import CONFIG_DIR, lane_points, worked_config

SPRING = SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.04)

#: Cycle iterations for message tests: an int past Python's 4300-digit
#: string limit cannot go through an f-string.
ITERATIONS = pytest.mark.parametrize("iteration", [7, 10**5000], ids=["int", "huge_int"])


def printed(iteration: int) -> str:
    """How messages print a cycle's iteration."""
    return "<int too long to print>" if iteration > 10**4300 else str(iteration)


def no_search(*args):
    raise AssertionError("objective evaluated before the data was checked")


def cycles_from_simulation(config, noise: float = 0.0, rng=None) -> list[MeasuredCycle]:
    result = simulate(config)
    cycles = []
    for record, trajectory in zip(result.records, result.trajectories):
        force = trajectory.hip_force.copy()
        if noise > 0.0:
            scale = noise * max(float(np.max(np.abs(force))), 1e-12)
            force = force + rng.normal(0.0, scale, size=force.shape)
        cycles.append(
            MeasuredCycle(
                iteration=record.state.iteration,
                hip_displacement=trajectory.leg_deformation.copy(),
                hip_force=force,
                spring_length_start=record.state.spring_length_start,
                spring_length_end=record.state.spring_length_end,
            )
        )
    return cycles


class TestIntegrateWork:
    def test_rectangle(self):
        cycle = MeasuredCycle(1, np.array([0.0, 0.1]), np.array([10.0, 10.0]))
        assert integrate_work(cycle) == pytest.approx(1.0)

    def test_triangle(self):
        cycle = MeasuredCycle(1, np.array([0.0, 0.1]), np.array([0.0, 20.0]))
        assert integrate_work(cycle) == pytest.approx(1.0)

    def test_synthetic_first_squat(self):
        cycles = cycles_from_simulation(worked_config())
        assert integrate_work(cycles[0]) == pytest.approx(0.8, abs=1e-4)

    def test_single_sample_rejected(self):
        with pytest.raises(DataError, match="2 samples"):
            integrate_work(MeasuredCycle(1, np.array([0.0]), np.array([1.0])))

    @ITERATIONS
    def test_single_sample_message(self, iteration):
        with pytest.raises(DataError) as error:
            integrate_work(MeasuredCycle(iteration, [0.0], [1.0]))
        message = f"cycle {printed(iteration)}: need at least 2 samples to integrate"
        assert str(error.value) == message

    @ITERATIONS
    @pytest.mark.parametrize(
        "forces, work", [([1e308, 1.7e308], "inf"), ([1.7e308, 1.7e308, -1.7e308, -1.7e308], "nan")]
    )
    def test_overflowing_integral_is_a_data_error_without_warnings(self, iteration, forces, work):
        """Finite forces whose adjacent sums overflow give one ``DataError``
        naming the cycle, and no numpy warning escapes (pytest's ``-W error``
        would raise it instead)."""
        cycle = MeasuredCycle(iteration, [0.1 * n for n in range(len(forces))], forces)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DataError) as error:
            warnings.simplefilter("always")
            integrate_work(cycle)
        message = f"cycle {printed(iteration)}: work integral overflows, got {work}"
        assert str(error.value) == message
        assert [str(w.message) for w in caught] == []

    def test_model_energy_delta_matches_work(self):
        config = worked_config(sample_count=1001)
        result = simulate(config)
        cycles = cycles_from_simulation(config)
        for record, cycle in zip(result.records, cycles):
            gain = record.energy_after - record.energy_before
            assert integrate_work(cycle) == pytest.approx(gain, rel=1e-6, abs=1e-12)


class TestMeasuredCycleValidation:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            MeasuredCycle(1, np.array([]), np.array([]))

    def test_decreasing_displacement_rejected(self):
        with pytest.raises(DataError, match="non-decreasing"):
            MeasuredCycle(1, np.array([0.0, 0.1, 0.05]), np.array([0.0, 1.0, 2.0]))

    @ITERATIONS
    @pytest.mark.parametrize(
        "displacement, force, message",
        [
            (np.zeros((2, 2)), np.zeros((2, 2)), "hip_displacement must be a 1-D array of numbers"),
            ([0.0, 0.1], "heavy", "hip_force must be a 1-D array of numbers"),
            ([], [], "no samples"),
            ([0.0, 1.0], [1.0], "displacement/force length mismatch"),
            ([0.0, math.inf], [0.0, 1.0], "displacements and forces must be finite"),
            ([0.0, 1.0, 0.5], [0.0, 1.0, 2.0], "displacements must be non-decreasing"),
        ],
        ids=["two_dimensional", "unconvertible", "empty", "mismatch", "infinite", "decreasing"],
    )
    def test_trace_messages(self, iteration, displacement, force, message):
        with pytest.raises(DataError) as error:
            MeasuredCycle(iteration, displacement, force)
        assert str(error.value) == f"cycle {printed(iteration)}: {message}"

    @ITERATIONS
    def test_spring_length_message(self, iteration):
        with pytest.raises(DataError) as error:
            MeasuredCycle(iteration, [0.0, 0.1], [0.0, 1.0], spring_length_end=math.nan)
        assert str(error.value) == (
            f"cycle {printed(iteration)}: "
            "spring_length_end must be None or a finite number, got nan"
        )

    def test_lists_convert_to_float_arrays(self):
        cycle = MeasuredCycle(1, [0, 0.1], [0.0, 20])
        for trace in (cycle.hip_displacement, cycle.hip_force):
            assert isinstance(trace, np.ndarray) and trace.dtype == np.float64
        assert integrate_work(cycle) == pytest.approx(1.0)

    def test_fit_of_list_traces_equals_fit_of_arrays(self):
        config = worked_config(loss=LossModel(efficiency=0.9), sample_count=50)
        cycles = cycles_from_simulation(config)
        listed = [
            replace(c, hip_displacement=c.hip_displacement.tolist(), hip_force=c.hip_force.tolist())
            for c in cycles
        ]
        fits = [fit_model(c, config, fit_force_cap=False) for c in (cycles, listed)]
        assert fits[0] == fits[1]

    def test_two_dimensional_trace_rejected(self):
        with pytest.raises(DataError) as error:
            MeasuredCycle(3, np.zeros((2, 2)), np.zeros((2, 2)))
        assert str(error.value) == "cycle 3: hip_displacement must be a 1-D array of numbers"

    @pytest.mark.parametrize(
        "bad",
        [np.array(["0.0", "heavy"]), [[1.0], [2.0, 3.0]], [1.0, 10**400], 5.0],
        ids=["strings", "ragged", "huge_int", "scalar"],
    )
    def test_unconvertible_force_rejected(self, bad):
        with pytest.raises(DataError) as error:
            MeasuredCycle(2, np.array([0.0, 0.1]), bad)
        assert str(error.value) == "cycle 2: hip_force must be a 1-D array of numbers"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            MeasuredCycle(1, np.array([0.0, bad]), np.array([0.0, 1.0]))
        with pytest.raises(DataError, match="finite"):
            MeasuredCycle(1, np.array([0.0, 0.1]), np.array([bad, 1.0]))

    @pytest.mark.parametrize(
        "bad", ["a", True, np.True_, 2.0, None], ids=["str", "bool", "numpy_bool", "float", "none"]
    )
    def test_non_integer_iteration_rejected(self, bad):
        """Cycles are ordered by iteration, so a value that does not compare
        with an int would fail later in ``sorted``."""
        with pytest.raises(DataError) as error:
            MeasuredCycle(bad, np.array([0.0, 0.1]), np.array([0.0, 1.0]))
        assert str(error.value) == f"iteration needs an integer, got {bad!r}"

    def test_numpy_integer_iteration_becomes_int(self):
        cycle = MeasuredCycle(np.int64(3), np.array([0.0, 0.1]), np.array([0.0, 1.0]))
        assert type(cycle.iteration) is int and cycle.iteration == 3

    @pytest.mark.parametrize(
        "bad, rule",
        [
            ("0.1", "needs a number, got '0.1'"),
            (math.nan, "must be None or a finite number, got nan"),
            (-math.inf, "must be None or a finite number, got -inf"),
            (True, "needs a number, got True"),
            (np.True_, "needs a number, got np.True_"),
            (10**5000, "needs a number, got <int too long to print>"),
            (Fraction(10**400), f"needs a number, got Fraction({10**400}, 1)"),
        ],
        ids=["str", "nan", "inf", "bool", "numpy_bool", "huge_int", "huge_fraction"],
    )
    @pytest.mark.parametrize("name", ["spring_length_start", "spring_length_end"])
    def test_bad_spring_length_rejected(self, name, bad, rule):
        with pytest.raises(DataError) as error:
            MeasuredCycle(4, np.array([0.0, 0.1]), np.array([0.0, 1.0]), **{name: bad})
        assert str(error.value) == f"cycle 4: {name} {rule}"

    @pytest.mark.parametrize("length", [0.1, np.float64(0.1), Fraction(1, 10)])
    def test_real_spring_lengths_become_floats(self, length):
        cycle = MeasuredCycle(
            1, [0.0, 0.1], [0.0, 1.0], spring_length_start=length, spring_length_end=length
        )
        for value in (cycle.spring_length_start, cycle.spring_length_end):
            assert type(value) is float and value == 0.1


class TestEstimateEfficiency:
    def test_lossless_data(self):
        cycles = cycles_from_simulation(worked_config())
        assert estimate_efficiency(cycles, SPRING) == pytest.approx(1.0, abs=1e-9)

    def test_recovers_transition_losses(self):
        config = worked_config(loss=LossModel(efficiency=0.84))
        cycles = cycles_from_simulation(config)
        assert estimate_efficiency(cycles, SPRING) == pytest.approx(0.84, abs=1e-3)

    def test_single_cycle_insufficient(self):
        cycles = cycles_from_simulation(worked_config())[:1]
        with pytest.raises(DataError, match="insufficient transitions"):
            estimate_efficiency(cycles, SPRING)

    def test_growing_energy_warns(self):
        cycles = [
            MeasuredCycle(
                1,
                np.array([0.0, 0.1]),
                np.array([0.0, 10.0]),
                spring_length_start=0.12,
                spring_length_end=0.09,
            ),
            MeasuredCycle(
                2,
                np.array([0.0, 0.1]),
                np.array([5.0, 15.0]),
                spring_length_start=0.08,  # more energy than was locked in
                spring_length_end=0.07,
            ),
        ]
        with pytest.warns(UserWarning, match="cannot grow"):
            estimate_efficiency(cycles, SPRING)

    def test_transition_from_a_free_spring_skipped(self):
        # Cycle 2 locks the spring at its free length: no energy to retain, no ratio.
        lengths = [(0.12, 0.09), (0.09, 0.12), (0.12, 0.08), (0.085, 0.07)]
        cycles = [
            MeasuredCycle(n, [0.0, 0.1], [0.0, 1.0], start, end)
            for n, (start, end) in enumerate(lengths, 1)
        ]
        energy = [calibration.spring_energy(s, SPRING) for s in (0.08, 0.085)]
        ratios = [1.0, energy[1] / energy[0]]  # transitions 1->2 and 3->4
        assert calibration.retention_ratios(cycles, SPRING) == ratios
        assert estimate_efficiency(cycles, SPRING) == math.exp(math.log(ratios[1]) / 2)

    @ITERATIONS
    def test_transition_messages(self, iteration):
        def pair(end, start):
            return [
                MeasuredCycle(iteration, [0.0, 0.1], [0.0, 1.0], spring_length_end=end),
                MeasuredCycle(iteration + 1, [0.0, 0.1], [0.0, 1.0], spring_length_start=start),
            ]

        with pytest.warns(UserWarning) as warned:
            estimate_efficiency(pair(0.09, 0.08), SPRING)
        ratio = calibration.spring_energy(0.08, SPRING) / calibration.spring_energy(0.09, SPRING)
        transition = f"transition {printed(iteration)}->{printed(iteration + 1)}"
        assert [str(w.message) for w in warned] == [
            f"{transition}: retention ratio {ratio} exceeds 1 "
            "(stored energy cannot grow while locked)"
        ]
        with pytest.raises(DataError) as error:
            estimate_efficiency(pair(0.2, 0.08), SPRING)
        assert str(error.value) == (
            f"{transition}: measured spring length outside the spring's range "
            "(spring length s=0.2 exceeds free_length=0.12 (slack))"
        )


CYCLES_MESSAGE = "cycles must be an iterable of MeasuredCycle objects"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda cycles: integrate_work(None),
            DataError,
            "cycle must be a MeasuredCycle, got NoneType",
        ),
        (lambda cycles: integrate_work(5), DataError, "cycle must be a MeasuredCycle, got int"),
        (lambda cycles: estimate_efficiency(None, SPRING), DataError, CYCLES_MESSAGE),
        (lambda cycles: estimate_efficiency(5, SPRING), DataError, CYCLES_MESSAGE),
        (lambda cycles: estimate_efficiency([None, None], SPRING), DataError, CYCLES_MESSAGE),
        (
            lambda cycles: estimate_efficiency(cycles, None),
            DomainError,
            "spring must be a SpringParams, got NoneType",
        ),
        (
            lambda cycles: estimate_efficiency(cycles, worked_config()),
            DomainError,
            "spring must be a SpringParams, got Configuration",
        ),
        (
            lambda cycles: fit_model(cycles, None),
            DomainError,
            "config must be a Configuration, got NoneType",
        ),
        (
            lambda cycles: fit_model(cycles, SPRING),
            DomainError,
            "config must be a Configuration, got SpringParams",
        ),
    ],
    ids=[
        "work_of_none", "work_of_int", "efficiency_of_none", "efficiency_of_int",
        "efficiency_of_nones", "efficiency_spring_none", "efficiency_spring_config",
        "fit_config_none", "fit_config_spring",
    ],
)
def test_argument_of_the_wrong_type_is_a_library_error(monkeypatch, call, error, message):
    """Each entry point rejects cycles that are no ``MeasuredCycle`` objects with one
    ``DataError``, and a spring or config of another type with ``DomainError`` naming
    it, before any point of a fit runs."""
    monkeypatch.setattr(calibration, "_run", no_search)
    with pytest.raises(error) as raised:
        call(cycles_from_simulation(worked_config()))
    assert type(raised.value) is error
    assert str(raised.value) == message


class TestFitModel:
    def test_noiseless_round_trip(self):
        true_config = worked_config(
            loss=LossModel(efficiency=0.84),
            force_cap=12.0,
            sample_count=400,
            max_iterations=5,
        )
        cycles = cycles_from_simulation(true_config)
        base = worked_config(sample_count=400, max_iterations=5, force_cap=100.0)
        report = fit_model(cycles, base)
        assert report.efficiency == pytest.approx(0.84, rel=0.01)
        assert report.force_cap == pytest.approx(12.0, rel=0.01)
        assert report.residual_rms < 1e-3

    def test_two_unknowns_stay_in_the_efficiency_box(self, monkeypatch):
        """Lossless data put the valley's lowest point on the box edge
        efficiency 1; the cap steps at a fixed u never evaluate past it."""
        point, etas = calibration._point, []

        def recorded(measured, config, eta, cap):
            etas.append(eta)
            return point(measured, config, eta, cap)

        monkeypatch.setattr(calibration, "_point", recorded)
        true_config = worked_config(force_cap=12.0, sample_count=300, max_iterations=4)
        report = fit_model(cycles_from_simulation(true_config), true_config)
        assert report.efficiency >= 0.999 and report.force_cap == pytest.approx(12.0, rel=1e-3)
        assert 0.05 <= min(etas) and max(etas) <= 1.0

    def test_lossless_data_recovers_unit_efficiency(self):
        true_config = worked_config(force_cap=12.0, sample_count=300, max_iterations=4)
        cycles = cycles_from_simulation(true_config)
        base = worked_config(sample_count=300, max_iterations=4, force_cap=12.0)
        report = fit_model(cycles, base, fit_force_cap=False)
        assert report.efficiency >= 0.999

    def test_noisy_efficiency_recovery(self, rng):
        true_config = worked_config(
            loss=LossModel(efficiency=0.84),
            force_cap=12.0,
            sample_count=200,
            max_iterations=4,
        )
        base = replace(true_config, loss=LossModel(efficiency=1.0))
        cycles = cycles_from_simulation(true_config, noise=0.01, rng=rng)
        report = fit_model(cycles, base, fit_force_cap=False)
        assert report.efficiency == pytest.approx(0.84, rel=0.05)

    def test_cap_only_round_trip(self):
        true_config = worked_config(
            loss=LossModel(efficiency=0.84),
            force_cap=12.0,
            sample_count=400,
            max_iterations=5,
        )
        cycles = cycles_from_simulation(true_config)
        base = replace(true_config, force_cap=100.0)
        report = fit_model(cycles, base, fit_efficiency=False)
        assert report.efficiency == 0.84
        assert report.force_cap == pytest.approx(12.0, rel=0.01)
        assert report.residual_rms < 1e-3

    @pytest.mark.parametrize("fit_efficiency", [True, False])
    def test_cap_rejected_under_full_range(self, fit_efficiency):
        """The force cap does nothing under full_range, so a fit of it would
        return an arbitrary cap."""
        config = worked_config(policy=CompressionPolicy.FULL_RANGE, sample_count=200)
        cycles = cycles_from_simulation(config)
        with pytest.raises(DataError, match="force cap has no effect under full_range"):
            fit_model(cycles, config, fit_efficiency=fit_efficiency)
        report = fit_model(cycles, config, fit_force_cap=False)
        assert report.force_cap == config.force_cap

    @pytest.mark.parametrize(
        "trace, efficiency, force_cap, residual_rms",
        [
            ("criterion_8", 0.8400000000000207, 8.772299999999872, 1.0309224045152806e-14),
            ("simulate_then_fit", 0.839999999998563, 8.772300000001753, 3.5152506708088992e-09),
        ],
    )
    def test_noiseless_fit_values_hold(self, tmp_path, trace, efficiency, force_cap, residual_rms):
        """The 2-unknown fits of noiseless prototype_trend traces return the
        truth (0.84, 8.7723) to within 1e-8 and stay where they were found:
        criterion 8's 250-sample trace, and the trajectory CSV that
        ``springleg simulate`` writes read back as ``springleg fit`` reads it.
        The fitted point may move by round-off only, and the residual may not
        grow beyond it: 1e-6 relative, or 1e-12 N where the fit is exact (a
        residual of a few ulps of the force follows the summation order)."""
        truth = parse_config(CONFIG_DIR / "prototype_trend.cfg")
        if trace == "criterion_8":
            truth = replace(truth, sample_count=250)
            base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
            report = fit_model(cycles_from_simulation(truth), base)
        else:
            path = emit_trajectory_csv(simulate(truth), tmp_path / "trajectory.csv")
            report = fit_model(read_measured_cycles(path), truth)
        assert report.efficiency == pytest.approx(efficiency, rel=1e-9)
        assert report.force_cap == pytest.approx(force_cap, rel=1e-9)
        assert report.efficiency == pytest.approx(0.84, rel=1e-8)
        assert report.force_cap == pytest.approx(truth.force_cap, rel=1e-8)
        assert report.residual_rms <= max(residual_rms * (1 + 1e-6), 1e-12)
        floats = [report.efficiency, report.force_cap, report.residual_rms]
        assert all(type(value) is float for value in floats)
        assert all(type(value) is float for value in report.cycle_work + report.retention_ratios)
        assert len(report.retention_ratios) == len(report.cycle_work) - 1

    @pytest.mark.parametrize("fit_force_cap, evaluated", [(True, 361), (False, 39)])
    def test_search_evaluates_the_same_points(self, monkeypatch, fit_force_cap, evaluated):
        """On the criterion-8 trace the search runs a fixed number of
        (efficiency, cap) points: one grid of 17 x 17 lanes, then 72 one-lane
        points of Brent's refinement, or 17 lanes and 22 points (39) with the
        cap known.  The bounded grid
        minimum changes how the points are evaluated, not which: every point,
        grid or refinement, is one ``_run``."""
        run, lanes = calibration._run, []

        def counted(measured, config, eta, cap):
            lanes.append((eta, cap))
            return run(measured, config, eta, cap)

        monkeypatch.setattr(calibration, "_run", counted)
        truth = replace(parse_config(CONFIG_DIR / "prototype_trend.cfg"), sample_count=250)
        base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
        if not fit_force_cap:
            base = replace(base, force_cap=truth.force_cap)
        cycles = cycles_from_simulation(truth)
        fit_model(cycles, base, fit_force_cap=fit_force_cap)
        assert len(lanes) == evaluated

    @pytest.mark.parametrize("seed", [8005, 8044])
    def test_returns_no_point_worse_than_one_evaluated(self, monkeypatch, seed):
        """On criterion 8's noisy traces, which are rough within a grid step,
        the refinement need not end at the lowest point the search evaluated;
        the fit returns the lowest point evaluated, grid or refinement."""
        point, lowest, evaluated = calibration._point, calibration._lowest, []

        def recorded(measured, config, eta, cap):
            sse, n_points = point(measured, config, eta, cap)
            evaluated.append(sse)
            return sse, n_points

        def recorded_grid(measured, config, eta, cap):
            index, sse, n_points, flat = lowest(measured, config, eta, cap)
            evaluated.append(sse)  # the lowest of the grid's points
            return index, sse, n_points, flat

        monkeypatch.setattr(calibration, "_point", recorded)
        monkeypatch.setattr(calibration, "_lowest", recorded_grid)
        truth = replace(parse_config(CONFIG_DIR / "prototype_trend.cfg"), sample_count=250)
        cycles = cycles_from_simulation(truth, noise=0.01, rng=np.random.default_rng(seed))
        base = replace(truth, loss=LossModel(efficiency=1.0))
        report = fit_model(cycles, base, fit_force_cap=False)
        (sse,), (n_points,) = lane_points(cycles, base, [report.efficiency], [report.force_cap])
        assert sse <= min(evaluated)
        assert report.residual_rms == math.sqrt(sse / n_points)

    def test_grids_compare_at_most_half_their_pairs(self, monkeypatch):
        """The criterion-8 2-unknown fit's 17 x 17 grid holds 867 (cycle,
        lane) pairs over its 3 cycles; the bound on the grid's lowest lane
        leaves at least half of them uncompared."""
        errors, lowest, compared, grids = calibration._errors, calibration._lowest, [0], []

        def counted(measured, config, run, cycles):
            compared[0] += len(cycles)
            return errors(measured, config, run, cycles)

        def grid(measured, config, eta, cap):
            before = compared[0]
            found = lowest(measured, config, eta, cap)
            grids.append((len(eta) * len(measured.traces), compared[0] - before))
            return found

        monkeypatch.setattr(calibration, "_errors", counted)
        monkeypatch.setattr(calibration, "_lowest", grid)
        truth = replace(parse_config(CONFIG_DIR / "prototype_trend.cfg"), sample_count=250)
        base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
        fit_model(cycles_from_simulation(truth), base)
        assert sum(pairs for pairs, _ in grids) == 867
        assert sum(done for _, done in grids) <= 867 // 2

    @staticmethod
    def criterion_8(noise_seed=None):
        """Criterion 8's 250-sample prototype_trend trace, noiseless or with 1%
        noise of ``noise_seed``, and the fit's start: efficiency 1, the body
        weight for the cap."""
        truth = replace(parse_config(CONFIG_DIR / "prototype_trend.cfg"), sample_count=250)
        base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
        if noise_seed is None:
            return truth, cycles_from_simulation(truth), base
        rng = np.random.default_rng(noise_seed)
        return truth, cycles_from_simulation(truth, noise=0.01, rng=rng), base

    @pytest.mark.parametrize("seed, pairs", [(None, 6), (8005, 22)])
    def test_bound_leaves_few_pairs_to_compare(self, monkeypatch, seed, pairs):
        """On the criterion-8 2-unknown grid the bound on each lane's last
        cycle leaves 6 of its 867 (cycle, lane) pairs to compare at full
        resolution, and 22 with noise: lanes are compared in the order of
        their bounds, and only while they can still be the lowest."""
        errors, lowest, total, compared = calibration._errors, calibration._lowest, [0], []

        def counted(measured, config, run, cycles):
            total[0] += len(cycles)
            return errors(measured, config, run, cycles)

        def grid(*args):  # the refinement's points, after the grid, are not counted
            before = total[0]
            found = lowest(*args)
            compared.append(total[0] - before)
            return found

        monkeypatch.setattr(calibration, "_errors", counted)
        monkeypatch.setattr(calibration, "_lowest", grid)
        _, cycles, base = self.criterion_8(seed)
        fit_model(cycles, base)
        assert compared == [pairs]

    def test_bound_takes_lanes_in_blocks(self):
        """The bound on a long last cycle holds a block of lanes at a time: on
        the criterion-8 17 x 17 grid with a last cycle of 2**17 samples (16384
        picked per lane), ``_lowest`` peaks below 8 MiB traced, where one array
        of every lane's picks would take 36 MiB."""
        truth, cycles, base = self.criterion_8()
        d, f = cycles[-1].hip_displacement, cycles[-1].hip_force
        long_d = np.linspace(d[0], d[-1], 2**17)
        cycles[-1] = MeasuredCycle(cycles[-1].iteration, long_d, np.interp(long_d, d, f))
        f_max = max(float(np.max(c.hip_force)) for c in cycles)
        etas, caps = np.meshgrid(
            np.linspace(0.05, 1.0, 17), np.linspace(0.5 * f_max, 1.25 * f_max, 17), indexing="ij"
        )
        measured = calibration._Measured(cycles, base)
        tracemalloc.start()
        try:
            calibration._lowest(measured, base, etas.ravel(), caps.ravel())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**23

    @pytest.mark.parametrize(
        "case", ["criterion_8", "noise_8005", "noise_8044", "cap_known", "fit_roundtrip_8x1000"]
    )
    def test_bounded_grid_fits_as_the_all_pairs_grid(self, monkeypatch, case):
        """``fit_model`` returns every ``FitReport`` field bit for bit as it
        does with a grid that compares every (cycle, lane) pair, on criterion
        8 (noiseless and with two noise seeds), a cap-known fit,
        and an 8-cycle, 1000-sample truth drawn as the fit_roundtrip benchmark
        draws them (efficiency in 0.7-0.95, cap 0.6-0.72 of the critical cap)."""
        options = {}
        if case == "fit_roundtrip_8x1000":
            trend = parse_config(CONFIG_DIR / "prototype_trend.cfg")
            s0, k, lstand = trend.spring.free_length, trend.spring.stiffness, trend.leg.standing_length
            cap = 0.66 * s0 * s0 * k / (4 * math.sqrt(0.8) * lstand)
            truth = replace(
                trend, loss=LossModel(0.8), force_cap=cap, max_iterations=8, sample_count=1000
            )
            cycles = cycles_from_simulation(truth)
            base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
            assert len(cycles) == 8
        else:
            seed = {"noise_8005": 8005, "noise_8044": 8044}.get(case)
            truth, cycles, base = self.criterion_8(seed)
            if case == "cap_known":
                base = replace(base, force_cap=truth.force_cap)
                options = dict(fit_force_cap=False)

        def hexed(report):
            floats = [report.efficiency, report.force_cap, report.residual_rms]
            floats += [*report.cycle_work, *report.retention_ratios]
            return [v.hex() for v in floats], report.flat_objective

        def all_pairs(measured, config, eta, cap):
            values, counts = lane_points(cycles, config, eta, cap)
            lowest = int(np.argmin(values))
            return lowest, values[lowest], counts[lowest], calibration._is_flat(values)

        bounded = hexed(fit_model(cycles, base, **options))
        monkeypatch.setattr(calibration, "_lowest", all_pairs)
        assert hexed(fit_model(cycles, base, **options)) == bounded

    def test_one_sample_cycle_fails_before_the_search(self, monkeypatch):
        monkeypatch.setattr(calibration, "_run", no_search)
        cycles = cycles_from_simulation(worked_config())
        cycles[1] = MeasuredCycle(2, np.array([0.0]), np.array([5.0]))
        with pytest.raises(DataError, match="2 samples"):
            fit_model(cycles, worked_config())

    @pytest.mark.parametrize(
        "cycles", [None, [1, 2], "ab", [None, None], 3.0], ids=["none", "ints", "str", "nones", "float"]
    )
    def test_cycles_that_are_no_measured_cycles_rejected(self, monkeypatch, cycles):
        """Whatever is passed for the cycles, only ``DataError`` escapes, before any point is run."""
        monkeypatch.setattr(calibration, "_run", no_search)
        with pytest.raises(DataError, match="^cycles must be an iterable of MeasuredCycle objects$"):
            fit_model(cycles, worked_config())

    def test_too_few_cycles_rejected(self):
        cycles = cycles_from_simulation(worked_config())[:1]
        with pytest.raises(DataError, match="at least 2"):
            fit_model(cycles, worked_config())

    def test_nothing_to_fit_rejected(self):
        cycles = cycles_from_simulation(worked_config())
        with pytest.raises(DataError, match="nothing to fit"):
            fit_model(cycles, worked_config(), fit_efficiency=False, fit_force_cap=False)

    @pytest.mark.parametrize("sign", [0.0, -1.0], ids=["zero", "negated"])
    def test_forces_that_are_not_positive_rejected(self, monkeypatch, sign):
        monkeypatch.setattr(calibration, "_run", no_search)
        cycles = cycles_from_simulation(worked_config())
        cycles = [replace(c, hip_force=sign * c.hip_force) for c in cycles]
        with pytest.raises(DataError) as error:
            fit_model(cycles, worked_config())
        assert str(error.value) == (
            "measured forces must be finite and positive to bound the cap search"
        )

    @pytest.mark.parametrize(
        "f_max, box",
        [(5e-324, "(0.0, 5e-324)"), (1e-323, "(5e-324, 1e-323)"), (1.5e308, "(7.5e+307, inf)")],
        ids=["underflow", "subnormal", "overflow"],
    )
    @pytest.mark.parametrize("fit_efficiency", [True, False])
    def test_cap_search_box_out_of_range_rejected(self, monkeypatch, f_max, box, fit_efficiency):
        """0.5 * f_max underflows to 0 or 1.25 * f_max overflows; on a subnormal box
        Brent's search can step to a cap of 0. Each is one ``DataError`` before any point runs."""
        monkeypatch.setattr(calibration, "_run", no_search)
        cycles = [MeasuredCycle(n, np.array([0.0, 0.01]), np.array([0.0, f_max])) for n in (1, 2)]
        with pytest.raises(DataError) as error:
            fit_model(cycles, worked_config(), fit_efficiency=fit_efficiency)
        assert str(error.value) == f"cap search box {box} must be finite, not subnormal"

    @pytest.mark.parametrize("scale", [1e154, 1.5e307])
    @pytest.mark.parametrize(
        "fit_efficiency, fit_force_cap", [(True, True), (True, False), (False, True)]
    )
    def test_overflowing_residual_is_a_data_error_without_warnings(
        self, monkeypatch, fit_efficiency, fit_force_cap, scale
    ):
        """Forces whose squares overflow give one ``DataError`` and no numpy
        warning; at 1.5e307 their work integral overflows too, which
        ``integrate_work`` reports before any point runs."""
        _, cycles, base = self.criterion_8()
        cycles = [replace(c, hip_force=c.hip_force * scale) for c in cycles]
        message = "non-finite force residual at the fitted parameters"
        if scale > 1e300:
            monkeypatch.setattr(calibration, "_run", no_search)
            message = "cycle 1: work integral overflows, got inf"
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DataError) as error:
            warnings.simplefilter("always")
            fit_model(cycles, base, fit_efficiency=fit_efficiency, fit_force_cap=fit_force_cap)
        assert str(error.value) == message
        assert [str(w.message) for w in caught] == []

    def test_spring_lengths_outside_the_spring_give_no_ratios(self):
        """Measured lengths the spring cannot take are no retention ratios; the
        forces fit as they do without lengths."""
        config = worked_config(loss=LossModel(efficiency=0.9), sample_count=50)
        cycles = cycles_from_simulation(config)
        unmeasured = [replace(c, spring_length_start=None, spring_length_end=None) for c in cycles]
        too_long = [replace(c, spring_length_end=0.5) for c in cycles]
        base = replace(config, loss=LossModel())
        report = fit_model(too_long, base, fit_force_cap=False)
        assert report.retention_ratios == ()
        assert report == fit_model(unmeasured, base, fit_force_cap=False)

    def test_report_carries_work_and_ratios(self):
        config = worked_config(loss=LossModel(efficiency=0.9), sample_count=200)
        cycles = cycles_from_simulation(config)
        report = fit_model(cycles, replace(config, loss=LossModel()), fit_force_cap=False)
        assert len(report.cycle_work) == len(cycles)
        assert len(report.retention_ratios) == len(cycles) - 1
        for ratio in report.retention_ratios:
            assert ratio == pytest.approx(0.9, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    efficiency=st.floats(0.7, 0.95),
    fraction=st.floats(0.6, 0.72),
    squats=st.integers(2, 8),
    sample_count=st.sampled_from([250, 1000]),
)
def test_noiseless_fit_returns_the_truth(
    tmp_path_factory, efficiency, fraction, squats, sample_count
):
    """A 2-unknown fit of a noiseless ``simulate`` trace of a prototype_trend
    truth whose cap lies below the critical cap s0**2 k / (4 sqrt(efficiency)
    l_stand) returns the truth to within 1e-8 relative; read back from the
    trajectory CSV, whose numbers carry 9 significant digits, to within half
    a unit in the 9th digit."""
    template = parse_config(CONFIG_DIR / "prototype_trend.cfg")
    s0, k = template.spring.free_length, template.spring.stiffness
    critical = s0 * s0 * k / (4 * math.sqrt(efficiency) * template.leg.standing_length)
    truth = replace(
        template,
        loss=LossModel(efficiency=efficiency),
        force_cap=fraction * critical,
        max_iterations=squats,
        sample_count=sample_count,
    )
    base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
    direct = fit_model(cycles_from_simulation(truth), base)
    path = emit_trajectory_csv(simulate(truth), tmp_path_factory.mktemp("fit") / "trajectory.csv")
    read_back = fit_model(read_measured_cycles(path), base)
    for report, rel in ((direct, 1e-8), (read_back, 5e-9)):
        assert report.efficiency == pytest.approx(efficiency, rel=rel)
        assert report.force_cap == pytest.approx(truth.force_cap, rel=rel)


class TestBrentMin:
    """``calibration._brent_min`` against closed-form minimisers."""

    TOL = 1e-10

    @staticmethod
    def minimise(f, a, b):
        points = []

        def counted(x):
            points.append(x)
            assert len(points) <= 1000, "the minimiser does not end"
            return f(x)

        return calibration._brent_min(counted, a, b, TestBrentMin.TOL), points

    @pytest.mark.parametrize(
        "f, a, b, expected",
        [
            (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.3),
            (lambda x: x, 0.2, 0.7, 0.2),
            (lambda x: -x, 0.2, 0.7, 0.7),
            (lambda x: (x + 1.0) ** 2, 0.2, 0.7, 0.2),
            (lambda x: abs(x - 0.61803), 0.5, 0.9, 0.61803),
            (lambda x: abs(x - 8.7723), 8.0, 9.5, 8.7723),
        ],
        ids=["quadratic", "rising", "falling", "quadratic_past_left", "abs", "abs_at_cap"],
    )
    def test_closed_form_minimiser(self, f, a, b, expected):
        x, points = self.minimise(f, a, b)
        assert type(x) is float
        assert abs(x - expected) <= self.TOL
        assert all(a <= p <= b for p in points)

    def test_quadratic_takes_fewer_points_than_golden_sections(self):
        """Three points fit the parabola exactly: after two golden-section
        steps the fourth point is the minimum, and two probes half a tolerance
        either side of it close the bracket.  Golden sections of [0, 1] down to
        1e-10 take 49 points."""
        x, points = self.minimise(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        golden = math.ceil(math.log(self.TOL) / math.log((math.sqrt(5.0) - 1.0) / 2.0)) + 1
        assert golden == 49
        assert len(points) == 6
        assert points[3] == 0.3
        assert len(points) <= golden

    def test_float_spacing_coarser_than_tolerance(self):
        """Near 1e7 (a force cap box of a heavy body) floats lie 1.9e-9 apart,
        wider than the tolerance; steps of at least one ulp still end."""
        c = 1e7 + 0.3
        x, points = self.minimise(lambda x: abs(x - c), 1e7, 1e7 + 1.0)
        assert abs(x - c) <= self.TOL + 2 * math.ulp(c)
        assert len(points) < 100

    def test_constant_function_stays_in_the_window(self):
        x, points = self.minimise(lambda x: 2.0, 0.25, 0.75)
        assert type(x) is float
        assert 0.25 <= x <= 0.75
        assert all(0.25 <= p <= 0.75 for p in points)

    @pytest.mark.parametrize("a, b", [(0.4, 0.4), (0.4, 0.4 + 0.5e-10), (0.0, 1e-10)])
    def test_window_within_tolerance_is_its_midpoint(self, a, b):
        x, points = self.minimise(lambda x: x, a, b)
        assert x == 0.5 * (a + b)
        assert type(x) is float
        assert points == []
