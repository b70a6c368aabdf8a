"""Work integration, efficiency estimation, and model fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from springleg import (
    CompressionPolicy,
    DataError,
    DomainError,
    LossModel,
    MeasuredCycle,
    SpringParams,
    calibration,
    estimate_efficiency,
    fit_model,
    integrate_work,
    parse_config,
    simulate,
)

from conftest import CONFIG_DIR, worked_config

SPRING = SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.04)


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


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            MeasuredCycle(1, np.array([0.0, bad]), np.array([0.0, 1.0]))
        with pytest.raises(DataError, match="finite"):
            MeasuredCycle(1, np.array([0.0, 0.1]), np.array([bad, 1.0]))


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
        "fit_force_cap, grid_points, evaluated", [(True, 17, 1303), (False, 13, 127)]
    )
    def test_search_evaluates_the_same_points(
        self, monkeypatch, fit_force_cap, grid_points, evaluated
    ):
        """Lanes change how the points are evaluated, not which: on the
        criterion-8 trace the search evaluates as many (efficiency, cap)
        points as the scalar objective did."""
        objective, lanes = calibration.objective, []

        def counted(cycles, config, eta, cap):
            lanes.append(len(eta))
            return objective(cycles, config, eta, cap)

        monkeypatch.setattr(calibration, "objective", counted)
        truth = replace(parse_config(CONFIG_DIR / "prototype_trend.cfg"), sample_count=250)
        base = replace(truth, loss=LossModel(efficiency=1.0), force_cap=truth.body.weight)
        if not fit_force_cap:
            base = replace(base, force_cap=truth.force_cap)
        cycles = cycles_from_simulation(truth)
        fit_model(cycles, base, fit_force_cap=fit_force_cap, grid_points=grid_points)
        assert sum(lanes) == evaluated

    def test_one_sample_cycle_fails_before_the_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("objective evaluated before the data was checked")

        monkeypatch.setattr(calibration, "objective", no_search)
        cycles = cycles_from_simulation(worked_config())
        cycles[1] = MeasuredCycle(2, np.array([0.0]), np.array([5.0]))
        with pytest.raises(DataError, match="2 samples"):
            fit_model(cycles, worked_config())

    def test_too_few_cycles_rejected(self):
        cycles = cycles_from_simulation(worked_config())[:1]
        with pytest.raises(DataError, match="at least 2"):
            fit_model(cycles, worked_config())

    def test_nothing_to_fit_rejected(self):
        cycles = cycles_from_simulation(worked_config())
        with pytest.raises(DataError, match="nothing to fit"):
            fit_model(cycles, worked_config(), fit_efficiency=False, fit_force_cap=False)

    @pytest.mark.parametrize("grid_points", [0, 1, 2.5])
    # Ids name the fit_force_cap flag of the efficiency fits; cap_only fits the cap alone.
    @pytest.mark.parametrize(
        "fit_efficiency, fit_force_cap",
        [(True, True), (True, False), (False, True)],
        ids=["True", "False", "cap_only"],
    )
    def test_short_grid_rejected(self, grid_points, fit_efficiency, fit_force_cap):
        cycles = cycles_from_simulation(worked_config())
        with pytest.raises(DomainError, match="grid_points"):
            fit_model(
                cycles,
                worked_config(),
                fit_efficiency=fit_efficiency,
                fit_force_cap=fit_force_cap,
                grid_points=grid_points,
            )

    def test_report_carries_work_and_ratios(self):
        config = worked_config(loss=LossModel(efficiency=0.9), sample_count=200)
        cycles = cycles_from_simulation(config)
        report = fit_model(cycles, replace(config, loss=LossModel()), fit_force_cap=False)
        assert len(report.cycle_work) == len(cycles)
        assert len(report.retention_ratios) == len(cycles) - 1
        for ratio in report.retention_ratios:
            assert ratio == pytest.approx(0.9, rel=1e-9)
