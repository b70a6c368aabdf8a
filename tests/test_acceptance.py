"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from springleg import (
    BodyParams,
    CompressionPolicy,
    Configuration,
    LegGeometry,
    LossModel,
    MeasuredCycle,
    SpringParams,
    baseline_result,
    emit_plot_svg,
    emit_sweep_csv,
    emit_trajectory_csv,
    fit_model,
    hip_force,
    min_squats,
    parse_config,
    release_profile,
    simulate,
    spring_energy,
    sweep,
)

from conftest import CONFIG_DIR, random_config


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_start_force_bound():
    """Start force equals the spring-length ratio times the previous end
    force and never exceeds the cap, per iteration, 100+ random configs."""
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    iterations_checked = 0
    worst = 0.0
    for _ in range(120):
        config = random_config(rng)
        result = simulate(config)
        for prev, cur in zip(result.records, result.records[1:]):
            ratio = cur.state.spring_length_start / prev.state.spring_length_start
            expected = ratio * prev.end_force
            err = abs(cur.start_force - expected) / max(abs(expected), 1e-300)
            worst = max(worst, err)
            assert err <= 1e-12
            assert cur.start_force <= config.force_cap * (1.0 + 1e-12)
            iterations_checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        iterations_checked >= 100 and elapsed < 5.0,
        f"start-force bound on {iterations_checked} iterations "
        f"(worst rel err {worst:.2e}) in {elapsed:.2f}s",
    )


def test_criterion_2_energy_retention():
    """Transition energy conserved exactly at unit efficiency; the ratio is
    0.84 +- 1e-12 in the lossy model."""
    rng = np.random.default_rng(22)
    worst_ideal = 0.0
    worst_lossy = 0.0
    for efficiency in (1.0, 0.84):
        for _ in range(25):
            config = random_config(rng, efficiency=efficiency)
            result = simulate(config)
            for prev, cur in zip(result.records, result.records[1:]):
                locked = spring_energy(prev.state.spring_length_end, config.spring)
                carried = spring_energy(cur.state.spring_length_start, config.spring)
                if locked == 0.0:
                    assert carried == 0.0
                    continue
                if efficiency == 1.0:
                    err = abs(carried - locked) / locked
                    worst_ideal = max(worst_ideal, err)
                    assert err <= 1e-12
                else:
                    err = abs(carried / locked - 0.84)
                    worst_lossy = max(worst_lossy, err)
                    assert err <= 1e-12
    report(
        2,
        True,
        f"energy retention exact (worst {worst_ideal:.2e}) and 0.84 ratio "
        f"(worst dev {worst_lossy:.2e})",
    )


def _long_chain_config() -> Configuration:
    # full-range squats shaving 5e-5 of the standing length each iteration:
    # ten thousand distinct spring positions without reaching solid
    return Configuration(
        body=BodyParams(mass=100.0, gravity=10.0),
        leg=LegGeometry(segment_length=0.3, standing_length=0.5, max_deformation=2.5e-5),
        spring=SpringParams(stiffness=1000.0, free_length=0.5, solid_length=0.2),
        initial_spring_position=0.3,
        force_cap=1000.0,
        policy=CompressionPolicy.FULL_RANGE,
        max_iterations=10_000,
        sample_count=2,
    )


def test_criterion_3_recurrence_equivalence():
    """Standing-consistency positions match the iterated transition-ratio
    recurrence over a ten-thousand-iteration chain."""
    started = time.perf_counter()
    result = simulate(_long_chain_config())
    x_iterated = _long_chain_config().initial_spring_position
    worst = 0.0
    previous = None
    for record in result.records:
        if previous is not None:
            x_iterated *= (
                record.state.spring_length_start / previous.state.spring_length_start
            )
            worst = max(
                worst, abs(record.state.spring_position - x_iterated) / x_iterated
            )
        previous = record
    elapsed = time.perf_counter() - started
    ok = len(result.records) == 10_000 and worst <= 1e-9 and elapsed < 1.0
    report(
        3,
        ok,
        f"closed form vs iterated recurrence over {len(result.records)} iterations, "
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_four_squat_figure_properties():
    """Shipped demo config: full compression in exactly 4 squats, under half
    the single-squat force, over 5x the single-capped-squat energy, and a
    release force at least twice the cap."""
    config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
    result = simulate(config)
    spring = config.spring
    full_force = spring.stiffness * (spring.free_length - spring.solid_length)
    peak = max(record.end_force for record in result.records)
    single_capped_energy = result.records[0].energy_after
    released = release_profile(result.final_spring_length, config)

    a = result.iterations_to_full_compression == 4 and peak <= 0.5 * full_force
    b = result.final_energy >= 5.0 * single_capped_energy
    c = released.peak_force >= 2.0 * config.force_cap
    report(
        4,
        a and b and c,
        f"4 squats to solid, peak/full={peak / full_force:.4f} (<=0.5), "
        f"energy ratio {result.final_energy / single_capped_energy:.3f} (>=5), "
        f"release/cap {released.peak_force / config.force_cap:.3f} (>=2)",
    )


def test_criterion_5_experimental_trend():
    """Prototype parameters with 84% efficiency and a cap at 75% of the
    single-squat reference force reach the reference energy in 3 squats and
    store 1.60-1.90x one capped squat's energy."""
    config = parse_config(CONFIG_DIR / "prototype_trend.cfg")
    assert config.loss.efficiency == 0.84
    spring, geom = config.spring, config.leg
    reference_force = (
        spring.free_length
        / geom.standing_length
        * spring.stiffness
        * (spring.free_length - spring.solid_length)
    )
    assert config.force_cap == pytest.approx(0.75 * reference_force, rel=1e-12)

    reference_energy = spring_energy(spring.solid_length, config.spring)
    squats_needed = min_squats(config, reference_energy)
    result = simulate(config)
    ratio = result.final_energy / result.records[0].energy_after
    ok = squats_needed == 3 and 1.60 <= ratio <= 1.90
    report(
        5,
        ok,
        f"reference energy reached in {squats_needed} squats, "
        f"stored/capped-squat ratio {ratio:.4f} in [1.60, 1.90]",
    )


def test_criterion_6_work_integral():
    """Per-squat trapezoidal hip work equals the spring-energy delta to
    1e-6 relative at one thousand samples, 100 random configs."""
    rng = np.random.default_rng(66)
    squats = 0
    worst = 0.0
    for case in range(100):
        config = random_config(
            rng,
            efficiency=1.0 if case % 3 else 0.88,
            ratchet_pitch=0.0 if case % 4 else 0.005,
            sample_count=1000,
            max_iterations=12,
        )
        result = simulate(config)
        for record, trajectory in zip(result.records, result.trajectories):
            work = float(np.trapezoid(trajectory.hip_force, trajectory.leg_deformation))
            gain = record.energy_after - record.energy_before
            if gain > 0:
                worst = max(worst, abs(work - gain) / gain)
            assert work == pytest.approx(gain, rel=1e-6, abs=1e-12)
            squats += 1
    report(6, True, f"work integral vs energy delta on {squats} squats, worst {worst:.2e}")


def test_criterion_7_baseline_identities():
    """Single-squat chain consistency and the mechanism-to-baseline
    reduction, both to 1e-12 relative."""
    body = BodyParams(mass=10.0, gravity=10.0)
    geom = LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.2)
    for bottom_force in np.linspace(0.0, body.weight, 21):
        single = baseline_result(bottom_force, body, geom)
        k = single.stiffness
        assert single.stored_energy == pytest.approx(0.5 * k * geom.max_deformation**2, rel=1e-12)
        assert single.stored_energy <= single.e1_max * (1 + 1e-12)

    # mechanism at unity advantage with the spring spanning the leg
    leg_free = baseline_result(0.0, body, geom)
    k = leg_free.stiffness
    spring = SpringParams(stiffness=k, free_length=0.5, solid_length=0.2)
    config = Configuration(
        body=body, leg=geom, spring=spring, initial_spring_position=geom.segment_length
    )
    for deformation in np.linspace(0.0, geom.max_deformation, 33):
        f = hip_force(geom.segment_length, geom.standing_length - deformation, geom, spring)
        assert f == pytest.approx(k * deformation, rel=1e-12, abs=1e-12)
    result = simulate(config)
    assert result.records[0].energy_after == pytest.approx(leg_free.stored_energy, rel=1e-12)
    report(7, True, "baseline chain identities and mechanism reduction at 1e-12")


def test_criterion_8_calibration_round_trip():
    """Noiseless fit recovers efficiency and force cap within 1%; with 1%
    force noise the efficiency stays within 5% across 100 seeds."""
    true_config = replace(parse_config(CONFIG_DIR / "prototype_trend.cfg"), sample_count=250)
    result = simulate(true_config)
    cycles = [
        MeasuredCycle(
            record.state.iteration,
            trajectory.leg_deformation,
            trajectory.hip_force,
            spring_length_start=record.state.spring_length_start,
            spring_length_end=record.state.spring_length_end,
        )
        for record, trajectory in zip(result.records, result.trajectories)
    ]
    base = replace(true_config, loss=LossModel(efficiency=1.0), force_cap=true_config.body.weight)
    fit = fit_model(cycles, base)
    eta_err = abs(fit.efficiency - 0.84) / 0.84
    cap_err = abs(fit.force_cap - true_config.force_cap) / true_config.force_cap
    assert eta_err <= 0.01 and cap_err <= 0.01

    noisy_base = replace(true_config, loss=LossModel(efficiency=1.0))
    worst_noise_err = 0.0
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        noisy = [
            MeasuredCycle(
                c.iteration,
                c.hip_displacement,
                c.hip_force + rng.normal(0.0, 0.01 * float(np.max(c.hip_force)), c.hip_force.shape),
            )
            for c in cycles
        ]
        noisy_fit = fit_model(noisy, noisy_base, fit_force_cap=False)
        worst_noise_err = max(worst_noise_err, abs(noisy_fit.efficiency - 0.84) / 0.84)
    assert worst_noise_err <= 0.05
    report(
        8,
        True,
        f"noiseless errors eta {eta_err:.2%}, cap {cap_err:.2%}; "
        f"worst noisy eta error {worst_noise_err:.2%} over 100 seeds",
    )


def test_criterion_9_determinism(tmp_path):
    """Repeated runs produce byte-identical CSV and SVG; sweeps are
    independent of the worker count."""
    config = parse_config(CONFIG_DIR / "prototype_trend.cfg")
    paths = []
    for tag in ("a", "b"):
        result = simulate(config)
        csv = emit_trajectory_csv(result, tmp_path / f"{tag}.csv")
        svg = emit_plot_svg(result, "energy", tmp_path / f"{tag}.svg")
        paths.append((csv.read_bytes(), (tmp_path / f"{tag}_summary.csv").read_bytes(), svg.read_bytes()))
    assert paths[0] == paths[1]

    points = [{"force_cap_n": float(c)} for c in np.linspace(4.0, 11.0, 40)]
    rows_by_workers = [sweep(config, points, workers=w) for w in (1, 4, 8)]
    assert rows_by_workers[0] == rows_by_workers[1] == rows_by_workers[2]
    sweep_bytes = []
    for w, rows in zip((1, 4, 8), rows_by_workers):
        path = emit_sweep_csv(rows, ["force_cap_n"], tmp_path / f"sweep_{w}.csv")
        sweep_bytes.append(path.read_bytes())
    assert sweep_bytes[0] == sweep_bytes[1] == sweep_bytes[2]
    report(9, True, "byte-identical artifacts; sweep invariant to 1/4/8 workers")


def test_criterion_10_performance():
    """A ten-thousand-iteration run finishes within a second and a
    thousand-point sweep within ten."""
    started = time.perf_counter()
    result = simulate(_long_chain_config())
    sim_elapsed = time.perf_counter() - started
    assert len(result.records) == 10_000

    config = replace(parse_config(CONFIG_DIR / "four_squat_demo.cfg"), sample_count=250)
    points = [{"force_cap_n": float(c)} for c in np.linspace(130.0, 360.0, 1000)]
    started = time.perf_counter()
    rows = sweep(config, points)
    sweep_elapsed = time.perf_counter() - started
    assert all(row.status == "ok" for row in rows)

    ok = sim_elapsed < 1.0 and sweep_elapsed < 10.0
    report(
        10,
        ok,
        f"10k-iteration simulate {sim_elapsed:.2f}s (<1s), "
        f"1000-point sweep {sweep_elapsed:.2f}s (<10s)",
    )
