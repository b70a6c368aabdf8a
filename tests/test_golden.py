"""Byte-for-byte guard on every artifact emitter.

The trajectory, summary, plot and sweep files under ``tests/golden/`` were
written by ``demos/02_multi_squat_accumulation.py`` and
``demos/05_design_sweep.py``; the release CSV and the fit report were
written by the calls below before the emitters switched to C-level float
formatting, and the ``ratchet_slack`` plots (12 squats, so the colours wrap,
one of them a slack stroke) by the calls below before the plot code was
rewritten, and its trajectory and summary CSVs (two-character iteration
prefixes, a two-point slack stroke) by the calls below before the
trajectory rows were spelled from digit tables.  Regenerating them the same
way must reproduce every byte.
"""

from pathlib import Path

import numpy as np

from springleg import (
    FitReport,
    emit_plot_svg,
    emit_sweep_csv,
    emit_trajectory_csv,
    parse_config,
    release_profile,
    simulate,
    sweep,
)
from springleg.output import emit_fit_report_csv, format_fit_report

from conftest import CONFIG_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demo_artifacts_match_golden(tmp_path):
    config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
    result = simulate(config)
    slack = simulate(parse_config(CONFIG_DIR / "ratchet_slack.cfg"))
    points = [
        {"force_cap_n": float(cap), "spring_stiffness_n_per_m": float(k)}
        for cap in np.linspace(150.0, 350.0, 5)
        for k in (800.0, 1000.0, 1200.0)
    ]
    # Values below 1e-4 or from 1e9 up, subnormals and ties at the tenth
    # digit are where positional and exponent formatting part ways.
    report = FitReport(
        efficiency=0.8765432109876,
        force_cap=306.2500000049,
        cycle_work=(12.345678951, 2.5e9, 0.0000123456789012, 1234567890123.4),
        residual_rms=3.2e-7,
        retention_ratios=(0.98765432149, 5e-324, 100000000.5),
        flat_objective=False,
    )
    fit_text = tmp_path / "fit_report.txt"
    fit_text.write_text(format_fit_report(report))
    written = [
        emit_trajectory_csv(result, tmp_path / "four_squat_trajectory.csv"),
        tmp_path / "four_squat_trajectory_summary.csv",
        emit_plot_svg(result, "force_deflection", tmp_path / "four_squat_force.svg"),
        emit_plot_svg(result, "energy", tmp_path / "four_squat_energy.svg"),
        emit_plot_svg(slack, "force_deflection", tmp_path / "ratchet_slack_force.svg"),
        emit_plot_svg(slack, "energy", tmp_path / "ratchet_slack_energy.svg"),
        emit_trajectory_csv(slack, tmp_path / "ratchet_slack_trajectory.csv"),
        tmp_path / "ratchet_slack_trajectory_summary.csv",
        emit_sweep_csv(
            sweep(config, points),
            ["force_cap_n", "spring_stiffness_n_per_m"],
            tmp_path / "design_sweep.csv",
        ),
        emit_trajectory_csv(
            release_profile(result.final_spring_length, config).trajectory,
            tmp_path / "four_squat_release.csv",
            iteration=0,
        ),
        fit_text,
        emit_fit_report_csv(report, tmp_path / "fit_report.csv"),
    ]
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN.iterdir())
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def test_full_range_ratchet_slack_matches_its_golden(tmp_path):
    """The ratchet config's 20 N cap never binds, so with ``policy = full_range``
    it writes the ratchet_slack trajectory, summary and plots byte for byte."""
    config = tmp_path / "full_range.cfg"
    config.write_text((CONFIG_DIR / "ratchet_slack.cfg").read_text() + "policy = full_range\n")
    result = simulate(parse_config(config))
    written = [
        emit_trajectory_csv(result, tmp_path / "ratchet_slack_trajectory.csv"),
        tmp_path / "ratchet_slack_trajectory_summary.csv",
        emit_plot_svg(result, "force_deflection", tmp_path / "ratchet_slack_force.svg"),
        emit_plot_svg(result, "energy", tmp_path / "ratchet_slack_energy.svg"),
    ]
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
