"""Byte-for-byte guard on the artifacts of the four-squat and design-sweep demos.

The files under ``tests/golden/`` were written by
``demos/02_multi_squat_accumulation.py`` and ``demos/05_design_sweep.py``.
Regenerating them the same way must reproduce every byte.
"""

from pathlib import Path

import numpy as np

from springleg import (
    emit_plot_svg,
    emit_sweep_csv,
    emit_trajectory_csv,
    parse_config,
    simulate,
    sweep,
)

from conftest import CONFIG_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demo_artifacts_match_golden(tmp_path):
    config = parse_config(CONFIG_DIR / "four_squat_demo.cfg")
    result = simulate(config)
    points = [
        {"force_cap_n": float(cap), "spring_stiffness_n_per_m": float(k)}
        for cap in np.linspace(150.0, 350.0, 5)
        for k in (800.0, 1000.0, 1200.0)
    ]
    written = [
        emit_trajectory_csv(result, tmp_path / "four_squat_trajectory.csv"),
        tmp_path / "four_squat_trajectory_summary.csv",
        emit_plot_svg(result, "force_deflection", tmp_path / "four_squat_force.svg"),
        emit_plot_svg(result, "energy", tmp_path / "four_squat_energy.svg"),
        emit_sweep_csv(
            sweep(config, points),
            ["force_cap_n", "spring_stiffness_n_per_m"],
            tmp_path / "design_sweep.csv",
        ),
    ]
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN.iterdir())
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
