"""Recovering loss parameters from force traces
===============================================

A load cell on the hip measures force against displacement, cycle by
cycle.  Here synthetic "measurements" are produced by the simulator with a
known efficiency and force cap, white noise is added, and the fitter is
asked to recover both parameters from the traces alone.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from springleg import (
    LossModel,
    MeasuredCycle,
    estimate_efficiency,
    fit_model,
    integrate_work,
    parse_config,
    simulate,
)

here = Path(__file__).resolve().parent
true_config = replace(parse_config(here.parent / "configs" / "prototype_trend.cfg"), sample_count=250)
print(f"ground truth: efficiency {true_config.loss.efficiency}, "
      f"force cap {true_config.force_cap:.4f} N")

result = simulate(true_config)
q = result.squats  # per-squat columns
rng = np.random.default_rng(7)
cycles = []
for n, (s_start, s_end, trajectory) in enumerate(zip(q.s_start, q.s_end, result.trajectories), 1):
    noise = rng.normal(0.0, 0.01 * float(np.max(trajectory.hip_force)), trajectory.hip_force.shape)
    cycles.append(
        MeasuredCycle(
            iteration=n,
            hip_displacement=trajectory.leg_deformation,
            hip_force=trajectory.hip_force + noise,
            spring_length_start=s_start,
            spring_length_end=s_end,
        )
    )

print()
print("per-cycle trapezoidal work [J]:",
      ", ".join(f"{integrate_work(c):.4f}" for c in cycles))
print(f"efficiency from measured spring lengths: "
      f"{estimate_efficiency(cycles, true_config.spring):.4f}")

# Pretend we only know the geometry and the spring; fit the loss model.
base = replace(true_config, loss=LossModel(efficiency=1.0), force_cap=true_config.body.weight)
report = fit_model(cycles, base)
print()
print(f"fitted efficiency: {report.efficiency:.4f}  "
      f"(error {abs(report.efficiency - 0.84) / 0.84:.2%})")
print(f"fitted force cap:  {report.force_cap:.4f} N  "
      f"(error {abs(report.force_cap - true_config.force_cap) / true_config.force_cap:.2%})")
print(f"residual RMS force: {report.residual_rms:.4f} N on 1%-noise data")
