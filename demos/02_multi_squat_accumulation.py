"""Beating the single-squat bound by squatting repeatedly
=========================================================

The floating spring slides along the leg segments.  After each squat the
spring is locked and its endpoints retract toward the knee, which lowers
the hip force needed to compress it further.  Four squats under a fixed
force cap then store several times what one capped squat could.

Writes trajectory CSVs and the two normalized SVG plots next to this
script (under ``demos/output/``).
"""

from pathlib import Path

from springleg import (
    emit_plot_svg,
    emit_trajectory_csv,
    parse_config,
    release_profile,
    simulate,
)

here = Path(__file__).resolve().parent
out = here / "output"
config = parse_config(here.parent / "configs" / "four_squat_demo.cfg")

result = simulate(config)
q = result.squats  # per-squat columns
print(f"force cap: {config.force_cap:.0f} N (equal to the body weight)")
print()
for n, squat in enumerate(zip(q.x, q.s_start, q.s_end, q.f_start, q.f_end, q.stop), 1):
    x, s_start, s_end, f_start, f_end, stop = squat
    print(
        f"squat {n}: spring position {x * 1000:6.1f} mm, "
        f"spring {s_start * 1000:6.1f} -> {s_end * 1000:6.1f} mm, "
        f"hip force {f_start:6.1f} -> {f_end:6.1f} N  "
        f"[{stop.value}]"
    )

print()
print(f"stored after {len(q.x)} squats: {result.final_energy:.1f} J")
print(f"one capped squat stores:                 {q.e_after[0]:.1f} J")
print(f"ratio: {result.final_energy / q.e_after[0]:.2f}x")

# Reset the spring to the hip-to-ankle position and let it push back.
released = release_profile(result.final_spring_length, config)
print()
print(f"release peak force: {released.peak_force:.0f} N = "
      f"{released.peak_force / config.force_cap:.2f}x the compression cap")
print(f"released energy:    {released.released_energy:.1f} J")

emit_trajectory_csv(result, out / "four_squat_trajectory.csv")
emit_plot_svg(result, "force_deflection", out / "four_squat_force.svg")
emit_plot_svg(result, "energy", out / "four_squat_energy.svg")
print()
print(f"wrote CSV and SVG artifacts under {out}")
