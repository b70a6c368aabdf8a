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
print(f"force cap: {config.force_cap:.0f} N (equal to the body weight)")
print()
for record in result.records:
    state = record.state
    print(
        f"squat {state.iteration}: spring position {state.spring_position * 1000:6.1f} mm, "
        f"spring {state.spring_length_start * 1000:6.1f} -> {state.spring_length_end * 1000:6.1f} mm, "
        f"hip force {record.start_force:6.1f} -> {record.end_force:6.1f} N  "
        f"[{record.stop_reason.value}]"
    )

print()
print(f"stored after {len(result.records)} squats: {result.final_energy:.1f} J")
print(f"one capped squat stores:                 {result.records[0].energy_after:.1f} J")
print(f"ratio: {result.final_energy / result.records[0].energy_after:.2f}x")

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
