"""Design questions answered by sweeping the simulator
======================================================

How many squats does a target take?  What is the most a configuration can
ever store?  How does the force cap trade against iteration count?  The
sweep is deterministic: rows follow grid order.
"""

from pathlib import Path

import numpy as np

from springleg import (
    emit_sweep_csv,
    max_energy,
    min_squats,
    parse_config,
    spring_capacity,
    sweep,
)

here = Path(__file__).resolve().parent
config = parse_config(here.parent / "configs" / "four_squat_demo.cfg")

capacity = spring_capacity(config)
print(f"spring capacity at solid length: {capacity:.1f} J")
print(f"achievable ceiling for this configuration: {max_energy(config):.1f} J")
print()
for target in (50.0, 100.0, 200.0, capacity):
    n = min_squats(config, target)
    print(f"squats needed for {target:7.1f} J: {n if n is not None else 'infeasible'}")

# Lowering the cap forces more iterations for the same energy; raising it
# buys speed.  Stiffness changes move the capacity itself.
points = [
    {"force_cap_n": float(cap), "spring_stiffness_n_per_m": float(k)}
    for cap in np.linspace(150.0, 350.0, 5)
    for k in (800.0, 1000.0, 1200.0)
]
rows = sweep(config, points)
print()
print(f"{'cap [N]':>8} {'k [N/m]':>8} {'squats':>7} {'full@':>6} {'E [J]':>8} {'E/E1max':>8}")
for row in rows:
    if row.status != "ok":
        print(f"{row.params['force_cap_n']:8.0f} {row.params['spring_stiffness_n_per_m']:8.0f} "
              f"   flagged: {row.status}")
        continue
    full = row.iterations_to_full_compression or "-"
    print(f"{row.params['force_cap_n']:8.0f} {row.params['spring_stiffness_n_per_m']:8.0f} "
          f"{row.iterations:7d} {full!s:>6} {row.final_energy:8.1f} {row.final_over_e1max:8.2f}")

out = here / "output" / "design_sweep.csv"
emit_sweep_csv(rows, ["force_cap_n", "spring_stiffness_n_per_m"], out)
print()
print(f"wrote {out}")
