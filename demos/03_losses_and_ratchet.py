"""What imperfect hardware does to the accumulation
===================================================

Two loss mechanisms are modeled.  An energy efficiency below one lets the
locked spring creep back during each retraction (cable stretch), so the
stored energy dips at the start of every cycle.  A ratchet pitch quantizes
the retracted spring position; the pawl stops on the first tooth past the
target, and the resulting cable slack shows up as a force-free dead band
at the start of the next squat.
"""

from dataclasses import replace
from pathlib import Path

from springleg import LossModel, parse_config, simulate, spring_energy

here = Path(__file__).resolve().parent
base = parse_config(here.parent / "configs" / "four_squat_demo.cfg")

for efficiency in (1.0, 0.84):
    config = replace(base, loss=LossModel(efficiency=efficiency), max_iterations=8)
    result = simulate(config)
    q = result.squats  # per-squat columns
    print(f"efficiency {efficiency:.2f}: "
          f"{len(q.x)} squats, final energy {result.final_energy:7.1f} J, "
          f"full compression "
          f"{'at squat %d' % result.iterations_to_full_compression if result.iterations_to_full_compression else 'not reached'}")
    for n in range(1, len(q.x)):
        locked = spring_energy(q.s_end[n - 1], config.spring)
        carried = spring_energy(q.s_start[n], config.spring)
        print(f"   transition {n} -> {n + 1}: "
              f"{locked:7.1f} J locked, {carried:7.1f} J carried over "
              f"({carried / locked:.2f})")
    print()

# A coarse ratchet: every retraction overshoots the ideal spring position
# away from the knee, and the next squat spends leg travel re-tensioning.
config = replace(base, loss=LossModel(efficiency=1.0, ratchet_pitch=0.02))
result = simulate(config)
q = result.squats
print("ratchet pitch 20 mm:")
for n, (x, dead_band, e_after, stop) in enumerate(zip(q.x, q.dead_band, q.e_after, q.stop), 1):
    print(f"  squat {n}: position {x * 1000:6.1f} mm, "
          f"dead band {dead_band * 1000:5.1f} mm, "
          f"energy {e_after:7.1f} J [{stop.value}]")
print(f"final energy {result.final_energy:.1f} J vs {simulate(base).final_energy:.1f} J "
      "with continuous locking")
