"""Independent straightforward re-implementation of the squat recurrence.

Written against the physical relations only, sharing no code with the
package: the force-cap stop is found by bisection on the leg length instead
of in closed form, and the retracted spring position is iterated through
the per-transition ratio instead of the standing-consistency formula.
Used to cross-check every recorded field of the simulator.

``reference_objective`` is the one exception: it is the calibration fit's
objective for a single (efficiency, force cap) point, built on the package's
scalar path (``simulate`` and its sampled trajectories) and ``np.interp``, to
check the lane objective that the fit uses.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np


def oracle_energy(s: float, k: float, s0: float) -> float:
    return k / 2.0 * (s0 - s) ** 2


def oracle_force(leg_length: float, x: float, lt: float, k: float, s0: float) -> float:
    ratio = x / lt
    return ratio * k * (s0 - ratio * leg_length)


def _bisect_cap_leg_length(x, lt, k, s0, cap, lo, hi):
    """Leg length where the hip force equals the cap; force decreases with
    leg length, so bisection brackets [lo, hi] with f(lo) >= cap >= f(hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_force(mid, x, lt, k, s0) >= cap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_simulate(p: dict) -> dict:
    """Run the recurrence for a parameter dict.

    Keys: lt, lstand, dlmax, k, s0, smin, x1, cap, eta, pitch,
    force_limited, max_iter, tol_abs, tol_gain.

    Returns records (list of dicts) plus 'full_at' (or None).  Raises
    RuntimeError on a first-squat stall, mirroring the simulator.
    """
    lt, lstand, dlmax = p["lt"], p["lstand"], p["dlmax"]
    k, s0, smin = p["k"], p["s0"], p["smin"]
    cap = p["cap"]
    eta = p.get("eta", 1.0)
    pitch = p.get("pitch", 0.0)
    force_limited = p.get("force_limited", True)
    max_iter = p.get("max_iter", 100)
    tol_abs = p.get("tol_abs", 1e-9)
    tol_gain = p.get("tol_gain", 1e-12)

    x = p["x1"]
    s_start = x / lt * lstand
    if s_start > s0:  # round-off overshoot of a nominally taut start
        s_start = s0
    dead = 0.0
    records = []
    full_at = None

    for n in range(1, max_iter + 1):
        ratio = x / lt
        l_engage = s_start / ratio
        candidates = []  # leg lengths; larger leg length = earlier stop
        if force_limited:
            if oracle_force(l_engage, x, lt, k, s0) >= cap:
                l_cap = l_engage  # already at/above the cap: no stroke at all
            elif cap >= ratio * k * s0:
                l_cap = -math.inf  # cap beyond any reachable force
            else:
                l_cap = _bisect_cap_leg_length(x, lt, k, s0, cap, 0.0, l_engage)
            candidates.append(("force_cap", l_cap))
        candidates.append(("leg_range", lstand - dlmax))
        candidates.append(("spring_solid", smin / ratio))

        l_stop = max(l for _, l in candidates)
        reason = next(name for name, l in candidates if l == l_stop)

        if l_stop >= l_engage:
            if reason == "leg_range" and dead > 0:
                records.append(
                    dict(
                        n=n,
                        x=x,
                        s_start=s_start,
                        s_end=s_start,
                        f_start=oracle_force(l_engage, x, lt, k, s0),
                        f_end=oracle_force(l_engage, x, lt, k, s0),
                        e_before=oracle_energy(s_start, k, s0),
                        e_after=oracle_energy(s_start, k, s0),
                        reason="engaged_only",
                    )
                )
                break  # zero gain always terminates the run
            if n == 1:
                raise RuntimeError("first-squat stall")
            break

        s_end = ratio * l_stop
        rec = dict(
            n=n,
            x=x,
            s_start=s_start,
            s_end=s_end,
            f_start=oracle_force(l_engage, x, lt, k, s0),
            f_end=oracle_force(l_stop, x, lt, k, s0),
            e_before=oracle_energy(s_start, k, s0),
            e_after=oracle_energy(s_end, k, s0),
            reason=reason,
        )
        records.append(rec)

        if s_end <= smin + tol_abs:
            full_at = n
            break
        previous = records[-2]["e_after"] if len(records) >= 2 else records[0]["e_before"]
        if rec["e_after"] - previous < tol_gain:
            break
        if n == max_iter:
            break

        s_next = s0 - math.sqrt(eta) * (s0 - s_end)
        if pitch > 0:
            x_target = s_next * lt / lstand
            x = min(pitch * math.ceil(x_target / pitch), lt)
            dead = lstand - s_next * lt / x
        else:
            x = x * (s_next / s_start)  # per-transition ratio recurrence
            dead = 0.0
        s_start = s_next

    return dict(records=records, full_at=full_at)


def reference_objective(cycles, config, eta: float, cap: float) -> tuple[float, int, int]:
    """Summed squared force error, compared points and cycles compared with a
    simulated stroke, for ``config`` run with efficiency ``eta`` and force
    cap ``cap`` for ``len(cycles)`` squats.

    Measured forces are resampled onto each simulated stroke and simulated
    forces onto the measured displacements, both with ``np.interp``.  A run
    that raises leaves every measured force unexplained, and so does a cycle
    after the run ended.
    """
    from springleg import ConfigurationError, SimulationError, simulate

    trial = replace(
        config,
        loss=replace(config.loss, efficiency=eta),
        force_cap=cap,
        max_iterations=len(cycles),
    )
    try:
        trajectories = simulate(trial).trajectories
    except (ConfigurationError, SimulationError):
        trajectories = ()
    sse = 0.0
    n_points = 0
    for i, cycle in enumerate(cycles):
        if i < len(trajectories):
            model = trajectories[i]
            on_model = np.interp(model.leg_deformation, cycle.hip_displacement, cycle.hip_force)
            sse += float(np.sum((model.hip_force - on_model) ** 2))
            on_measured = np.interp(cycle.hip_displacement, model.leg_deformation, model.hip_force)
            sse += float(np.sum((on_measured - cycle.hip_force) ** 2))
            n_points += len(model.leg_deformation) + len(cycle.hip_displacement)
        else:
            sse += float(np.sum(cycle.hip_force**2))
            n_points += len(cycle.hip_force)
    return sse, n_points, min(len(trajectories), len(cycles))
