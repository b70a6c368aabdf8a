"""CSV and SVG artifact emission, and the measured-cycle CSV reader.

All emitters are deterministic: the same inputs produce byte-identical
files.  Floats are written in decimal notation with 9 significant digits,
which is also the round-trip contract of the trajectory reader.  Plots are
hand-built SVG so that golden-file comparison is meaningful.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .baseline import reference_spring_force_ramp
from .calibration import FitReport, MeasuredCycle
from .cyclic import SimResult
from .errors import DataError, DomainError
from .explore import SweepRow
from .model import Trajectory

TRAJECTORY_HEADER = "iteration,leg_deformation_m,spring_length_m,hip_force_n,stored_energy_j"
SUMMARY_HEADER = "iteration,x_m,s_start_m,s_end_m,f_start_n,f_end_n,e_before_j,e_after_j,stop_reason"
PLOT_KINDS = ("force_deflection", "energy")


def format_number(value: float) -> str:
    """Decimal (never scientific) notation with 9 significant digits: C-level
    ``%.9g`` where that is positional, numpy's Dragon4 below 1e-4 and from 1e9 up."""
    if isinstance(value, int):
        return str(value)
    text = "%.9g" % value
    if "e" not in text:
        return text
    return np.format_float_positional(
        float(value), precision=9, unique=False, fractional=False, trim="-"
    )


def emit_trajectory_csv(
    data: SimResult | Trajectory, path: str | Path, iteration: int = 1
) -> Path:
    """Write sampled trajectories as CSV; for a SimResult also write the
    per-squat summary next to it (``<stem>_summary.csv``).

    Returns the trajectory CSV path.
    """
    path = Path(path)
    lines = [TRAJECTORY_HEADER]
    if isinstance(data, SimResult):
        if not data.squats.x:
            raise DomainError("cannot emit an empty simulation result")
        for n, trajectory in enumerate(data.trajectories, 1):
            lines.extend(_trajectory_rows(trajectory, n))
        _write_lines(path, lines)
        _write_lines(_summary_path(path), _summary_lines(data))
    else:
        if len(data) == 0:
            raise DomainError("cannot emit an empty trajectory")
        lines.extend(_trajectory_rows(data, iteration))
        _write_lines(path, lines)
    return path


def _summary_path(path: Path) -> Path:
    return path.with_name(path.stem + "_summary.csv")


def _trajectory_rows(trajectory: Trajectory, iteration: int) -> Iterable[str]:
    # Each row is format_number's fast path; one with an exponent is redone per value.
    template = f"{iteration},%.9g,%.9g,%.9g,%.9g"
    t = trajectory
    columns = (t.leg_deformation, t.spring_length, t.hip_force, t.stored_energy)
    for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)):
        line = template % row
        yield line if "e" not in line else ",".join((str(iteration), *map(format_number, row)))


def _summary_lines(result: SimResult) -> list[str]:
    q = result.squats
    numbers = zip(q.x, q.s_start, q.s_end, q.f_start, q.f_end, q.e_before, q.e_after)
    lines = [SUMMARY_HEADER]
    for n, (row, stop) in enumerate(zip(numbers, q.stop), 1):
        lines.append(",".join((str(n), *map(format_number, row), stop.value)))
    return lines


def read_measured_cycles(path: str | Path) -> list[MeasuredCycle]:
    """Read a trajectory CSV back as measured cycles for calibration.

    Rows are grouped by the ``iteration`` column; the first and last
    ``spring_length_m`` of each group become the pre-squat and locked
    spring lengths.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read measured-cycle CSV {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise DataError(f"{path}: expected header {TRAJECTORY_HEADER!r}")
    groups: dict[int, list[tuple[float, float, float]]] = {}
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        try:
            iteration = int(parts[0])
            deformation, s, f = float(parts[1]), float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable row {line!r}") from exc
        groups.setdefault(iteration, []).append((deformation, s, f))
    cycles = []
    for iteration, rows in groups.items():
        cycles.append(
            MeasuredCycle(
                iteration=iteration,
                hip_displacement=np.array([r[0] for r in rows]),
                hip_force=np.array([r[2] for r in rows]),
                spring_length_start=rows[0][1],
                spring_length_end=rows[-1][1],
            )
        )
    return cycles


def emit_sweep_csv(rows: Sequence[SweepRow], keys: Sequence[str], path: str | Path) -> Path:
    """Write sweep rows in grid order; one row per point, failures flagged."""
    path = Path(path)
    header = list(keys) + [
        "status",
        "final_energy_j",
        "iterations",
        "iterations_to_full",
        "peak_force_n",
        "final_over_e1max",
        "peak_over_cap",
        "reason",
    ]
    lines = [",".join(header)]
    for row in rows:
        cells = [_cell(row.params.get(k)) for k in keys]
        cells.append(row.status)
        cells.append(_cell(row.final_energy))
        cells.append(_cell(row.iterations))
        cells.append(_cell(row.iterations_to_full_compression))
        cells.append(_cell(row.peak_force))
        cells.append(_cell(row.final_over_e1max))
        cells.append(_cell(row.peak_over_cap))
        cells.append('"%s"' % row.reason.replace('"', "'") if row.reason else "")
        lines.append(",".join(cells))
    _write_lines(path, lines)
    return path


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def format_fit_report(report: FitReport) -> str:
    """Human-readable fit summary."""
    lines = [
        f"fitted efficiency      : {format_number(report.efficiency)}",
        f"fitted force cap [N]   : {format_number(report.force_cap)}",
        f"residual RMS force [N] : {format_number(report.residual_rms)}",
        f"flat objective         : {'yes' if report.flat_objective else 'no'}",
        "cycle work [J]         : "
        + ", ".join(format_number(w) for w in report.cycle_work),
    ]
    if report.retention_ratios:
        lines.append(
            "retention ratios       : "
            + ", ".join(format_number(r) for r in report.retention_ratios)
        )
    return "\n".join(lines) + "\n"


def emit_fit_report_csv(report: FitReport, path: str | Path) -> Path:
    """Write the fitted scalars and the per-iteration table as CSV."""
    path = Path(path)
    lines = [
        "efficiency,force_cap_n,residual_rms_n,flat_objective",
        ",".join(
            (
                format_number(report.efficiency),
                format_number(report.force_cap),
                format_number(report.residual_rms),
                str(report.flat_objective).lower(),
            )
        ),
        "iteration,work_j,retention_ratio",
    ]
    for i, work in enumerate(report.cycle_work):
        ratio = (
            format_number(report.retention_ratios[i])
            if i < len(report.retention_ratios)
            else ""
        )
        lines.append(f"{i + 1},{format_number(work)},{ratio}")
    _write_lines(path, lines)
    return path


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

_WIDTH, _HEIGHT = 720.0, 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 24.0, 40.0, 56.0
_COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d5a97", "#c77f2e", "#3b8ea5")


def emit_plot_svg(result: SimResult, kind: str, path: str | Path) -> Path:
    """Write a normalized force-deflection or energy plot as SVG.

    ``force_deflection`` shows per-squat hip force over cumulative spring
    deflection, normalized by the force cap, with the weight-limited
    single-squat reference (dashed) and the cap as a horizontal line.
    ``energy`` shows stored energy over the same axis normalized by the
    single-squat energy bound, with the capped single-squat energy curve
    dashed.  Output bytes depend only on the result.
    """
    if kind not in PLOT_KINDS:
        raise DomainError(f"plot kind must be one of {PLOT_KINDS}, got {kind!r}")
    if not result.squats.x:
        raise DomainError("cannot plot an empty simulation result")
    path = Path(path)

    e1, cap = result.normalization
    spring = result.config.spring
    body = result.config.body
    geom = result.config.leg

    curves: list[tuple[np.ndarray, np.ndarray]] = []
    for trajectory in result.trajectories:
        deflection = spring.free_length - trajectory.spring_length
        if kind == "force_deflection":
            curves.append((deflection, trajectory.hip_force / cap))
        else:
            curves.append((deflection, trajectory.stored_energy / e1))

    if kind == "force_deflection":
        ref_x, ref_force = reference_spring_force_ramp(body, geom, samples=64)
        reference = (ref_x, ref_force / cap)
        guide_y = 1.0  # the force cap
        y_label = "hip force / force cap"
        title = "Force vs. spring deflection"
    else:
        d_cap = min(cap / spring.stiffness, spring.free_length - spring.solid_length)
        ref_x = np.linspace(0.0, d_cap, 64)
        reference = (ref_x, 0.5 * spring.stiffness * ref_x**2 / e1)
        guide_y = 1.0  # the single-squat energy bound
        y_label = "stored energy / single-squat bound"
        title = "Stored energy vs. spring deflection"

    xs = np.concatenate([c[0] for c in curves] + [reference[0]])
    ys = np.concatenate([c[1] for c in curves] + [reference[1], np.array([guide_y])])
    x_lo, x_hi = 0.0, float(np.max(xs))
    y_lo, y_hi = min(0.0, float(np.min(ys))), float(np.max(ys))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05

    def sx(x: float | np.ndarray) -> float | np.ndarray:
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _LEFT - _RIGHT)

    def sy(y: float | np.ndarray) -> float | np.ndarray:
        return _HEIGHT - _BOTTOM - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _TOP - _BOTTOM)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    for tick in np.linspace(x_lo, x_hi, 6):
        px = sx(float(tick))
        parts.append(
            f'<line x1="{px:.2f}" y1="{_HEIGHT - _BOTTOM:.2f}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _BOTTOM + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _BOTTOM + 19:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 6):
        py = sy(float(tick))
        parts.append(
            f'<line x1="{_LEFT - 5:.2f}" y1="{py:.2f}" x2="{_LEFT:.2f}" y2="{py:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 9:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )

    parts.append(
        f'<line x1="{_LEFT:.2f}" y1="{_HEIGHT - _BOTTOM:.2f}" x2="{_WIDTH - _RIGHT:.2f}" '
        f'y2="{_HEIGHT - _BOTTOM:.2f}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_LEFT:.2f}" y1="{_TOP:.2f}" x2="{_LEFT:.2f}" '
        f'y2="{_HEIGHT - _BOTTOM:.2f}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="{_HEIGHT - 14:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        "cumulative spring deflection [m]</text>"
    )
    parts.append(
        f'<text x="18" y="{(_TOP + _HEIGHT - _BOTTOM) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(_TOP + _HEIGHT - _BOTTOM) / 2:.1f})">{y_label}</text>'
    )

    guide_py = sy(guide_y)
    parts.append(
        f'<line x1="{_LEFT:.2f}" y1="{guide_py:.2f}" x2="{_WIDTH - _RIGHT:.2f}" '
        f'y2="{guide_py:.2f}" stroke="#888888" stroke-width="1" stroke-dasharray="2 3"/>'
    )
    parts.append(_polyline(reference[0], reference[1], sx, sy, "#444444", dashed=True))
    for index, (cx, cy) in enumerate(curves):
        color = _COLORS[index % len(_COLORS)]
        parts.append(_polyline(cx, cy, sx, sy, color))

    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path


def _polyline(x, y, sx, sy, color: str, dashed: bool = False) -> str:
    # On float64 arrays sx/sy do a per-point call's IEEE operations, in order.
    pairs = zip(sx(x).tolist(), sy(y).tolist())
    points = " ".join(map("%.2f,%.2f".__mod__, pairs))
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.8"{dash} points="{points}"/>'
