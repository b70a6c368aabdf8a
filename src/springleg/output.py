"""CSV and SVG artifact emission, and the measured-cycle CSV reader.

All emitters are deterministic: the same inputs produce byte-identical
files.  Floats are written in decimal notation with 9 significant digits,
which is also the round-trip contract of the trajectory reader.  Plots are
hand-built SVG so that golden-file comparison is meaningful.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Mapping
from dataclasses import replace
from functools import cache
from itertools import chain, cycle, groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .baseline import e1_max
from .cyclic import _BLOCK, SimResult, Squats, _trajectories
from .errors import DataError, DomainError
from .explore import SweepRow
from .model import Trajectory, _integer, _repr

if TYPE_CHECKING:
    import numpy as np

    from .calibration import FitReport, MeasuredCycle

TRAJECTORY_HEADER = "iteration,leg_deformation_m,spring_length_m,hip_force_n,stored_energy_j"
SUMMARY_HEADER = "iteration,x_m,s_start_m,s_end_m,f_start_n,f_end_n,e_before_j,e_after_j,stop_reason"
PLOT_KINDS = ("force_deflection", "energy")
#: Sweep CSV header -> SweepRow field, after the keys and before the quoted ``reason``.
_SWEEP_COLUMNS = {
    "status": "status", "final_energy_j": "final_energy", "iterations": "iterations",
    "iterations_to_full": "iterations_to_full_compression", "peak_force_n": "peak_force",
    "final_over_e1max": "final_over_e1max", "peak_over_cap": "peak_over_cap",
}
#: What the "surrogateescape" error handler reads an undecodable byte as.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def format_number(value: float) -> str:
    """Decimal (never scientific) notation with 9 significant digits: C-level
    ``%.9g``, which below 1e-4 gives way to ``%.*f`` at the same rounding and from
    1e9 up to its 9 digits padded with zeros."""
    text = "%.9g" % value
    if "e" not in text:
        return text
    digits, exponent = ("%.8e" % value).split("e")
    exponent = int(exponent)
    if exponent < 0:
        return ("%.*f" % (8 - exponent, value)).rstrip("0").rstrip(".")
    return digits.replace(".", "") + "0" * (exponent - 8)


def emit_trajectory_csv(
    data: SimResult | Trajectory, path: str | Path, iteration: int = 1
) -> Path:
    """Write sampled trajectories as CSV; for a SimResult also write the
    per-squat summary next to it (``<stem>_summary.csv``).

    A SimResult's squats are sampled and written a block at a time, so memory
    does not grow with the squat count.  ``data`` of another type raises
    ``DomainError`` before anything is written; a write error part-way (a full
    disk) raises it too and leaves a partial file.  Returns the trajectory CSV
    path.
    """
    if not isinstance(data, (SimResult, Trajectory)):
        raise DomainError(f"data must be a SimResult or a Trajectory, got {type(data).__name__}")
    path = _path(path)
    if isinstance(data, SimResult):
        if not data.squats.x:
            raise DomainError("cannot emit an empty simulation result")
        strokes = enumerate(_trajectories(data), 1)
        rows = chain.from_iterable(_trajectory_rows(t, n) for n, t in strokes)
        _write_lines(path, chain([TRAJECTORY_HEADER], rows))
        squats = enumerate(_format_squats(data.squats), 1)
        summary = (",".join((str(n), *row)) for n, row in squats)
        _write_lines(path.with_name(path.stem + "_summary.csv"), chain([SUMMARY_HEADER], summary))
    else:
        if len(data) == 0:
            raise DomainError("cannot emit an empty trajectory")
        iteration = _integer("iteration", iteration, DataError)  # as MeasuredCycle takes it
        try:
            iteration = str(iteration)
        except ValueError:  # past the int-to-str digit limit
            raise DataError(f"iteration {_repr(iteration)} is not a printable integer") from None
        _write_lines(path, chain([TRAJECTORY_HEADER], _trajectory_rows(data, iteration)))
    return path


def _trajectory_rows(trajectory: Trajectory, iteration: int | str) -> Iterator[str]:
    """Rows ``"<iteration>,<four cells>"``, newline-joined per run: spelled by ``_spell``
    a block at a time where that gives ``%.9g``'s bytes, by ``format_number`` elsewhere."""
    import numpy as np

    t = trajectory
    columns = (t.leg_deformation, t.spring_length, t.hip_force, t.stored_energy)
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    prefix = f"{iteration},".encode()
    prefix = np.frombuffer(prefix + b"\0" * (-len(prefix) % 4), "<u4")
    rows = _BLOCK // 4  # one digit-table pass spells a block of four-cell rows
    for a in range(0, len(table), rows):
        block = table[a : a + rows]
        words, fast = _spell(block, prefix)
        start = 0
        for row in (*np.flatnonzero(~fast).tolist(), len(block)):
            if start < row:
                yield words[start:row].tobytes().translate(None, b"\0").decode()[:-1]
            if row < len(block):
                yield ",".join((str(iteration), *map(format_number, block[row].tolist())))
            start = row + 1


def _spell(block: np.ndarray, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of NUL-padded words: ``prefix``, then per value 7 words of its ``%.9g``
    digits ending in "," or a newline; and which rows they spell exactly."""
    import numpy as np

    _, _, pad3, lead, trail, tens = _digits()
    # %.9g is positional for zero and for 1e-4 <= |v| < 1e8 (< 1e9 after rounding).
    fast = (abs(block) < 1e8) & ((abs(block) >= 1e-4) | (block == 0))
    magnitude = np.where(fast & (block != 0), abs(block), 1.0)
    # Nine digits m = rint(|v| * 10^(8-e)) in [1e8, 1e9]; log10 may miss e by one.
    e = np.floor(np.log10(magnitude)).astype(np.int64)
    e += (magnitude * tens[8 - e] >= 1e9).astype(int) - (magnitude * tens[8 - e] < 1e8)
    scaled = magnitude * tens[8 - e]
    m = np.rint(scaled)
    # 10^(8-e) is exact, rounding the product is monotone and keeps a half-integer
    # below 2^30: unless scaled lands on one, rint rounds as %.9g does.
    fast &= abs(scaled - m) != 0.5
    m = m.astype(np.int64) * (block != 0)  # zero spells "0"
    # m = whole * 10^(8-e) + part, a carry m = 1e9 too; part * 10^(4+e) has 12 digits.
    whole, part = np.divmod(m, tens[8 - e].astype(np.int64))
    part *= tens[4 + e].astype(np.int64)
    high, rest = np.divmod(whole, 10**6)
    middle, low = np.divmod(rest, 1000)
    f1, f234 = np.divmod(part, 10**9)
    f2, f34 = np.divmod(f234, 10**6)
    f3, f4 = np.divmod(f34, 1000)
    words = np.empty((len(block), len(prefix) + 28), "<u4")
    words[:, : len(prefix)] = prefix
    cells = words[:, len(prefix) :].reshape(block.shape + (7,))
    # Integer groups lose their leading zeros, fraction groups their trailing ones.
    # Sign, point and separator take free bytes: the first's low, the third's and last's high.
    cells[..., 0] = lead[high] << 8 | np.signbit(block) * np.uint32(ord("-"))
    cells[..., 1] = np.where(high > 0, pad3[middle], lead[middle])
    ones = np.where(whole >= 1000, pad3[low], lead[low]) | (whole == 0) * np.uint32(ord("0"))
    cells[..., 2] = ones | (part > 0) * np.uint32(ord(".") << 24)
    cells[..., 3] = np.where(f234 > 0, pad3[f1], trail[f1])
    cells[..., 4] = np.where(f34 > 0, pad3[f2], trail[f2])
    cells[..., 5] = np.where(f4 > 0, pad3[f3], trail[f3])
    cells[..., 6] = trail[f4] | np.array([ord(","), ord(","), ord(","), ord("\n")], "<u4") << 24
    return words, fast.all(1)


def _format_squats(q: Squats) -> Iterator[tuple[str, ...]]:
    """Per squat, as it is read: x, s_start, s_end, f_start, f_end, e_before,
    e_after, each through ``format_number`` once, and the stop reason's value."""
    columns = (q.x, q.s_start, q.s_end, q.f_start, q.f_end, q.e_before, q.e_after)
    return zip(*(map(format_number, c) for c in columns), (s.value for s in q.stop))


def read_measured_cycles(path: str | Path) -> list[MeasuredCycle]:
    """Read a trajectory CSV back as measured cycles for calibration.

    Rows are grouped by the ``iteration`` column, in order of first row, an
    iteration that resumes after another's rows joining its earlier group; the
    first and last ``spring_length_m`` of each group become the pre-squat and
    locked spring lengths.  The rows after the header are read in blocks of
    ``_BLOCK // 4`` lines (the writer's rows), from a file or a pipe alike:
    numpy's C parser reads each block, and a block it refuses is read a line at
    a time (``_rows``), which alone raises, naming the line; either way the rows
    split into runs of one iteration.  Memory holds one block beyond the
    cycles' float arrays and copies of the open group's runs.
    """
    from .calibration import MeasuredCycle

    try:
        path = Path(path)
        # Universal newlines end a line at \r\n, \r and \n, not at \f or \v; an
        # undecodable byte reads as a lone surrogate, so its line can be named.
        with path.open(errors="surrogateescape") as file:
            groups = _groups(file, path)
    except (OSError, TypeError) as exc:
        raise DataError(f"cannot read measured-cycle CSV {path}: {exc}") from exc
    return [MeasuredCycle(*group) for group in groups]


def _groups(file, path: Path) -> Iterable[tuple]:
    """The groups (iteration, displacements, forces, first and last spring length) of
    ``file``, each joined from the runs of one iteration that ``np.loadtxt`` or ``_rows``
    reads from a block.  ``loadtxt`` takes a subset of what ``int`` and ``float`` take,
    to the same values: no ``_``, non-ASCII digit, blank cell or whitespace-only line."""
    import numpy as np

    lineno, header = next(((n, line) for n, line in enumerate(file, 1) if line.strip()), (0, ""))
    if header.rstrip("\n") != TRAJECTORY_HEADER:
        raise DataError(f"{path}: expected header {TRAJECTORY_HEADER!r}")
    names = TRAJECTORY_HEADER.split(",")
    dtype = [(names[0], "i8"), *((name, "f8") for name in names[1:])]
    lines_dtype = [(names[0], object), *dtype[1:4]]  # ``int`` reads iterations past int64

    def split(rows: np.ndarray) -> list[tuple]:
        # Each run of one iteration: copies of its columns, so no run keeps the block.
        iterations, d, s, f = (rows[name] for name in names[:4])
        starts = [0, *(np.flatnonzero(np.diff(iterations)) + 1).tolist(), len(rows)]
        return [
            (int(iterations[a]), d[a:b].copy(), f[a:b].copy(), float(s[a]), float(s[b - 1]))
            for a, b in zip(starts, starts[1:])
            if a < b  # a block of blank lines has no row
        ]

    def runs(lineno: int) -> Iterator[tuple]:
        while block := list(islice(file, _BLOCK // 4)):
            try:
                with warnings.catch_warnings():
                    # As errors: numpy before 2.4 reads an integer written as a float
                    # ("1.5") through the float, and loadtxt warns on a block with no row.
                    warnings.simplefilter("error")
                    rows = np.loadtxt(block, dtype, delimiter=",", comments=None, ndmin=1)
            except (ValueError, Warning):
                rows = np.array(_rows(block, lineno + 1, path), lines_dtype)
            yield from split(rows)
            lineno += len(block)

    groups: dict[int, tuple] = {}
    for iteration, group in groupby(runs(lineno), itemgetter(0)):
        _, d, f, first, last = zip(*group)  # one group's runs, from one or more blocks
        if (earlier := groups.get(iteration)) is not None:  # the iteration resumes
            d, f, first = (earlier[1], *d), (earlier[2], *f), (earlier[3],)
        groups[iteration] = (iteration, np.concatenate(d), np.concatenate(f), first[0], last[-1])
    return groups.values()


def _rows(block: list[str], lineno: int, path: Path) -> list[tuple]:
    """The rows (iteration, displacement, spring length, force) of ``block``, from line
    ``lineno`` of ``path``, read a line at a time; ``DataError`` naming the first line
    that is neither blank nor five cells of an integer, three floats and any text."""
    rows = []
    for lineno, line in enumerate(block, lineno):
        if not (line := line.rstrip("\n")).strip():
            continue
        if not line.isascii() and _UNDECODABLE.search(line):
            raise DataError(f"{path}:{lineno}: undecodable bytes in row {line!r}")
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        try:
            rows.append((int(parts[0]), *map(float, parts[1:4])))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable row {line!r}") from exc
    return rows


def emit_sweep_csv(rows: Iterable[SweepRow], keys: Sequence[str], path: str | Path) -> Path:
    """Write sweep rows in grid order; one row per point, failures flagged.
    Columns are spelled one at a time, each distinct object in one once.
    ``rows`` that are not an iterable of ``SweepRow`` with mapping ``params`` and
    a string ``reason``, ``keys`` that are no iterable of hashables, and a path
    that is ``None`` or unwritable raise ``DomainError``."""
    path = _path(path)
    for what, items, kind in (("rows", rows, "SweepRow"), ("keys", keys, "column names")):
        try:
            iter(items)
        except TypeError:
            got = type(items).__name__
            raise DomainError(f"{what} must be an iterable of {kind}, got {got}") from None
    rows, keys = list(rows), list(keys)
    for row in rows:
        if not isinstance(row, SweepRow):
            raise DomainError(f"rows must be SweepRows, got {type(row).__name__}")
        if not isinstance(row.params, Mapping):
            kind = type(row.params).__name__
            raise DomainError(f"sweep row params must be a mapping, got {kind}")
        if not isinstance(row.reason, str):
            raise DomainError(f"sweep row reason must be a string, got {type(row.reason).__name__}")
    for key in keys:
        try:
            hash(key)
        except TypeError:  # ``params.get`` would raise it
            raise DomainError(f"sweep key {_repr(key)} is not hashable") from None
    columns = chain(  # each column's values are dropped once they are spelled
        ([row.params.get(k) for row in rows] for k in keys),
        ([getattr(row, field) for row in rows] for field in _SWEEP_COLUMNS.values()),
    )
    reasons = [_quoted(row.reason) if row.reason else "" for row in rows]
    lines = [",".join([*map(_cell, keys), *_SWEEP_COLUMNS, "reason"])]
    lines += map(",".join, zip(*map(_cells, columns), reasons))
    _write_lines(path, ["\n".join(lines)])
    return path


def _cells(column: list) -> list[str]:
    """``_cell`` of each value, spelled once per distinct object: the list holds
    every object it is given, so no two of them share an ``id``."""
    distinct = {id(value): value for value in column}
    spelled = {key: _cell(value) for key, value in distinct.items()}
    return list(map(spelled.__getitem__, map(id, column)))


def _cell(value: object) -> str:
    if isinstance(value, float):  # no bool is a float
        return format_number(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    try:
        text = str(value)
    except ValueError:  # an int past the int-to-str digit limit, or a container of one
        return _repr(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return _quoted(text)
    return text


def _quoted(text: str) -> str:
    """One CSV cell, whatever ``text`` holds: in double quotes, its own turned single."""
    return '"%s"' % text.replace('"', "'")


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
    """Write the fitted scalars and the per-iteration table of a ``FitReport`` as CSV."""
    from .calibration import FitReport

    if not isinstance(report, FitReport):
        raise DomainError(f"report must be a FitReport, got {type(report).__name__}")
    path = _path(path)
    scalars = (report.efficiency, report.force_cap, report.residual_rms)
    ratios = [*map(format_number, report.retention_ratios), *[""] * len(report.cycle_work)]
    works = map(format_number, report.cycle_work)
    lines = [
        "efficiency,force_cap_n,residual_rms_n,flat_objective",
        ",".join([*map(format_number, scalars), str(report.flat_objective).lower()]),
        "iteration,work_j,retention_ratio",
        *(f"{i},{work},{ratio}" for i, (work, ratio) in enumerate(zip(works, ratios), 1)),
    ]
    _write_lines(path, ["\n".join(lines)])
    return path


def _path(path: str | Path) -> Path:
    """``Path(path)``; a path that is no str or os.PathLike raises ``DomainError``."""
    try:
        return Path(path)
    except TypeError:
        raise DomainError(f"path must be a str or os.PathLike, got {type(path).__name__}") from None


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path`` as it comes.  An unwritable
    path raises ``DomainError``, and so does a write error part-way, which leaves
    the lines before it.  Callers with few short lines pass them joined as one:
    a write per line costs more than the join."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as file:
            for line in lines:
                file.write(line)
                file.write("\n")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    dashed.  Output bytes depend only on the result.  The axis bounds come
    from each stroke's two ends, and the squats are sampled a block at a time,
    so memory does not grow with the squat count.  A ``result`` that is no
    ``SimResult`` raises ``DomainError`` before anything is written; a write
    error part-way raises it too and leaves a partial file.
    """
    import numpy as np

    if not isinstance(result, SimResult):
        raise DomainError(f"result must be a SimResult, got {type(result).__name__}")
    if kind not in PLOT_KINDS:
        raise DomainError(f"plot kind must be one of {PLOT_KINDS}, got {kind!r}")
    if not result.squats.x:
        raise DomainError("cannot plot an empty simulation result")
    path = _path(path)

    leg, spring, cap = result.config.leg, result.config.spring, result.config.force_cap
    if kind == "force_deflection":
        field, scale, title = "hip_force", cap, "Force vs. spring deflection"
        y_label = "hip force / force cap"
        # One squat's spring takes up the whole weight linearly over the leg's range.
        ref_x = np.linspace(0.0, leg.max_deformation, 64)
        ref_y = result.config.body.weight * ref_x / leg.max_deformation
    else:
        field, scale = "stored_energy", e1_max(result.config.body, leg)
        title = "Stored energy vs. spring deflection"
        y_label = "stored energy / single-squat bound"
        # One squat compresses the spring up to the cap, or to solid.
        d_cap = min(cap / spring.stiffness, spring.free_length - spring.solid_length)
        ref_x = np.linspace(0.0, d_cap, 64)
        ref_y = 0.5 * spring.stiffness * ref_x**2
    reference = (ref_x, ref_y / scale)

    def curves(sampled: SimResult) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for t in _trajectories(sampled):
            yield spring.free_length - t.spring_length, getattr(t, field) / scale

    # A stroke's extremes are its ends, which two samples give bit for bit (see
    # ``_strokes``); only an energy from past s0 dips inside, to 0, and y_lo <= 0.
    # The guide line at 1.0 (the cap, or the single-squat bound) is always in range.
    x_hi, y_lo, y_hi = reference[0].max(), reference[1].min(), reference[1].max()
    for x, y in curves(replace(result, config=replace(result.config, sample_count=2))):
        x_hi, y_lo = np.maximum(x_hi, x.max()), np.minimum(y_lo, y.min())
        y_hi = np.maximum(y_hi, y.max())
    x_hi, y_lo, y_hi = float(x_hi), min(0.0, float(y_lo)), float(np.maximum(1.0, y_hi)) * 1.05
    if x_hi <= 0.0:  # no deflection at all, as a hand-built result can have
        x_hi = 1.0

    def sx(x: float | np.ndarray) -> float | np.ndarray:
        return _LEFT + x / x_hi * (_WIDTH - _LEFT - _RIGHT)

    def sy(y: float | np.ndarray) -> float | np.ndarray:
        return _HEIGHT - _BOTTOM - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _TOP - _BOTTOM)

    x_axis, mid_y = _HEIGHT - _BOTTOM, (_TOP + _HEIGHT - _BOTTOM) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for tick in np.linspace(0.0, x_hi, 6):
        px = sx(float(tick))
        parts += [_line(px, x_axis, px, x_axis + 5), _tick_label(px, x_axis + 19, "middle", tick)]
    for tick in np.linspace(y_lo, y_hi, 6):
        py = sy(float(tick))
        parts += [_line(_LEFT - 5, py, _LEFT, py), _tick_label(_LEFT - 9, py + 4, "end", tick)]
    parts += [
        _line(_LEFT, x_axis, _WIDTH - _RIGHT, x_axis, width="1.5"),
        _line(_LEFT, _TOP, _LEFT, x_axis, width="1.5"),
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="{_HEIGHT - 14:.1f}" '
        'text-anchor="middle" font-family="sans-serif" font-size="13">'
        "cumulative spring deflection [m]</text>",
        f'<text x="18" y="{mid_y:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {mid_y:.1f})">{y_label}</text>',
        _line(_LEFT, sy(1.0), _WIDTH - _RIGHT, sy(1.0), stroke="#888888", dash="2 3"),
        _polyline(*reference, sx, sy, "#444444", dashed=True),
    ]
    drawn = (_polyline(cx, cy, sx, sy, c) for (cx, cy), c in zip(curves(result), cycle(_COLORS)))
    _write_lines(path, chain(["\n".join(parts)], drawn, ["</svg>"]))
    return path


def _line(x1, y1, x2, y2, stroke: str = "black", width: str = "1", dash: str = "") -> str:
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
    )


def _tick_label(x, y, anchor: str, value) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="11">{value:.3g}</text>'
    )


def _polyline(x, y, sx, sy, color: str, dashed: bool = False) -> str:
    """A polyline through ``(sx(x), sy(y))``, whose points read ``"%.2f,%.2f"``
    joined by spaces: spelled from ``_digits`` one block of rows at a time
    where that gives the same bytes, through ``%`` elsewhere."""
    import numpy as np

    # On float64 arrays sx/sy do a per-point call's IEEE operations, in order.
    table = np.column_stack((sx(x), sy(y)))
    units, cents, *_ = _digits()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = 100.0 * table
        cent = np.rint(scaled)
        # Rounding the product is monotone and keeps a half-integer below 1e5, so
        # unless it lands on one, rint gives the cents %.2f rounds 100 * value to.
        # Signed values (-0.0 too), nan, inf, 999.995 and up, and ties go through %.
        fast = ~np.signbit(table) & (scaled < 99999.5) & (abs(scaled - cent) != 0.5)
    # Each point is 8 bytes: its unit word, its cents, "," or " ", and a NUL
    # that is dropped with the unit words' padding.
    separators = np.array([ord(","), ord(" ")], "<u4") << 16
    pieces, start = [], 0
    for row in (*np.flatnonzero(~fast.all(axis=1)).tolist(), len(table)):
        for a in range(start, row, _BLOCK // 4):  # the rows ``_trajectory_rows`` spells at once
            whole, part = np.divmod(cent[a : min(a + _BLOCK // 4, row)].astype(np.int64), 100)
            words = np.stack((units[whole], cents[part] | separators), axis=-1)
            pieces.append(words.tobytes().translate(None, b"\0").decode())
        if row < len(table):
            pieces.append("%.2f,%.2f " % tuple(table[row].tolist()))
        start = row + 1
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    points = "".join(pieces)[:-1]
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.8"{dash} points="{points}"/>'


@cache
def _digits() -> tuple[np.ndarray, ...]:
    """Little-endian words for 0..999, built on first use (``sweep`` loads no numpy):
    ``b"%d."``; ``b"%03d"`` whole, without leading zeros and without trailing ones;
    ``b"%02d"`` for 0..99 in the low half; and the floats 10^0..10^13, all exact."""
    import numpy as np

    units = np.array([b"%d." % i for i in range(1000)], "S4").view("<u4")
    cents = np.array([b"%02d" % i for i in range(100)], "S2").view("<u2").astype("<u4")
    three = [b"%03d" % i for i in range(1000)]
    groups = [(t, t.lstrip(b"0"), t.rstrip(b"0")) for t in three]
    pad3, lead, trail = np.array(groups, "S4").view("<u4").T.copy()
    return units, cents, pad3, lead, trail, np.array([10**k for k in range(14)], float)
