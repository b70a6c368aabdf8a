"""Command-line surface: baseline, simulate, release, sweep, fit, plot.

Exit codes: 0 on success (also if a reader closes standard output early), 2 on
usage or configuration errors, 3 when the configuration is infeasible.  Summaries
go to standard output after the machine artifacts (CSV, SVG) go to files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .baseline import baseline_result, e1_max
from .config import parse_config, parse_grid
from .cyclic import release_profile, simulate
from .errors import ConfigurationError, DataError, DomainError, SimulationError
from .explore import sweep
from .model import Configuration
from .output import (
    PLOT_KINDS,
    _format_squats,
    _write_lines,
    emit_fit_report_csv,
    emit_plot_svg,
    emit_sweep_csv,
    emit_trajectory_csv,
    format_fit_report,
    format_number,
    read_measured_cycles,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="springleg",
        description="Quasi-static floating-spring leg: simulation, calibration, design search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="configuration file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, type=Path, help="output directory for the artifacts")

    p = sub.add_parser(
        "baseline", parents=[config], help="single-squat fixed-spring reference quantities"
    )
    p.add_argument(
        "--bottom-force",
        type=float,
        default=0.0,
        help="leg force retained at full squat depth [N] (default 0)",
    )
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("simulate", parents=[config, out], help="run the multi-squat accumulation")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "release", parents=[config, out], help="release profile from the locked final state"
    )
    p.add_argument(
        "--x-release",
        type=float,
        default=None,
        help="spring position during release [m] (default: segment length)",
    )
    p.add_argument(
        "--spring-length",
        type=float,
        default=None,
        help="locked spring length [m] (default: simulate and use the final length)",
    )
    p.set_defaults(func=_cmd_release)

    p = sub.add_parser("sweep", parents=[config, out], help="evaluate a parameter grid")
    p.add_argument("--grid", required=True, help="grid specification file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", parents=[config, out], help="fit the loss model to measured cycles")
    p.add_argument("--data", required=True, help="measured-cycle CSV (trajectory schema)")
    p.add_argument(
        "--unknowns",
        default="efficiency,force_cap",
        help="comma list of parameters to fit: efficiency, force_cap",
    )
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("plot", parents=[config, out], help="render a normalized SVG plot of a run")
    p.add_argument("--kind", choices=PLOT_KINDS, default="force_deflection")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 on a usage error
        return exc.code
    try:
        code = args.func(parse_config(args.config), args)
        sys.stdout.flush()  # here, so that a closed stdout is caught below, not at exit
        return code
    except (ConfigurationError, DomainError, DataError) as exc:
        print(f"springleg: error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"springleg: error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet final flush
        return 0  # every command writes its files before it prints


def _cmd_baseline(config: Configuration, args: argparse.Namespace) -> int:
    res = baseline_result(args.bottom_force, config.body, config.leg)
    print(f"weight [N]              : {format_number(config.body.weight)}")
    print(f"bottom force [N]        : {format_number(res.bottom_force)}")
    print(f"required stiffness [N/m]: {format_number(res.stiffness)}")
    print(f"average leg force [N]   : {format_number(res.average_force)}")
    print(f"stored energy [J]       : {format_number(res.stored_energy)}")
    print(f"single-squat bound [J]  : {format_number(res.e1_max)}")
    return 0


def _cmd_simulate(config: Configuration, args: argparse.Namespace) -> int:
    result = simulate(config)
    csv_path = emit_trajectory_csv(result, args.out / "trajectory.csv")
    _print_run_summary(result)
    print(f"wrote {csv_path} and {csv_path.with_name(csv_path.stem + '_summary.csv')}")
    return 0


def _print_run_summary(result) -> None:
    rows = _format_squats(result.squats)
    for n, (x, s_start, s_end, f_start, f_end, _, e_after, stop) in enumerate(rows, 1):
        print(
            f"squat {n}: x={x} m, s {s_start} -> {s_end} m, "
            f"force {f_start} -> {f_end} N, energy {e_after} J [{stop}]"
        )
    reached = result.iterations_to_full_compression
    print(f"final energy [J]        : {format_number(result.final_energy)}")
    e1 = e1_max(result.config.body, result.config.leg)
    print(f"final / single-squat    : {format_number(result.final_energy / e1)}")
    print(
        "full compression        : "
        + (f"after {reached} squats" if reached is not None else "not reached")
    )
    print(f"termination             : {result.termination.value}")


def _cmd_release(config: Configuration, args: argparse.Namespace) -> int:
    if args.spring_length is not None:
        locked = args.spring_length
    else:
        locked = simulate(config).final_spring_length
    profile = release_profile(locked, config, x_release=args.x_release)
    csv_path = emit_trajectory_csv(profile.trajectory, args.out / "release.csv", iteration=0)
    print(f"locked spring length [m]: {format_number(locked)}")
    print(f"peak assistive force [N]: {format_number(profile.peak_force)}")
    print(f"released energy [J]     : {format_number(profile.released_energy)}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_sweep(config: Configuration, args: argparse.Namespace) -> int:
    points = parse_grid(args.grid)
    rows = sweep(config, points)
    keys = list(points[0].keys())
    path = emit_sweep_csv(rows, keys, args.out / "sweep.csv")
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"evaluated {len(rows)} grid points ({ok} ok, {len(rows) - ok} flagged)")
    print(f"wrote {path}")
    return 0


def _cmd_fit(config: Configuration, args: argparse.Namespace) -> int:
    from .calibration import fit_model

    cycles = read_measured_cycles(args.data)
    unknowns = {u.strip() for u in args.unknowns.split(",") if u.strip()}
    bad = unknowns - {"efficiency", "force_cap"}
    if bad:
        raise ConfigurationError(f"unknown fit parameters: {', '.join(sorted(bad))}")
    report = fit_model(
        cycles,
        config,
        fit_efficiency="efficiency" in unknowns,
        fit_force_cap="force_cap" in unknowns,
    )
    text = format_fit_report(report)
    _write_lines(args.out / "fit.txt", text.splitlines())
    csv_path = emit_fit_report_csv(report, args.out / "fit.csv")
    print(text, end="")
    print(f"wrote {args.out / 'fit.txt'} and {csv_path}")
    return 0


def _cmd_plot(config: Configuration, args: argparse.Namespace) -> int:
    result = simulate(config)
    path = emit_plot_svg(result, args.kind, args.out / f"{args.kind}.svg")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
