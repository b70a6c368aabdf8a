"""The four benchmark workloads: seeded inputs, the op, and its output checks.

Each workload generates its inputs from a seed as config and grid *texts*,
writes them and parses them through springleg (that is the set-up), and
defines one op: the library calls a user makes for one job.  Ops call the
library as ``sl.<function>`` at call time and through ``tracer.call`` so the
traced pass can time each public call.

Sizes are stratified and only jittered by the seed: every seed yields the
same mix of short and long ops, so the end-to-end figures of different seeds
are comparable.

Checks run outside the timed region.  The first output of each input is
verified in full (against ``tests/oracle.py``, the closed-form ceiling, the
seeded fit truth or the simulated samples); later outputs of the same input
must then be identical to that verified output, since springleg is
deterministic.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import springleg as sl

ROOT = Path(__file__).resolve().parent.parent


def _load_oracle():
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("springleg_oracle", path)
    if spec is None or not path.is_file():
        raise ImportError(f"reference oracle not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle_simulate = _load_oracle().oracle_simulate

# Values of configs/four_squat_demo.cfg and configs/prototype_trend.cfg,
# frozen here so that the workloads do not change when those files do.
FOUR_SQUAT = {
    "mass_kg": 30.6,
    "gravity_mps2": 10.0,
    "segment_length_m": 0.5,
    "standing_length_m": 0.9,
    "max_deformation_m": 0.72,
    "spring_stiffness_n_per_m": 1000.0,
    "spring_free_length_m": 0.9,
    "spring_solid_length_m": 0.198,
    "initial_spring_position_m": 0.5,
    "force_cap_n": 306.0,
    "efficiency": 1.0,
    "ratchet_pitch_m": 0.0,
    "policy": "force_limited",
    "max_iterations": 100,
    "sample_count": 1000,
}
PROTOTYPE_TREND = {
    **FOUR_SQUAT,
    "mass_kg": 70.0,
    "gravity_mps2": 9.80665,
    "segment_length_m": 0.205,
    "standing_length_m": 0.32,
    "max_deformation_m": 0.10,
    "spring_stiffness_n_per_m": 900.0,
    "spring_free_length_m": 0.114,
    "spring_solid_length_m": 0.07752,
    "initial_spring_position_m": 0.07303125,
    "force_cap_n": 8.7723,
    "efficiency": 0.84,
}

#: Squat budget of the capacity queries; set as max_iterations so the
#: cyclic probe runs exactly what max_energy and min_squats run.
BUDGET = 10_000
#: Half a unit in the 9th significant digit, relative: the CSV round trip.
DIGITS_9 = 5.0000001e-9
REL_TOL = 1e-9
#: Out of range, so every grid point carrying it is flagged invalid.
INVALID_EFFICIENCY = 1.05


class CheckFailed(Exception):
    """An op's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def matches_9_digits(read, simulated) -> bool:
    read, simulated = np.asarray(read, float), np.asarray(simulated, float)
    return read.shape == simulated.shape and bool(
        np.all(np.abs(read - simulated) <= DIGITS_9 * np.abs(simulated))
    )


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def critical_cap(values: dict, efficiency: float) -> float:
    """Tangent-bifurcation force cap s0^2 k / (4 sqrt(eta) l_stand): below it a
    ratchet-free run converges, above it the run reaches full compression."""
    s0 = values["spring_free_length_m"]
    return s0 * s0 * values["spring_stiffness_n_per_m"] / (
        4.0 * math.sqrt(efficiency) * values["standing_length_m"]
    )


def fixed_point(values: dict) -> tuple[float, float] | None:
    """Start and end spring length at the fixed point of the cap-bound squat
    map s -> s0 - sqrt(eta) c / s, c = cap l_stand / k; None if it has none."""
    s0, k = values["spring_free_length_m"], values["spring_stiffness_n_per_m"]
    c = values["force_cap_n"] * values["standing_length_m"] / k
    disc = s0 * s0 - 4.0 * math.sqrt(values["efficiency"]) * c
    if disc < 0:
        return None
    s_star = 0.5 * (s0 + math.sqrt(disc))
    return s_star, s0 - c / s_star


def closed_form_ceiling(values: dict, ref: dict) -> float | None:
    """Energy ceiling 1/2 k (c/s*)^2 for a ratchet-free, force-limited run
    that converged on the force cap before its budget; None otherwise."""
    records = ref["records"]
    if (
        values["ratchet_pitch_m"] != 0
        or values["policy"] != "force_limited"
        or ref["full_at"] is not None
        or len(records) >= values["max_iterations"]
        or records[-1]["reason"] != "force_cap"
    ):
        return None
    point = fixed_point(values)
    expect(point is not None, "run converged although the squat map has no fixed point")
    s0, k = values["spring_free_length_m"], values["spring_stiffness_n_per_m"]
    return 0.5 * k * (s0 - point[1]) ** 2


def oracle_params(values: dict) -> dict:
    return dict(
        lt=values["segment_length_m"],
        lstand=values["standing_length_m"],
        dlmax=values["max_deformation_m"],
        k=values["spring_stiffness_n_per_m"],
        s0=values["spring_free_length_m"],
        smin=values["spring_solid_length_m"],
        x1=values["initial_spring_position_m"],
        cap=values["force_cap_n"],
        eta=values["efficiency"],
        pitch=values["ratchet_pitch_m"],
        force_limited=values["policy"] == "force_limited",
        max_iter=values["max_iterations"],
    )


def _text(value: object) -> str:
    return value if isinstance(value, str) else repr(value)


def config_text(values: dict) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in values.items())


def grid_text(columns: dict) -> str:
    return "".join(
        f"{key} = {', '.join(_text(v) for v in values)}\n" for key, values in columns.items()
    )


def parse_config_file(text: str, path: Path, tracer):
    path.write_text(text)
    return tracer.call("config.parse_config", sl.parse_config, path)


def written(paths) -> tuple[int, int]:
    """Data rows (lines after each header) and bytes of the written files."""
    rows = size = 0
    for path in paths:
        data = Path(path).read_bytes()
        size += len(data)
        if Path(path).suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, size


@dataclass
class Input:
    index: int
    values: dict  # the generated config values (and whatever the checks need)
    parsed: dict = field(default_factory=dict)  # library objects built in set-up


class Workload:
    name = ""
    #: Seconds one pass over the full-size inputs took when the workload was
    #: defined (2-core x86-64 VM, Python 3.11, numpy 2.4).  A run of S
    #: seconds makes round(S / nominal_cycle_s) passes, so two commits
    #: compared with the same S do the same ops.
    nominal_cycle_s = 1.0
    #: Whether the allocation pass runs the op itself under tracemalloc.
    alloc_op = True

    def generate(self, rng: np.random.Generator, tiny: bool) -> list[dict]:
        raise NotImplementedError

    def parse(self, index: int, values: dict, folder: Path, tracer) -> Input:
        raise NotImplementedError

    def op(self, inp: Input, tracer, folder: Path):
        raise NotImplementedError

    def verify(self, inp: Input, out) -> str:
        """Check ``out`` in full; return its fingerprint."""
        raise NotImplementedError

    def fingerprint(self, inp: Input, out) -> str:
        raise NotImplementedError

    def probe_configs(self, inp: Input) -> list:
        """Configurations whose cyclic.simulate runs mirror the op's squats."""
        return [inp.parsed["config"]]

    def counts(self, inp: Input, out) -> dict[str, int]:
        return {}

    def extra_metrics(self, inputs: list[Input], workers: int) -> dict[str, float]:
        return {}


class DesignSweep(Workload):
    """One explore.sweep over a few hundred grid points, then emit_sweep_csv."""

    name = "design_sweep"
    nominal_cycle_s = 0.3
    KEYS = ("force_cap_n", "spring_stiffness_n_per_m", "efficiency", "ratchet_pitch_m", "policy")

    def generate(self, rng, tiny):
        specs = []
        for g in range(1 if tiny else 5):
            template = (FOUR_SQUAT, PROTOTYPE_TREND)[g % 2]
            cap = critical_cap(template, 1.0)
            k = template["spring_stiffness_n_per_m"]
            s0 = template["spring_free_length_m"]
            columns = {
                "force_cap_n": [cap * f * rng.uniform(0.98, 1.02) for f in (0.6, 0.9, 1.1, 1.5)],
                "spring_stiffness_n_per_m": [
                    k * f * rng.uniform(0.98, 1.02) for f in (0.8, 1.0, 1.25)
                ],
                "efficiency": [
                    1.0,
                    INVALID_EFFICIENCY,
                    rng.uniform(0.75, 0.85),
                    rng.uniform(0.9, 0.97),
                ],
                "ratchet_pitch_m": [0.0, s0 * 1e-4 * rng.uniform(0.9, 1.1), s0 * 2e-3],
                "policy": ["force_limited", "full_range"],
            }
            if tiny:  # 8 points
                columns = {key: values[:2] for key, values in columns.items()}
                columns["spring_stiffness_n_per_m"] = columns["spring_stiffness_n_per_m"][:1]
                columns["policy"] = columns["policy"][:1]
            specs.append({"template": template, "columns": columns})
        return specs

    def parse(self, index, values, folder, tracer):
        config = parse_config_file(config_text(values["template"]), folder / f"t{index}.cfg", tracer)
        grid = folder / f"g{index}.grid"
        grid.write_text(grid_text(values["columns"]))
        points = tracer.call("config.parse_grid", sl.parse_grid, grid)
        return Input(index, values, {"config": config, "points": points})

    def op(self, inp, tracer, folder):
        rows = tracer.call("explore.sweep", sl.sweep, inp.parsed["config"], inp.parsed["points"])
        path = tracer.call(
            "output.emit_sweep_csv", sl.emit_sweep_csv, rows, self.KEYS, folder / "sweep.csv"
        )
        return rows, path

    def verify(self, inp, out):
        rows, path = out
        points = inp.parsed["points"]
        expect(len(rows) == len(points), f"{len(rows)} rows for {len(points)} points")
        for n, (point, row) in enumerate(zip(points, rows)):
            where = f"grid {inp.index} point {n}"
            values = {**inp.values["template"], **point}
            expect(row.params == point, f"{where}: row params {row.params} != {point}")
            if values["efficiency"] > 1.0:
                expect(row.status == "invalid", f"{where}: status {row.status}, expected invalid")
                continue
            try:
                ref = oracle_simulate(oracle_params(values))
            except RuntimeError:
                expect(row.status == "stall", f"{where}: status {row.status}, expected stall")
                continue
            records = ref["records"]
            expect(row.status == "ok", f"{where}: status {row.status} ({row.reason})")
            # A run that does not end at full compression ends on a gain of
            # ~tol_gain = 1e-12 J between energies of tens of joules, or on a
            # squat that starts at the cap; rounding can move either stop by
            # one squat between two correct implementations.
            expect(
                row.iterations == len(records)
                or (ref["full_at"] is None and abs(row.iterations - len(records)) == 1),
                f"{where}: {row.iterations} squats, oracle {len(records)}",
            )
            expect(
                row.iterations_to_full_compression == ref["full_at"],
                f"{where}: full compression at {row.iterations_to_full_compression}, oracle {ref['full_at']}",
            )
            expect(
                close(row.final_energy, records[-1]["e_after"]),
                f"{where}: final energy {row.final_energy}, oracle {records[-1]['e_after']}",
            )
            expect(
                close(row.peak_force, max(r["f_end"] for r in records)),
                f"{where}: peak force {row.peak_force} differs from the oracle",
            )
            ceiling = closed_form_ceiling(values, ref)
            if ceiling is not None:
                expect(
                    close(row.final_energy, ceiling),
                    f"{where}: final energy {row.final_energy}, closed-form ceiling {ceiling}",
                )
        lines = Path(path).read_text().splitlines()
        expect(len(lines) == len(rows) + 1, f"sweep CSV has {len(lines)} lines for {len(rows)} rows")
        expect(lines[0].startswith(",".join(self.KEYS) + ",status,"), "sweep CSV header")
        return self.fingerprint(inp, out)

    def fingerprint(self, inp, out):
        rows, path = out
        return digest(repr(rows).encode(), Path(path).read_bytes())

    def probe_configs(self, inp):
        configs = []
        for point in inp.parsed["points"]:
            try:
                configs.append(sl.config_from_values({**inp.values["template"], **point}))
            except sl.ConfigurationError:
                pass  # an invalid point: the sweep runs no squat for it
        return configs

    def counts(self, inp, out):
        rows, path = out
        written_rows, size = written([path])
        return {
            "points": len(rows),
            "points_ok": sum(row.status == "ok" for row in rows),
            "rows_written": written_rows,
            "bytes_written": size,
        }

    def extra_metrics(self, inputs, workers):
        """Serial sweep time over sweep time with ``workers`` threads, same grid."""
        config, points = inputs[0].parsed["config"], inputs[0].parsed["points"]
        serial, threaded = [], []
        for _ in range(3):
            start = time.perf_counter()
            sl.sweep(config, points)
            serial.append(time.perf_counter() - start)
            start = time.perf_counter()
            sl.sweep(config, points, workers=workers)
            threaded.append(time.perf_counter() - start)
        return {"explore.thread_speedup": statistics.median(serial) / statistics.median(threaded)}


# (sign of the cap offset, log10 of the relative offset from the critical
# cap, ratchet pitch in m).  Runs span ~15 squats to the budget on both sides
# of the bifurcation; the ratchet share is the part a closed-form query cannot
# answer.  The strata come in three groups of five, by cost: short runs, five
# jittered copies of one ~550-squat stratum, and long runs (four at the
# budget).  A run's op_p50_ms then falls amid the middle group's samples and
# its op_tail_ms amid the budget ops' samples, whatever the seed.
CAPACITY_STRATA = (
    (+1, -1.5, 0.0),
    (-1, -2.0, 0.0),
    (+1, -2.0, 1e-4),
    (-1, -3.0, 3e-6),
    (-1, -5.0, 1e-5),
    (+1, -4.5, 0.0),
    (+1, -4.5, 0.0),
    (+1, -4.5, 0.0),
    (+1, -4.5, 0.0),
    (+1, -4.5, 0.0),
    (+1, -6.0, 4e-7),
    (+1, -8.0, 0.0),
    (-1, -8.0, 0.0),
    (-1, -6.5, 0.0),
    (-1, -6.0, 0.0),
)
CAPACITY_TINY = CAPACITY_STRATA[:3]


class CapacityQueries(Workload):
    """max_energy plus min_squats on one config near the critical force cap."""

    name = "capacity_queries"
    nominal_cycle_s = 3.5
    alloc_op = False  # explore only; its squats are measured by the cyclic probe

    def generate(self, rng, tiny):
        specs = []
        for sign, offset, pitch in CAPACITY_TINY if tiny else CAPACITY_STRATA:
            efficiency = rng.uniform(0.9, 1.0)
            offset += rng.uniform(-0.02, 0.02)
            values = {
                **FOUR_SQUAT,
                "force_cap_n": critical_cap(FOUR_SQUAT, efficiency) * (1.0 + sign * 10.0**offset),
                "efficiency": efficiency,
                "ratchet_pitch_m": pitch * 10.0 ** rng.uniform(-0.02, 0.02),
                "max_iterations": BUDGET,
            }
            capacity = 0.5 * values["spring_stiffness_n_per_m"] * (
                values["spring_free_length_m"] - values["spring_solid_length_m"]
            ) ** 2
            specs.append({"config": values, "target": rng.uniform(0.1, 0.9) * capacity})
        return specs

    def parse(self, index, values, folder, tracer):
        config = parse_config_file(config_text(values["config"]), folder / f"c{index}.cfg", tracer)
        return Input(index, values, {"config": config})

    def op(self, inp, tracer, folder):
        config = inp.parsed["config"]
        energy = tracer.call("explore.max_energy", sl.max_energy, config)
        squats = tracer.call("explore.min_squats", sl.min_squats, config, inp.values["target"])
        return energy, squats

    def verify(self, inp, out):
        energy, squats = out
        values, target = inp.values["config"], inp.values["target"]
        ref = oracle_simulate(oracle_params(values))
        records = ref["records"]
        k, s0 = values["spring_stiffness_n_per_m"], values["spring_free_length_m"]
        if ref["full_at"] is not None:
            expected = 0.5 * k * (s0 - values["spring_solid_length_m"]) ** 2
        else:
            expected = records[-1]["e_after"]
        expect(close(energy, expected), f"config {inp.index}: max_energy {energy}, oracle {expected}")
        ceiling = closed_form_ceiling(values, ref)
        if ceiling is not None:
            expect(close(energy, ceiling), f"config {inp.index}: max_energy {energy}, closed form {ceiling}")
        preload = records[0]["e_before"]
        if target <= preload:
            expected_squats = 0
        else:
            expected_squats = next(
                (n for n, r in enumerate(records, 1) if r["e_after"] >= target), None
            )
        expect(
            squats == expected_squats,
            f"config {inp.index}: min_squats {squats}, oracle {expected_squats}",
        )
        return self.fingerprint(inp, out)

    def fingerprint(self, inp, out):
        return repr(out)


FIT_CYCLES = (2, 3, 4, 5, 6, 7, 8)
FIT_SAMPLES = (1000, 250, 1000, 250, 1000, 250, 1000)


class FitRoundtrip(Workload):
    """springleg simulate -> springleg fit through the library: simulate a
    seeded truth, emit its CSV, read it back, fit efficiency and force cap."""

    name = "fit_roundtrip"
    nominal_cycle_s = 3.0

    def generate(self, rng, tiny):
        specs = []
        pairs = list(zip(FIT_CYCLES, FIT_SAMPLES))
        for cycles, samples in pairs[:1] if tiny else pairs:
            smin, s0 = PROTOTYPE_TREND["spring_solid_length_m"], PROTOTYPE_TREND["spring_free_length_m"]
            while True:  # keep truths whose fixed point stays clear of the solid length,
                # so the run lasts exactly ``cycles`` squats
                efficiency = rng.uniform(0.7, 0.95)
                cap = critical_cap(PROTOTYPE_TREND, efficiency) * rng.uniform(0.6, 0.72)
                truth = {
                    **PROTOTYPE_TREND,
                    "force_cap_n": cap,
                    "efficiency": efficiency,
                    "max_iterations": cycles,
                    "sample_count": samples,
                }
                point = fixed_point(truth)
                if point is not None and point[1] > smin + 0.1 * (s0 - smin):
                    break
            start = {**truth, "efficiency": 1.0}
            del start["force_cap_n"]  # the fit starts from the body-weight default
            specs.append({"truth": truth, "start": start})
        return specs

    def parse(self, index, values, folder, tracer):
        truth = parse_config_file(config_text(values["truth"]), folder / f"truth{index}.cfg", tracer)
        start = parse_config_file(config_text(values["start"]), folder / f"fit{index}.cfg", tracer)
        return Input(index, values, {"config": truth, "start": start})

    def op(self, inp, tracer, folder):
        result = tracer.call("cyclic.simulate", sl.simulate, inp.parsed["config"])
        path = tracer.call(
            "output.emit_trajectory_csv", sl.emit_trajectory_csv, result, folder / "measured.csv"
        )
        cycles = tracer.call("output.read_measured_cycles", sl.read_measured_cycles, path)
        report = tracer.call("calibration.fit_model", sl.fit_model, cycles, inp.parsed["start"])
        return result, path, cycles, report

    def verify(self, inp, out):
        result, _, cycles, report = out
        truth = inp.values["truth"]
        expect(
            len(result.records) == len(cycles) == truth["max_iterations"],
            f"truth {inp.index}: {len(result.records)} squats, {len(cycles)} cycles read, "
            f"{truth['max_iterations']} expected",
        )
        for name, got, want in (
            ("efficiency", report.efficiency, truth["efficiency"]),
            ("force cap", report.force_cap, truth["force_cap_n"]),
        ):
            expect(
                abs(got - want) <= 0.01 * want,
                f"truth {inp.index}: fitted {name} {got} is not within 1% of {want}",
            )
        return self.fingerprint(inp, out)

    def fingerprint(self, inp, out):
        return repr((out[3].efficiency, out[3].force_cap))

    def counts(self, inp, out):
        _, path, cycles, _ = out
        rows, size = written([path, path.with_name(path.stem + "_summary.csv")])
        samples = sum(len(c.hip_displacement) for c in cycles)
        return {
            "fit_cycles": len(cycles),
            "fit_samples": samples,
            "rows_read": samples,
            "rows_written": rows,
            "bytes_written": size,
            "samples_used": samples,  # every sample of the truth is emitted
        }


ARTIFACT_SQUATS = (4, 8, 13, 17, 22, 26, 31, 35, 40)
PLOT_KINDS = ("force_deflection", "energy")


@dataclass
class Artifacts:
    result: object  # SimResult of the simulate command
    release: object  # ReleaseProfile of the release command
    trajectory: Path
    summary: Path
    plots: list[Path]
    release_csv: Path

    @property
    def files(self) -> list[Path]:
        return [self.trajectory, self.summary, *self.plots, self.release_csv]


class ArtifactEmit(Workload):
    """What `springleg simulate`, `plot` (both kinds) and `release` do; each
    command simulates the config itself, as the CLI does."""

    name = "artifact_emit"
    nominal_cycle_s = 2.3

    def generate(self, rng, tiny):
        specs = []
        for squats in ARTIFACT_SQUATS[:1] if tiny else ARTIFACT_SQUATS:
            efficiency = rng.uniform(0.9, 1.0)
            # just below the critical cap: hundreds of squats to converge, so
            # the run stops at max_iterations
            cap = critical_cap(FOUR_SQUAT, efficiency) * (1.0 - 10.0 ** rng.uniform(-4.0, -3.0))
            specs.append(
                {
                    "config": {
                        **FOUR_SQUAT,
                        "force_cap_n": cap,
                        "efficiency": efficiency,
                        "max_iterations": squats,
                    }
                }
            )
        return specs

    def parse(self, index, values, folder, tracer):
        config = parse_config_file(config_text(values["config"]), folder / f"a{index}.cfg", tracer)
        return Input(index, values, {"config": config})

    def op(self, inp, tracer, folder):
        config = inp.parsed["config"]
        with tracer.span("cmd.simulate"):
            result = tracer.call("cyclic.simulate", sl.simulate, config)
            trajectory = tracer.call(
                "output.emit_trajectory_csv", sl.emit_trajectory_csv, result, folder / "trajectory.csv"
            )
        plots = []
        for kind in PLOT_KINDS:
            with tracer.span("cmd.plot"):
                plotted = tracer.call("cyclic.simulate", sl.simulate, config)
                plots.append(
                    tracer.call("output.emit_plot_svg", sl.emit_plot_svg, plotted, kind, folder / f"{kind}.svg")
                )
        with tracer.span("cmd.release"):
            locked = tracer.call("cyclic.simulate", sl.simulate, config).final_spring_length
            profile = tracer.call("cyclic.release_profile", sl.release_profile, locked, config)
            release_csv = tracer.call(
                "output.emit_trajectory_csv",
                sl.emit_trajectory_csv,
                profile.trajectory,
                folder / "release.csv",
                iteration=0,
            )
        summary = trajectory.with_name(trajectory.stem + "_summary.csv")
        return Artifacts(result, profile, trajectory, summary, plots, release_csv)

    def verify(self, inp, out):
        squats = inp.values["config"]["max_iterations"]
        records, trajectories = out.result.records, out.result.trajectories
        expect(len(records) == squats, f"config {inp.index}: {len(records)} squats, expected {squats}")
        cycles = sl.read_measured_cycles(out.trajectory)
        expect(len(cycles) == squats, f"config {inp.index}: read {len(cycles)} cycles of {squats}")
        for cycle, record, traj in zip(cycles, records, trajectories):
            where = f"config {inp.index} squat {record.state.iteration}"
            expect(cycle.iteration == record.state.iteration, f"{where}: read as {cycle.iteration}")
            expect(
                matches_9_digits(cycle.hip_displacement, traj.leg_deformation)
                and matches_9_digits(cycle.hip_force, traj.hip_force)
                and matches_9_digits(
                    [cycle.spring_length_start, cycle.spring_length_end],
                    traj.spring_length[[0, -1]],
                ),
                f"{where}: CSV samples differ from the simulated ones beyond 9 digits",
            )
        summary = out.summary.read_text().splitlines()
        expect(len(summary) == squats + 1, f"config {inp.index}: summary has {len(summary)} lines")
        for plot in out.plots:
            svg = plot.read_text()
            expect(
                svg.startswith("<svg") and svg.endswith("</svg>\n")
                and svg.count("<polyline") == squats + 1,
                f"config {inp.index}: {plot.name} is not a plot of {squats} squats",
            )
        rows = [line.split(",") for line in out.release_csv.read_text().splitlines()[1:]]
        columns = np.array([[float(v) for v in row[1:]] for row in rows]).T
        traj = out.release.trajectory
        expect(
            len(rows) == len(traj)
            and all(row[0] == "0" for row in rows)
            and all(
                matches_9_digits(column, array)
                for column, array in zip(
                    columns,
                    (traj.leg_deformation, traj.spring_length, traj.hip_force, traj.stored_energy),
                )
            ),
            f"config {inp.index}: release CSV differs from the release profile beyond 9 digits",
        )
        return self.fingerprint(inp, out)

    def fingerprint(self, inp, out):
        return digest(*(path.read_bytes() for path in out.files))

    def counts(self, inp, out):
        rows, size = written(out.files)
        return {
            "rows_written": rows,
            "bytes_written": size,
            "samples_used": written([out.trajectory])[0],
        }


WORKLOADS = {w.name: w for w in (DesignSweep(), CapacityQueries(), FitRoundtrip(), ArtifactEmit())}
