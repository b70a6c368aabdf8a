"""Layer-by-layer benchmark of springleg.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 15 --trace 0

One process runs one workload, single-threaded and closed-loop: the next op
starts when the previous one has returned.  ``--seconds`` sets the amount of
work: the run makes ``round(seconds / nominal_cycle_s)`` passes (at least 3)
over the workload's seeded inputs, which took about that long on the machine
the workloads were defined on, so two commits compared on the same seed do
the same ops.

``--trace 0`` times the ops untraced and reports the end-to-end metrics of
BENCHMARK.json.  On a shared VM the CPU speed drifts by tens of percent over
minutes, so each end-to-end time is scaled to a fixed machine speed: a fixed
pure-Python loop (``reference``) is timed right before every op and every
set-up, and a time t is reported as t * REFERENCE_S / r, with r the median of
the last REFERENCE_WINDOW loop times.  No library code runs in the loop, so a
change to springleg moves the scaled times exactly as it moves the raw ones;
the raw times and r are printed and saved next to them.

``--trace 1`` reports the per-layer metrics instead: it runs every op twice,
untraced and with spans around each library call (the difference is the
tracing overhead), probes ``cyclic.simulate`` on the same inputs outside the
ops, and measures allocation peaks with tracemalloc in a pass of its own.  A
per-layer metric the workload cannot produce is taken from a tiny run of the
workload ``predictions.json`` names for it.

Every op's output is checked outside the timed region; an op that raises or
fails its check counts as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are for people.  A copy of the result, with the environment and in
trace mode all spans and their self times, is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from tracing import AllocTracer, NullTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 5
#: Seconds the reference loop takes at the speed times are scaled to.
REFERENCE_S = 0.004
REFERENCE_WINDOW = 5
MIN_CYCLES = 3
TAIL_BEYOND = 10
NULL = NullTracer()
# per-layer metric -> library call whose time per op it reports
OP_SPANS = {
    "explore.sweep_ms": "explore.sweep",
    "output.emit_sweep_ms": "output.emit_sweep_csv",
    "explore.max_energy_ms": "explore.max_energy",
    "explore.min_squats_ms": "explore.min_squats",
    "calibration.fit_ms": "calibration.fit_model",
    "output.read_cycles_ms": "output.read_measured_cycles",
    "output.emit_trajectory_ms": "output.emit_trajectory_csv",
    "output.emit_svg_ms": "output.emit_plot_svg",
    "cyclic.simulate_ms": "cyclic.simulate",
    "cyclic.release_ms": "cyclic.release_profile",
}
# per-layer metric -> per-input count it averages
MEAN_COUNTS = {
    "calibration.fit_cycles": "fit_cycles",
    "calibration.fit_samples": "fit_samples",
    "output.rows_read": "rows_read",
    "output.rows_written": "rows_written",
    "output.bytes_written": "bytes_written",
}


def import_workloads():
    """Import springleg from this checkout's src/ and the workloads built on it."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import springleg

    if not Path(springleg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"springleg was imported from {springleg.__file__}, not from {src}")
    import workloads

    return workloads


class Checker:
    """Runs ops, checks each output outside the timing and counts failures."""

    def __init__(self, workloads, wl, folder: Path) -> None:
        self.workloads, self.wl, self.folder = workloads, wl, folder
        self.verified: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, inp, tracer) -> tuple[float, object]:
        """Run one op; return its seconds and its output (None if it raised)."""
        self.attempted += 1
        tracer.op = self.attempted
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                out = self.wl.op(inp, tracer, self.folder)
        except Exception:  # any exception from an op is a failed op
            self.failures.append(f"{self.wl.name} input {inp.index}: {traceback.format_exc()}")
            return time.perf_counter() - start, None
        seconds = time.perf_counter() - start
        try:
            if inp.index not in self.verified:
                self.verified[inp.index] = self.wl.verify(inp, out)
            elif self.wl.fingerprint(inp, out) != self.verified[inp.index]:
                raise self.workloads.CheckFailed("output differs from the verified output of this input")
        except Exception:  # a check that cannot complete fails the op too
            self.failures.append(f"{self.wl.name} input {inp.index}: {traceback.format_exc()}")
        return seconds, out


def reference() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - start


def load_inputs(wl, seed: int, tiny: bool, folder: Path, tracer) -> list:
    folder.mkdir(parents=True, exist_ok=True)
    specs = wl.generate(np.random.default_rng(seed), tiny)
    return [wl.parse(index, values, folder, tracer) for index, values in enumerate(specs)]


def import_seconds() -> float:
    """Seconds of ``import springleg`` with its modules dropped from
    sys.modules first, so that every module body runs again.  The modules
    the benchmark already uses are put back afterwards."""
    held = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "springleg"}
    for name in held:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        importlib.import_module("springleg")
        return time.perf_counter() - start
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "springleg"]:
            del sys.modules[name]
        sys.modules.update(held)


def measure_setup(wl, seed, tiny, folder, traced):
    """Set up SETUP_REPS times: import springleg, then generate the seeded
    inputs and parse their config and grid files.  Returns the median scaled
    and raw set-up seconds, each repetition's parse seconds (traced only) and
    the inputs."""
    totals, scaled, parse = [], [], []
    for _ in range(SETUP_REPS):
        speed = statistics.median(reference() for _ in range(REFERENCE_WINDOW))
        imported = import_seconds()
        tracer = Tracer() if traced else NULL
        start = time.perf_counter()
        inputs = load_inputs(wl, seed, tiny, folder, tracer)
        totals.append(imported + time.perf_counter() - start)
        scaled.append(totals[-1] * REFERENCE_S / speed)
        if traced:
            parse.append(sum(span.seconds for span in tracer.spans))
    return statistics.median(scaled), statistics.median(totals), parse, inputs


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile,
    beyond).  With too few samples for that, the maximum."""
    ordered = sorted(latencies)
    kept = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[kept - 1], 100.0 * kept / len(ordered), len(ordered) - kept


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    tail, _, _ = tail_latency(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
    }


def end_to_end(checker, inputs, cycles, setup):
    """Timed passes; returns the scaled metrics, the raw ones and notes."""
    for inp in inputs:  # warm-up pass; verifies each input's output in full
        checker.run(inp, NULL)
    speeds, latencies, scaled = [], [], []
    for _ in range(cycles):
        for inp in inputs:
            speeds.append(reference())
            latencies.append(checker.run(inp, NULL)[0])
            scaled.append(
                latencies[-1] * REFERENCE_S / statistics.median(speeds[-REFERENCE_WINDOW:])
            )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {**latency_metrics(scaled), "peak_rss_mb": rss, "setup_s": setup[0]}
    raw = {**latency_metrics(latencies), "peak_rss_mb": rss, "setup_s": setup[1]}
    _, percentile, beyond = tail_latency(scaled)
    notes = {
        "op_tail_ms": f"p{percentile:.4g}: {beyond} of {len(scaled)} samples beyond",
        "ops_per_s": f"{len(scaled)} timed ops, {cycles} passes over {len(inputs)} inputs; "
        f"reference loop median {statistics.median(speeds) * 1e3:.4g} ms",
    }
    return metrics, raw, notes


def trace_workload(wl, checker, inputs, cycles):
    """Traced run of one workload; returns its per-layer metrics and tracer."""
    tracer = Tracer()
    for inp in inputs:  # warm-up pass; verifies each input's output in full
        checker.run(inp, NULL)
    plain = traced = 0.0
    pairs = 0
    counts: dict[int, dict] = {}
    latency: dict[int, list[float]] = {}
    for _ in range(max(1, round(cycles / 2))):
        for inp in inputs:  # each op untraced and traced, alternating which goes first
            for use in (NULL, tracer) if pairs % 2 == 0 else (tracer, NULL):
                seconds, out = checker.run(inp, use)
                if use is NULL:
                    plain += seconds
                    continue
                traced += seconds
                latency.setdefault(inp.index, []).append(seconds)
                if out is not None and inp.index not in counts:
                    counts[inp.index] = wl.counts(inp, out)
            pairs += 1
    squats, built = probe_cyclic(wl, tracer, inputs)
    biggest = max(inputs, key=lambda inp: statistics.median(latency.get(inp.index, [0.0])))
    peaks = allocation_peaks(wl, checker, biggest)

    per_op, probe_seconds = span_totals(tracer.spans)
    metrics: dict[str, float] = {}
    for metric, name in OP_SPANS.items():
        values = [totals[name] for totals in per_op.values() if name in totals]
        if values:
            metrics[metric] = statistics.median(values) * 1e3
    if squats:
        metrics["cyclic.us_per_squat"] = probe_seconds / squats * 1e6
    metrics["cyclic.squats"] = squats
    metrics["cyclic.samples_built"] = built
    used = sum(c.get("samples_used", 0) for c in counts.values())
    metrics["cyclic.samples_used_ratio"] = used / built if built else 1.0
    if any("points" in c for c in counts.values()):
        metrics["explore.points_ok_ratio"] = sum(c["points_ok"] for c in counts.values()) / sum(
            c["points"] for c in counts.values()
        )
    for metric, key in MEAN_COUNTS.items():
        values = [c[key] for c in counts.values() if key in c]
        if values:
            metrics[metric] = statistics.fmean(values)
    for layer, peak in peaks.items():
        metrics[f"{layer}.peak_alloc_mb"] = peak / 2**20
    metrics.update(wl.extra_metrics(inputs, available_cpus()))
    metrics["trace.overhead_ms"] = (traced - plain) / pairs * 1e3
    return metrics, tracer


def probe_cyclic(wl, tracer, inputs) -> tuple[int, int]:
    """Run cyclic.simulate on each input's configs outside the ops, under
    "probe" spans; return the squats run and the trajectory samples built."""
    import springleg as sl

    squats = built = 0
    for inp in inputs:
        tracer.op = f"probe-{inp.index}"
        with tracer.span("probe"):
            for config in wl.probe_configs(inp):
                try:
                    result = tracer.call("cyclic.simulate", sl.simulate, config)
                except sl.SimulationError:
                    continue  # a stalling point: the op runs no squat either
                squats += len(result.records)
                built += sum(len(t) for t in getattr(result, "trajectories", ()))
    return squats, built


def allocation_peaks(wl, checker, inp) -> dict[str, int]:
    """Largest tracemalloc peak per layer, in bytes, of the cyclic probe and
    (if the workload wants it) of one op, all on the input ``inp``."""
    import springleg as sl

    alloc = AllocTracer()
    tracemalloc.start()
    try:
        for config in wl.probe_configs(inp):
            try:
                alloc.call("cyclic.simulate", sl.simulate, config)
            except sl.SimulationError:
                pass
        if wl.alloc_op:
            checker.run(inp, alloc)
    finally:
        tracemalloc.stop()
    peaks: dict[str, int] = {}
    for name, peak in alloc.peaks.items():
        layer = name.split(".")[0]
        peaks[layer] = max(peaks.get(layer, 0), peak)
    return peaks


def span_totals(spans) -> tuple[dict[object, dict[str, float]], float]:
    """Seconds per span name within each op, and seconds of probe simulations."""
    roots: list[int] = []
    per_op: dict[object, dict[str, float]] = {}
    probe_seconds = 0.0
    for index, span in enumerate(spans):
        roots.append(index if span.parent is None else roots[span.parent])
        root = spans[roots[index]].name
        if root == "op":
            totals = per_op.setdefault(span.op, {})
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        elif root == "probe" and span.name == "cyclic.simulate":
            probe_seconds += span.seconds
    return per_op, probe_seconds


def available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def per_layer(workloads, wl, seed, checker, inputs, cycles, parse, predictions, declared, folder):
    """Per-layer metrics of ``wl``; the ones it cannot produce come from a
    tiny traced run of the workload predictions.json names for them."""
    metrics, tracer = trace_workload(wl, checker, inputs, cycles)
    metrics["config.parse_ms"] = statistics.median(parse) * 1e3
    notes = {"trace.overhead_ms": "traced minus untraced seconds per op, same ops"}
    homes: dict[str, list[str]] = {}
    for metric in declared:
        if metric not in metrics:
            homes.setdefault(predictions["per_layer"][metric]["workload"], []).append(metric)
    for home, missing in homes.items():
        other = workloads.WORKLOADS[home]
        other_checker = Checker(workloads, other, folder / home)
        other_inputs = load_inputs(other, seed, True, folder / home, NULL)
        other_metrics, _ = trace_workload(other, other_checker, other_inputs, 1)
        checker.attempted += other_checker.attempted
        checker.failures += other_checker.failures
        for metric in missing:
            metrics[metric] = other_metrics[metric]
            notes[metric] = f"from a tiny {home} run"
    return metrics, notes, tracer


def environment(args) -> dict:
    sources = sorted((ROOT / "src" / "springleg").glob("*.py"))
    try:
        found = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.split()
    except OSError:
        found = []
    # a checkout without .git may sit inside another repository
    commit = found[1] if len(found) == 2 and Path(found[0]).resolve() == ROOT else "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": available_cpus(),
        "commit": commit,
        "source_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test input sizes"
    )
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        predictions = json.loads((HERE / "predictions.json").read_text())
        workloads = import_workloads()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args)

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=RESULTS) as tmp:
        folder = Path(tmp)
        tiny = args.scale == "tiny"
        *setup, parse, inputs = measure_setup(wl, args.seed, tiny, folder / "inputs", args.trace)
        inputs = [inputs[i] for i in np.random.default_rng([args.seed, 1]).permutation(len(inputs))]
        cycles = max(MIN_CYCLES, round(args.seconds / wl.nominal_cycle_s))
        checker = Checker(workloads, wl, folder)
        tracer, raw = None, {}
        if args.trace:
            metrics, notes, tracer = per_layer(
                workloads, wl, args.seed, checker, inputs, cycles, parse, predictions, units, folder
            )
        else:
            metrics, raw, notes = end_to_end(checker, inputs, cycles, setup)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    failed = len(checker.failures)
    for failure in checker.failures[:3]:
        print(failure, file=sys.stderr)

    reported = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    detail = {
        "env": env,
        "attempted": checker.attempted,
        "failed": failed,
        "fail_ratio": failed / checker.attempted,
        "failures": checker.failures[:20],
        "metrics": {name: {**m, "note": notes.get(name, "")} for name, m in reported.items()},
        "raw_metrics": raw,
    }
    print("env: " + json.dumps(env))
    print(
        f"{args.workload} seed {args.seed}: {checker.attempted} ops attempted, {failed} failed, "
        f"fail_ratio {detail['fail_ratio']:.6g} ratio"
    )
    for name, m in detail["metrics"].items():
        note = "; ".join(
            ([f"raw {raw[name]:.6g}"] if name in raw and raw[name] != m["value"] else [])
            + ([m["note"]] if m["note"] else [])
        )
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    if tracer is not None:
        table = self_times(tracer.spans)
        detail["self_times"] = table
        origin = tracer.spans[0].start if tracer.spans else 0.0
        detail["spans"] = [
            [s.name, s.op, s.parent, s.start - origin, s.end - origin] for s in tracer.spans
        ]
        print("  self time by span (total s / self s / count):")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            print(f"    {name:30s} {row['total_s']:.4f} {row['self_s']:.4f} {row['count']}")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checker.attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
