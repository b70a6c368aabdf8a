"""Smoke test of the benchmark at tiny input sizes.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--scale", "tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    assert any("fail_ratio 0 ratio" in line for line in lines)


def test_prediction_map_covers_every_per_layer_metric():
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(predictions["per_layer"]) == names
    for entry in predictions["per_layer"].values():
        assert entry["workload"] in WORKLOADS + ["all"]
        assert set(entry["moves"]) <= end_to_end
    for item in predictions["roadmap_items"].values():
        assert item["no_change"] and set(item["no_change"]) <= set(WORKLOADS)


def test_wrong_capacity_answer_counts_as_failed(capsys, monkeypatch):
    import springleg

    real = springleg.max_energy
    monkeypatch.setattr(springleg, "max_energy", lambda config: real(config) * (1 + 1e-6))
    lines, result = bench(capsys, "capacity_queries", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("fail_ratio 1 ratio" in line for line in lines)


def test_corrupted_csv_counts_as_failed(capsys, monkeypatch):
    import springleg

    real = springleg.emit_trajectory_csv

    def corrupt(data, path, iteration=1):
        out = real(data, path, iteration)
        lines = Path(out).read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[3]) * 1.001)  # one hip force, off by 0.1%
        lines[2] = ",".join(cells)
        Path(out).write_text("\n".join(lines) + "\n")
        return out

    monkeypatch.setattr(springleg, "emit_trajectory_csv", corrupt)
    _, result = bench(capsys, "artifact_emit", 0)
    assert result["failed"] == result["attempted"] and 0 < result["attempted"]
