"""Smoke tests of the benchmark harness: output schema and metric names,
refusal outside a checkout, and the digest gate firing.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SEED = 3


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SMOKE_SEED), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_matches_the_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _copy_bench(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_a_directory_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_fails_on_a_wrong_pinned_digest(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src" / "nerprune", tmp_path / "src" / "nerprune",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for rel in ("tests/synth.py", "tests/data/reference/languages.csv"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, tmp_path / rel)
    digests_path = tmp_path / "bench" / "digests.json"
    pins = json.loads(digests_path.read_text(encoding="utf-8"))
    workload = "train-zipf"
    for by_workload in pins.values():
        entry = by_workload[f"{workload}-smoke"][str(SMOKE_SEED)]
        entry["checkpoints"] = "0" * 64
    digests_path.write_text(json.dumps(pins), encoding="utf-8")

    proc = run_bench(tmp_path, workload, 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "BREACH digest.checkpoints" in proc.stdout
