"""Smoke tests of the benchmark: tiny cohorts through every workload, every
output check, the traced run and the defect probes, in seconds."""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run as bench  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert 0.5 < result["metrics"]["trace.accounted_ratio"]["value"] <= 1.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "clean-cohort", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_checks_reject_tampered_outputs(tmp_path):
    rb = oracle.load_bundled(bench.SRC)
    inputs = bench.make_inputs(bench.WORKLOADS["clean-cohort"], 3, rb, True, tmp_path / "w")
    out = inputs.out
    code, _, _ = bench.spawn(bench.stylegroup(*inputs.commands[0]), tmp_path / "log")
    assert code == 0
    assert bench.Checker(inputs, rb).check(out, [0]).problems == []

    profiles = out / "profiles.csv"
    original = profiles.read_text(encoding="utf-8")
    rows = list(csv.reader(original.splitlines()))
    tampered = {
        "label": lambda row: row[:3] + ["reflection" if row[3] == "reactive" else "reactive"],
        "crisp": lambda row: row[:2] + [repr(float(row[2]) + 1e-3)] + row[3:],
    }
    for name, change in tampered.items():
        edited = [rows[0]] + [change(row) for row in rows[1:]]
        profiles.write_text("\n".join(",".join(row) for row in edited) + "\n", encoding="utf-8")
        assert bench.Checker(inputs, rb).check(out, [0]).problems, name
    profiles.write_text(original, encoding="utf-8")

    checker = bench.Checker(inputs, rb)
    assert checker.check(out, [0]).problems == []
    (out / "content_plans.json").write_text("[]\n", encoding="utf-8")
    assert checker.check(out, [0]).problems, "rerun differing from the first run"
    assert bench.Checker(inputs, rb).check(out, [1]).problems, "non-zero exit"
