"""Run-to-run spread of every end-to-end metric, per workload.

Usage (from the root of a checkout):

    python3 bench/steadiness.py

Runs ``bench/run.py --trace 0`` once per seed 1-10 for each workload in
``BENCHMARK.json``, with its run length, and prints per metric the median,
the quartiles (``statistics.quantiles(n=4)``), the spread (quartile
distance over the median) and the metric's bound. Seed 1 then runs a
second time: the quality ratios are deterministic per seed and must come
back identical. Exits 1 when a run is incorrect, a spread exceeds its
bound, or a quality ratio changes on the rerun.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
FIRST_SEED = 1
DETERMINISTIC = ("classified_ratio", "recovery_ratio")


def run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    summary = {}
    for workload in (w["name"] for w in config["workloads"]):
        seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
        results = [run(workload, seed, config["run_seconds"]) for seed in seeds]
        rerun = run(workload, FIRST_SEED, config["run_seconds"])
        ok &= all(r["correct"] for r in results + [rerun])
        print(f"\n{workload}: {RUNS} runs, seeds {seeds.start}-{seeds.stop - 1}")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "values": values}
            ok &= spread <= bound
            print(f"  {name:<18}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>7}")
        for name in DETERMINISTIC:
            same = rerun["metrics"][name]["value"] == results[0]["metrics"][name]["value"]
            ok &= same
            print(f"  {name} on seed {FIRST_SEED} rerun: {'identical' if same else 'CHANGED'}")
    print(json.dumps({"ok": ok, "spreads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
