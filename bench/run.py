"""stylegroup benchmark: closed-loop runs of the CLI on three cohort workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --workload all --seed N --seconds S --trace 0   # every metric, every workload

The benchmark drives ``python -m stylegroup.cli`` of the checked-out tree
(``src`` on the path) as child processes, one command at a time, with no
concurrency: each command starts after the previous one exits. Inputs are
made from ``--seed`` and handed to the program only as cohort-spec JSON and
CSV files. Every timed run of a workload is checked against references
computed here (``oracle.py``), and a second run of the same inputs must
give a byte-identical output tree.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics. Before every command it spawns and after the last
one, the benchmark times ``reference.py``, a short fixed piece of work of
its own. Each iteration's workload and set-up times (the commands alone,
without the reference) are multiplied by ``REFERENCE_S`` over the mean of
the iteration's reference times, and ``wall_s``, ``learners_per_s`` and
``setup_s`` come from the medians of these. They are seconds on a host on which the reference takes
``REFERENCE_S``, so the host's speed drift, 10-30 % within minutes on a
shared machine, does not read as a change of the program. The raw times
are in the ``report`` line.

``--trace 1`` alternates untraced and traced in-process runs
(``spans.py``) for ``--seconds`` and reports per-layer metrics, the
tracing overhead and two known-defect probes. ``--smoke`` shrinks every
cohort so that a run takes seconds. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads, and why each is here. ``BENCHMARK.json`` times ``wide-cohort``
and ``raw-logs`` only: with three workloads, the runs that fit the
benchmark's time budget are too short to be steady on a shared 2-core
host, and ``wide-cohort`` runs every layer ``clean-cohort`` runs.
``clean-cohort`` stays runnable by name and in ``--workload all``.

- ``clean-cohort``: ``pipeline`` on the bundled spec's four signatures at
  noise 0.05. Fuzzy classification is most of the work; one rule fires per
  dimension, grouping starts from a handful of signatures and no CSV is
  read.
- ``wide-cohort``: ``pipeline`` planting every signature the bundled
  labeller can emit, at noise 0.10. Grouping starts from about 54
  signatures and merges about 50 times; some learners fire no rule and
  some envelopes combine several rules.
- ``raw-logs``: ``classify --questionnaire``, ``group`` and ``evaluate
  --satisfaction`` as separate commands on an event-level behaviours CSV
  with tens of rows per (learner, variable), a few totals outside the
  universe and one undeclared variable. Ingest and the CSV readers run
  here only, and the command set-up is paid three times.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from reference import reference_seconds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = Path(__file__).resolve().parent / "spans.py"
# The host speed the time metrics are given at: seconds on a host where
# one pass of ``reference.reference_seconds`` takes this long.
REFERENCE_S = 0.2

CLEAN_SIGNATURES = (
    ("reactive", "sensory", "visual", "consecutive"),
    ("reflection", "intuitive", "verbal", "sequential_global"),
    ("reactive", "intuitive", "visual", "sequential_global"),
    ("reflection", "sensory", "verbal", "consecutive"),
)
# Every signature the bundled labeller can emit (3 x 3 x 3 x 2). Written
# out rather than derived, so that the workload stays fixed when the rule
# base changes.
WIDE_SIGNATURES = tuple(
    itertools.product(
        ("reactive", "reactive_reflective", "reflection"),
        ("sensory", "sensory_intuitive", "intuitive"),
        ("visual", "visual_verbal", "verbal"),
        ("consecutive", "sequential_global"),
    )
)
SCORE_MODEL = {"treated_mean": 17.65, "control_mean": 12.6, "sigma": 2.5}
UNDECLARED_VARIABLE = "idle_time"

MIN_ITERATIONS = 3
CENTROID_SAMPLE = 48
CENTROID_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" | "staged"
    signatures: tuple[tuple[str, ...], ...]
    per_signature: int
    smoke_per_signature: int
    noise: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean-cohort", "pipeline", CLEAN_SIGNATURES, 400, 5, 0.05),
        Workload("wide-cohort", "pipeline", WIDE_SIGNATURES, 30, 1, 0.10),
        Workload("raw-logs", "staged", CLEAN_SIGNATURES, 200, 10, 0.05),
    )
}

END_TO_END_UNITS = {
    "learners_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "classified_ratio": "ratio",
    "recovery_ratio": "ratio",
}


class BenchError(Exception):
    """A run cannot go on: ``validate-rules`` or the in-process runner failed."""


# --------------------------------------------------------------------------
# Child processes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB)."""

    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def stylegroup(*args: str) -> list[str]:
    return [sys.executable, "-m", "stylegroup.cli", *args]


# --------------------------------------------------------------------------
# Inputs


@dataclass
class Inputs:
    workload: Workload
    seed: int
    dir: Path
    learners: int
    commands: list[list[str]] = field(default_factory=list)
    planted: dict[str, tuple[str, ...]] = field(default_factory=dict)  # staged only
    features: dict[str, dict[str, float]] = field(default_factory=dict)
    rows: int = 0

    @property
    def out(self) -> Path:
        return self.dir / "out"


def _plant(rb: oracle.RuleBase, signature, rng: random.Random, noise: float) -> dict[str, float]:
    """Features whose rules produce the signature: plateau midpoints plus noise."""
    features = {}
    for dimension, label in zip(rb.dimensions(), signature):
        rule = rng.choice(rb.producers(dimension, label))
        for name, term in rule.antecedent:
            var = rb.variables[name]
            lo, hi = var.universe
            _, b, c, _ = var.term(term)
            value = (b + c) / 2.0 + (rng.gauss(0.0, noise * (hi - lo)) if noise else 0.0)
            features[name] = min(max(value, lo), hi)
    for var in rb.inputs():
        if var.name not in features:
            features[var.name] = rng.uniform(*var.universe)
    return features


def _raw_value(var: oracle.Variable, value: float) -> float:
    return value * var.max_expected / 100.0 if var.max_expected is not None else value


def write_events(path: Path, rb: oracle.RuleBase, learners: dict[str, dict[str, float]],
                 rng: random.Random) -> int:
    """Event-level long CSV: each feature split into 10-50 rows that sum to it.

    About one learner in a hundred gets one top-term total pushed 5-15 %
    past its universe (clamped back onto the same term on ingest), and every
    learner has two rows of a variable the rule base does not declare.
    """
    lines = ["learner_id,variable,value"]
    for learner, features in learners.items():
        over = None
        if rng.random() < 0.01:
            tops = [v.name for v in rb.inputs()
                    if v.terms[-1][1][2] == v.universe[1] and features[v.name] >= v.terms[-1][1][1]]
            over = rng.choice(tops) if tops else None
        for var in rb.inputs():
            total = features[var.name]
            if var.name == over:
                total = var.universe[1] * rng.uniform(1.05, 1.15)
            weights = [rng.random() + 0.05 for _ in range(rng.randint(10, 50))]
            scale = _raw_value(var, total) / sum(weights)
            lines.extend(f"{learner},{var.name},{w * scale!r}" for w in weights)
        lines.append(f"{learner},{UNDECLARED_VARIABLE},{rng.uniform(0, 30)!r}")
        lines.append(f"{learner},{UNDECLARED_VARIABLE},{rng.uniform(0, 30)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def make_inputs(workload: Workload, seed: int, rb: oracle.RuleBase, smoke: bool, root: Path) -> Inputs:
    per = workload.smoke_per_signature if smoke else workload.per_signature
    root.mkdir(parents=True)
    inputs = Inputs(workload, seed, root, learners=per * len(workload.signatures))
    out = str(inputs.out)
    if workload.kind == "pipeline":
        spec = {
            "cohort": [{"signature": list(s), "count": per} for s in workload.signatures],
            "noise_sigma": workload.noise,
            "score_model": SCORE_MODEL,
        }
        (root / "cohort.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        inputs.commands = [
            ["pipeline", "--cohort-spec", str(root / "cohort.json"), "--seed", str(seed), "--out", out]
        ]
        return inputs

    rng = random.Random(seed)
    features = {}
    width = max(5, len(str(inputs.learners)))
    for index in range(inputs.learners):
        learner = f"R{index + 1:0{width}d}"
        signature = workload.signatures[index % len(workload.signatures)]
        inputs.planted[learner] = signature
        features[learner] = _plant(rb, signature, rng, workload.noise)
    inputs.rows = write_events(root / "behaviors.csv", rb, features, rng)
    inputs.features = oracle.aggregate_behaviors(root / "behaviors.csv", rb)

    dims = rb.dimensions()
    with open(root / "questionnaire.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["learner_id", "dimension", "score"])
        for learner, signature in inputs.planted.items():
            for dimension, label in zip(dims, signature):
                a, b, c, d = rb.output(dimension).term(label)
                score = (a + b + c + d) / 4.0 * 11.0 / 12.0 + rng.gauss(0.0, 1.0)
                writer.writerow([learner, dimension, repr(min(max(score, 0.0), 11.0))])
    with open(root / "scores.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["learner_id", "score"])
        for learner in inputs.planted:
            writer.writerow([learner, repr(min(max(rng.gauss(15.0, 2.5), 0.0), 20.0))])
    with open(root / "satisfaction.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["learner_id"] + [f"q{i}" for i in range(1, 8)])
        for learner in inputs.planted:
            writer.writerow([learner] + [rng.randint(1, 5) for _ in range(7)])

    inputs.commands = [
        ["classify", "--behaviors", str(root / "behaviors.csv"),
         "--questionnaire", str(root / "questionnaire.csv"), "--out", out],
        ["group", "--profiles", str(Path(out) / "profiles.csv"), "--seed", str(seed), "--out", out],
        ["evaluate", "--assignment", str(Path(out) / "assignment.csv"),
         "--scores", str(root / "scores.csv"), "--satisfaction", str(root / "satisfaction.csv"),
         "--out", out],
    ]
    return inputs


# --------------------------------------------------------------------------
# Output checks


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def tree_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@dataclass
class Checked:
    problems: list[str]
    learners: int
    classified: int
    planted: int
    recovered: int


class Checker:
    """Checks one output tree against references computed independently."""

    def __init__(self, inputs: Inputs, rb: oracle.RuleBase):
        self.inputs = inputs
        self.rb = rb
        self.centroids = oracle.CentroidOracle(rb)
        self.dims = rb.dimensions()
        self.digest: str | None = None
        self.expected: dict[tuple[str, str], float | None] = {}

    def _truth(self, out: Path) -> dict[str, tuple[str, ...]]:
        if self.inputs.workload.kind == "staged":
            return self.inputs.planted
        rows = _read_csv(out / "truth.csv")
        return {row["learner_id"]: tuple(row[d] for d in self.dims) for row in rows}

    def _features(self, out: Path) -> dict[str, dict[str, float]]:
        if not self.inputs.features:
            self.inputs.features = oracle.aggregate_behaviors(out / "behaviors.csv", self.rb)
            with open(out / "behaviors.csv", encoding="utf-8") as handle:
                self.inputs.rows = sum(1 for _ in handle) - 1
        return self.inputs.features

    def check(self, out: Path, exit_codes: list[int]) -> Checked:
        problems = [f"command {i} exited {code}" for i, code in enumerate(exit_codes) if code != 0]
        if problems:
            return Checked(problems, self.inputs.learners, 0, self.inputs.learners * len(self.dims), 0)
        try:
            return self._check(out)
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            return Checked([f"unreadable output: {exc!r}"], self.inputs.learners, 0,
                           self.inputs.learners * len(self.dims), 0)

    def _check(self, out: Path) -> Checked:
        problems: list[str] = []
        truth = self._truth(out)
        if self.inputs.workload.kind == "pipeline":
            planted = {}
            for signature in truth.values():
                planted[signature] = planted.get(signature, 0) + 1
            per = self.inputs.learners // len(self.inputs.workload.signatures)
            if planted != {s: per for s in self.inputs.workload.signatures}:
                problems.append("truth.csv does not hold the planted cohort")

        profiles: dict[str, dict[str, tuple[float, str]]] = {}
        for row in _read_csv(out / "profiles.csv"):
            profiles.setdefault(row["learner_id"], {})[row["dimension"]] = (
                float(row["crisp_score"]), row["label"])
        failed = {row["learner_id"]: row["dimension"] for row in _read_csv(out / "failures.csv")}
        if set(profiles) | set(failed) != set(truth) or set(profiles) & set(failed):
            problems.append("profiles.csv and failures.csv do not cover the input learners once")
        if any(set(dims) != set(self.dims) for dims in profiles.values()):
            problems.append("a profile lacks a dimension")

        mislabelled = sum(
            1 for dims in profiles.values() for dim, (score, label) in dims.items()
            if oracle.label_at(self.rb.output(dim), score) != label
        )
        if mislabelled:
            problems.append(f"{mislabelled} labels differ from the argmax term")

        features = self._features(out)
        sample = sorted(truth)[:: max(1, len(truth) // CENTROID_SAMPLE)]
        for learner in sample:
            for dim in self.dims:
                key = (learner, dim)
                if key not in self.expected:
                    self.expected[key] = self.centroids.centroid(dim, features[learner])
                expected = self.expected[key]
                if learner in profiles:
                    score = profiles[learner][dim][0]
                    width = self.rb.output(dim).universe[1] - self.rb.output(dim).universe[0]
                    if expected is None or abs(score - expected) > CENTROID_TOL * width:
                        problems.append(f"{learner} {dim}: crisp {score!r}, reference {expected!r}")
                elif failed.get(learner) == dim and expected is not None:
                    problems.append(f"{learner} {dim}: failed, reference centroid {expected!r}")

        assignment = _read_csv(out / "assignment.csv")
        if {row["learner_id"] for row in assignment} != set(profiles):
            problems.append("assignment.csv does not hold the classified learners")
        counts: dict[str, int] = {}
        for row in assignment:
            label = "control" if row["is_control"] == "1" else f"group-{row['group_id']}"
            counts[label] = counts.get(label, 0) + 1
        evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
        reported = {g["label"]: g["n"] for g in evaluation["groups"]}
        if evaluation.get("control"):
            reported["control"] = evaluation["control"]["n"]
        if reported != counts:
            problems.append(f"evaluation.json group sizes {reported} != assignment.csv {counts}")

        digest = tree_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("output tree differs from the first run with the same inputs")

        recovered = sum(
            1 for learner, signature in truth.items() if learner in profiles
            for dim, label in zip(self.dims, signature) if profiles[learner][dim][1] == label
        )
        if problems:
            return Checked(problems, len(truth), 0, len(truth) * len(self.dims), 0)
        return Checked(problems, len(truth), len(profiles), len(truth) * len(self.dims), recovered)


# --------------------------------------------------------------------------
# Runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_untraced(inputs: Inputs, checker: Checker, seconds: float, smoke: bool, report: dict) -> dict:
    spawn(stylegroup("validate-rules"), inputs.dir / "setup.log")  # compiles bytecode once
    out = inputs.out
    walls: list[float] = []
    setup_walls: list[float] = []
    # references[i] holds the reference times taken in iteration i: before
    # its set-up, before each of its commands and after the last one.
    references: list[list[float]] = []
    peak_rss = 0
    totals = {"learners": 0, "classified": 0, "planted": 0, "recovered": 0, "failed": 0}
    start = time.perf_counter()
    while True:
        # Set-up is sampled once per iteration, so that its median spans the
        # same stretch of the run as the workload's.
        references.append([reference_seconds()])
        code, setup_wall, peak = spawn(stylegroup("validate-rules"), inputs.dir / "setup.log")
        if code != 0:
            raise BenchError(f"validate-rules exited {code}; see {inputs.dir / 'setup.log'}")
        setup_walls.append(setup_wall)
        peak_rss = max(peak_rss, peak)
        shutil.rmtree(out, ignore_errors=True)
        codes = []
        wall = 0.0
        for argv in inputs.commands:
            references[-1].append(reference_seconds())
            code, command_wall, peak = spawn(stylegroup(*argv), inputs.dir / "commands.log")
            codes.append(code)
            wall += command_wall
            peak_rss = max(peak_rss, peak)
            if code != 0:
                break
        references[-1].append(reference_seconds())
        walls.append(wall)
        result = checker.check(out, codes)
        for key in ("learners", "classified", "planted", "recovered"):
            totals[key] += getattr(result, key)
        if result.problems:
            totals["failed"] += 1
            report.setdefault("problems", []).extend(result.problems[:10])
        elapsed = time.perf_counter() - start
        if len(walls) >= (2 if smoke else MIN_ITERATIONS) and elapsed * (1 + 1 / len(walls)) > seconds:
            break

    scales = [REFERENCE_S / statistics.mean(inside) for inside in references]
    scaled_walls = [w * k for w, k in zip(walls, scales)]
    scaled_setups = [w * k for w, k in zip(setup_walls, scales)]
    wall = statistics.median(scaled_walls)
    flat = [t for inside in references for t in inside]
    for name, values in (("wall_s", scaled_walls), ("setup_s", scaled_setups), ("raw_wall_s", walls),
                         ("raw_setup_s", setup_walls), ("reference_s", flat)):
        report[name] = dict(zip(("q1", "median", "q3"), quartiles(values)), n=len(values))
    report["raw_wall_s_iterations"] = [round(v, 6) for v in walls]
    report["scale_iterations"] = [round(v, 6) for v in scales]
    metrics = {
        "learners_per_s": inputs.learners / wall,
        "wall_s": wall,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_rss / 1024.0,
        "classified_ratio": totals["classified"] / totals["learners"],
        "recovery_ratio": totals["recovered"] / totals["planted"],
    }
    return {
        "correct": totals["failed"] == 0,
        "attempted": len(walls),
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()},
    }


# --------------------------------------------------------------------------
# Traced runs and per-layer metrics

# Every ``<layer>.<name>_s`` is self time summed over the layer's spans,
# except ``cli.<command>_s``, which is the command's whole in-process time.
# ``trace.accounted_ratio`` is the share of the traced wall that the module
# layers' self times cover; the rest is ``cli.self_s`` plus loop overhead.
PER_LAYER_UNITS = {
    "dsl.parse_s": "s", "dsl.validate_s": "s", "dsl.compile_s": "s",
    "simulate.generate_s": "s", "simulate.write_behaviors_s": "s", "simulate.scores_s": "s",
    "ingest.load_behaviors_s": "s", "ingest.rows": "count", "ingest.row_us": "us",
    "ingest.clamped": "count", "ingest.skipped_unknown": "count", "ingest.coverage_s": "s",
    "ingest.load_questionnaire_s": "s", "ingest.load_scores_s": "s", "ingest.load_satisfaction_s": "s",
    "fuzzy.infer_s": "s", "fuzzy.defuzzify_s": "s", "fuzzy.infer_calls": "count",
    "fuzzy.infer_us.p50": "us", "fuzzy.infer_us.p99": "us",
    "fuzzy.defuzzify_us.p50": "us", "fuzzy.defuzzify_us.p99": "us",
    "fuzzy.rules_fired_mean": "count", "fuzzy.multi_rule_ratio": "ratio",
    "fuzzy.empty_envelopes": "count", "fuzzy.useful_ratio": "ratio",
    "classify.cohort_s": "s", "classify.learner_us": "us", "classify.failures": "count",
    "classify.unclassified_ratio": "ratio", "classify.export_csv_s": "s", "classify.export_json_s": "s",
    "classify.export_bytes": "bytes", "classify.from_csv_s": "s", "classify.questionnaire_s": "s",
    "grouping.assign_s": "s", "grouping.split_s": "s", "grouping.partition_s": "s",
    "grouping.signatures_in": "count", "grouping.groups_out": "count", "grouping.merges": "count",
    "grouping.content_plan_s": "s",
    "stats.report_s": "s", "stats.samples": "count", "stats.observations": "count",
    "cli.pipeline_s": "s", "cli.classify_s": "s", "cli.group_s": "s", "cli.evaluate_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s", "trace.accounted_ratio": "ratio", "trace.overhead_ratio": "ratio",
    "check.shadowed_labels": "count", "check.comma_id_roundtrip": "bool",
}


def _percentile_us(samples: list[int], q: int) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q)) / 1e3


def derive(result: dict, inputs: Inputs) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer the workload never calls reads 0."""
    spans = result["spans"]
    children = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    own: dict[str, int] = {}
    whole: dict[str, int] = {}
    for (name, start, end, parent), inner in zip(spans, children):
        own[name] = own.get(name, 0) + (end - start - inner)
        whole[name] = whole.get(name, 0) + (end - start)
    counts, samples = result["counts"], result["samples"]
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, ns in own.items():
        if not name.startswith("cli.") and f"{name}_s" in metrics:
            metrics[f"{name}_s"] = ns / 1e9
    for command in ("pipeline", "classify", "group", "evaluate"):
        metrics[f"cli.{command}_s"] = whole.get(f"cli.{command}", 0) / 1e9
    metrics["cli.self_s"] = sum(ns for name, ns in own.items() if name.startswith("cli.")) / 1e9
    metrics["trace.wall_s"] = result["wall_ns"] / 1e9
    layers = sum(ns for name, ns in own.items() if not name.startswith("cli."))
    metrics["trace.accounted_ratio"] = layers / result["wall_ns"]

    if inputs.workload.kind == "staged":
        metrics["ingest.rows"] = inputs.rows
        metrics["ingest.row_us"] = own.get("ingest.load_behaviors", 0) / 1e3 / inputs.rows
    for key in ("ingest.clamped", "ingest.skipped_unknown", "fuzzy.empty_envelopes",
                "classify.failures", "classify.export_bytes", "grouping.signatures_in",
                "grouping.groups_out", "stats.samples", "stats.observations"):
        metrics[key] = counts.get(key, 0)
    infer_ns, defuzzify_ns = samples["fuzzy.infer_ns"], samples["fuzzy.defuzzify_ns"]
    metrics["fuzzy.infer_calls"] = len(infer_ns)
    metrics["fuzzy.infer_us.p50"] = _percentile_us(infer_ns, 50)
    metrics["fuzzy.infer_us.p99"] = _percentile_us(infer_ns, 99)
    metrics["fuzzy.defuzzify_us.p50"] = _percentile_us(defuzzify_ns, 50)
    metrics["fuzzy.defuzzify_us.p99"] = _percentile_us(defuzzify_ns, 99)
    if infer_ns:
        metrics["fuzzy.rules_fired_mean"] = counts.get("fuzzy.rules_fired", 0) / len(infer_ns)
        metrics["fuzzy.multi_rule_ratio"] = counts.get("fuzzy.multi_rule", 0) / len(infer_ns)
    if counts.get("fuzzy.defuzzify_calls"):
        metrics["fuzzy.useful_ratio"] = counts.get("fuzzy.centroids", 0) / counts["fuzzy.defuzzify_calls"]
    learners = counts.get("classify.learners", 0)
    if learners:
        metrics["classify.learner_us"] = whole.get("classify.cohort", 0) / 1e3 / learners
        metrics["classify.unclassified_ratio"] = counts.get("classify.failures", 0) / learners
    metrics["grouping.merges"] = metrics["grouping.signatures_in"] - metrics["grouping.groups_out"]
    return metrics


def run_in_process(inputs: Inputs, traced: bool, rep: int) -> dict:
    plan = inputs.dir / "plan.json"
    result = inputs.dir / "spans.json"
    plan.write_text(json.dumps({
        "src": str(SRC), "commands": inputs.commands, "trace": traced,
        "trace_id": f"{inputs.workload.name}-{inputs.seed}-{rep}",
    }), encoding="utf-8")
    code, _, _ = spawn([sys.executable, str(SPANS), str(plan), str(result)], inputs.dir / "spans.log")
    if code != 0:
        raise BenchError(f"in-process runner exited {code}; see {inputs.dir / 'spans.log'}")
    return json.loads(result.read_text(encoding="utf-8"))


def write_rows(path: Path, rb: oracle.RuleBase, learners: dict[str, dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["learner_id", "variable", "value"])
        for learner, features in learners.items():
            for var in rb.inputs():
                writer.writerow([learner, var.name, repr(_raw_value(var, features[var.name]))])


def probe_shadowed_labels(rb: oracle.RuleBase, work: Path) -> int:
    """Producible labels that a zero-noise plant does not get back from classify."""
    dims = rb.dimensions()
    producible = {d: [label for label, _ in rb.output(d).terms if rb.producers(d, label)] for d in dims}
    rng = random.Random(0)
    planted: dict[str, tuple[str, ...]] = {}
    features = {}
    for i in range(max(len(labels) for labels in producible.values())):
        signature = tuple(producible[d][i % len(producible[d])] for d in dims)
        for copy in range(3):
            learner = f"P{i:02d}{copy}"
            planted[learner] = signature
            features[learner] = _plant(rb, signature, rng, 0.0)
    write_rows(work / "behaviors.csv", rb, features)
    code, _, _ = spawn(stylegroup("classify", "--behaviors", str(work / "behaviors.csv"),
                                  "--out", str(work / "out")), work / "probe.log")
    labels = {}
    if code == 0:
        for row in _read_csv(work / "out" / "profiles.csv"):
            labels[(row["learner_id"], row["dimension"])] = row["label"]
    missed = {
        (dim, label) for learner, signature in planted.items()
        for dim, label in zip(dims, signature) if labels.get((learner, dim)) != label
    }
    return len(missed)


def probe_comma_ids(rb: oracle.RuleBase, work: Path) -> int:
    """1 when learner ids holding a comma survive classify -> group -> evaluate, else 0."""
    rng = random.Random(0)
    learners = {
        (f"Doe{i}, Jane" if i % 2 == 0 else f"C{i:04d}"): _plant(rb, CLEAN_SIGNATURES[i % 4], rng, 0.0)
        for i in range(24)
    }
    write_rows(work / "behaviors.csv", rb, learners)
    with open(work / "scores.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["learner_id", "score"])
        writer.writerows([learner, repr(10.0 + i % 7)] for i, learner in enumerate(learners))
    out = work / "out"
    for argv in (
        ("classify", "--behaviors", str(work / "behaviors.csv"), "--out", str(out)),
        ("group", "--profiles", str(out / "profiles.csv"), "--seed", "1", "--out", str(out)),
        ("evaluate", "--assignment", str(out / "assignment.csv"), "--scores", str(work / "scores.csv"),
         "--out", str(out)),
    ):
        code, _, _ = spawn(stylegroup(*argv), work / "probe.log")
        if code != 0:
            return 0
    assigned = {row["learner_id"] for row in _read_csv(out / "assignment.csv")}
    evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    total = sum(g["n"] for g in evaluation["groups"]) + (evaluation.get("control") or {}).get("n", 0)
    return int(assigned == set(learners) and total == len(learners))


def run_traced(inputs: Inputs, checker: Checker, rb: oracle.RuleBase, seconds: float, report: dict) -> dict:
    spawn(stylegroup("validate-rules"), inputs.dir / "setup.log")  # compiles bytecode once
    out = inputs.out
    untraced, traced, per_rep = [], [], []
    failed = attempted = 0
    start = time.perf_counter()
    for rep in itertools.count():
        for tracing in (False, True):
            shutil.rmtree(out, ignore_errors=True)
            result = run_in_process(inputs, tracing, rep)
            checked = checker.check(out, result["exit_codes"])
            attempted += 1
            if checked.problems:
                failed += 1
                report.setdefault("problems", []).extend(checked.problems[:10])
            (traced if tracing else untraced).append(result["wall_ns"])
            if tracing:
                per_rep.append(derive(result, inputs))
        pair = (statistics.median(untraced) + statistics.median(traced)) / 1e9
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in PER_LAYER_UNITS}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for name, probe in (("check.shadowed_labels", probe_shadowed_labels),
                        ("check.comma_id_roundtrip", probe_comma_ids)):
        probe_dir = inputs.dir / name
        probe_dir.mkdir()
        metrics[name] = probe(rb, probe_dir)
    report["traced_runs"] = len(traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in metrics.items()},
    }


# --------------------------------------------------------------------------
# Entry point


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_python_lines": src_lines,
    }


def run_one(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
            rb: oracle.RuleBase) -> tuple[dict, dict]:
    work = WORK / f"{workload.name}-{seed}-{'trace' if trace else 'e2e'}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    report: dict = {"workload": workload.name, "seed": seed, "trace": int(trace), "smoke": smoke}
    passed = False
    try:
        inputs = make_inputs(workload, seed, rb, smoke, work)
        checker = Checker(inputs, rb)
        if trace:
            result = run_traced(inputs, checker, rb, seconds, report)
        else:
            result = run_untraced(inputs, checker, seconds, smoke, report)
        report.update(learners=inputs.learners, rows=inputs.rows)
        passed = result["correct"]
    finally:
        # A failed run keeps its inputs, outputs and logs for diagnosis.
        if passed:
            shutil.rmtree(work, ignore_errors=True)
        else:
            print(f"bench: run failed; its inputs, outputs and logs are kept in {work}", file=sys.stderr)
    return result, report


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload with tracing off and on, and prints a table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny cohorts, for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "stylegroup" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'stylegroup'} is missing", file=sys.stderr)
        return 2
    try:
        rb = oracle.load_bundled(SRC)
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        print(f"bench: cannot read the bundled rule base: {exc}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(), sort_keys=True))
    every = args.workload == "all"
    runs = itertools.product(WORKLOADS.values(), (False, True)) if every else [
        (WORKLOADS[args.workload], bool(args.trace))]
    correct = True
    try:
        for workload, trace in runs:
            result, report = run_one(workload, args.seed, args.seconds, trace, args.smoke, rb)
            correct &= result["correct"]
            print(f"{workload.name} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print("report " + json.dumps(report, sort_keys=True))
            print_metrics(result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if every:
        return 0 if correct else 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
