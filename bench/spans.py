"""Run a workload's CLI commands in one process, optionally traced.

Usage: python3 bench/spans.py PLAN.json RESULT.json

PLAN holds ``src`` (directory to import the package from), ``commands``
(argument lists for ``stylegroup.cli.main``), ``trace`` (bool) and
``trace_id``. With tracing on, the public functions of every module are
replaced by wrappers that record a span (name, start, end, parent, trace
id) per call, plus per-call counts where the work happens. Spans stay in
memory and are written to RESULT at the end, where the benchmark derives
per-layer self times from them. With tracing off the same commands run unwrapped, so
the two walls give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name). Several functions may share a span name;
# their self times add up under it.
TARGETS = (
    ("dsl", "default_rulebase", "dsl.parse"),
    ("dsl", "parse_variables", "dsl.parse"),
    ("dsl", "parse_rules", "dsl.parse"),
    ("dsl", "parse_rulebase", "dsl.parse"),
    ("dsl", "validate", "dsl.validate"),
    ("dsl", "RuleBase.compile_dimension", "dsl.compile"),
    ("simulate", "generate", "simulate.generate"),
    ("simulate", "write_behaviors_csv", "simulate.write_behaviors"),
    ("simulate", "write_truth_csv", "simulate.write_behaviors"),
    ("simulate", "generate_scores", "simulate.scores"),
    ("simulate", "write_scores_csv", "simulate.scores"),
    ("ingest", "load_behaviors", "ingest.load_behaviors"),
    ("ingest", "feature_coverage", "ingest.coverage"),
    ("ingest", "load_questionnaire", "ingest.load_questionnaire"),
    ("ingest", "load_scores", "ingest.load_scores"),
    ("ingest", "load_satisfaction", "ingest.load_satisfaction"),
    ("fuzzy", "infer", "fuzzy.infer"),
    ("fuzzy", "defuzzify_centroid", "fuzzy.defuzzify"),
    ("classify", "classify_cohort", "classify.cohort"),
    ("classify", "profiles_to_csv", "classify.export_csv"),
    ("classify", "profiles_to_json", "classify.export_json"),
    ("classify", "profiles_from_csv", "classify.from_csv"),
    ("classify", "validate_against_questionnaire", "classify.questionnaire"),
    ("grouping", "assign_groups", "grouping.assign"),
    ("grouping", "split_control", "grouping.split"),
    ("grouping", "homogeneous_partition", "grouping.partition"),
    ("grouping", "content_plan", "grouping.content_plan"),
    ("stats", "build_evaluation_report", "stats.report"),
)


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[int]] = {"fuzzy.infer_ns": [], "fuzzy.defuzzify_ns": []}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, observe=None):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                self.stack.pop()
                self.spans[index][1:3] = (start, end)
                if observe is not None:
                    observe(self, args, result, error, end - start)

        return traced


# Per-call observers: counts recorded at the boundary where the work happens.


def _infer(tracer, args, result, error, ns):
    tracer.samples["fuzzy.infer_ns"].append(ns)
    if result is not None:
        fired = len(getattr(result, "fired", ()))
        tracer.add("fuzzy.rules_fired", fired)
        tracer.add("fuzzy.multi_rule", fired > 1)
        tracer.add("fuzzy.empty_envelopes", fired == 0)


def _defuzzify(tracer, args, result, error, ns):
    tracer.samples["fuzzy.defuzzify_ns"].append(ns)
    tracer.add("fuzzy.defuzzify_calls")
    tracer.add("fuzzy.centroids", error is None)


def _load_behaviors(tracer, args, result, error, ns):
    if result is not None:
        report = result[1]
        tracer.add("ingest.clamped", len(getattr(report, "clamped", ())))
        tracer.add("ingest.skipped_unknown", len(getattr(report, "skipped_unknown", ())))


def _classify_cohort(tracer, args, result, error, ns):
    if result is not None:
        profiles, failures = result
        tracer.add("classify.learners", len(profiles) + len(failures))
        tracer.add("classify.failures", len(failures))


def _export(tracer, args, result, error, ns):
    if result is not None:
        tracer.add("classify.export_bytes", len(result.encode("utf-8")))


def _partition(tracer, args, result, error, ns):
    if result is not None:
        tracer.add("grouping.signatures_in", len({p.signature for p in args[0]}))
        tracer.add("grouping.groups_out", len(result))


def _report(tracer, args, result, error, ns):
    samples = list(args[0]) + ([args[1]] if len(args) > 1 and args[1] is not None else [])
    tracer.add("stats.samples", len(samples))
    tracer.add("stats.observations", sum(len(s.values) for s in samples))


OBSERVERS = {
    ("fuzzy", "infer"): _infer,
    ("fuzzy", "defuzzify_centroid"): _defuzzify,
    ("ingest", "load_behaviors"): _load_behaviors,
    ("classify", "classify_cohort"): _classify_cohort,
    ("classify", "profiles_to_csv"): _export,
    ("classify", "profiles_to_json"): _export,
    ("grouping", "homogeneous_partition"): _partition,
    ("stats", "build_evaluation_report"): _report,
}


def install(tracer: Tracer) -> None:
    """Replace each target everywhere the package binds it by name."""
    package = [m for n, m in sys.modules.items() if n == "stylegroup" or n.startswith("stylegroup.")]
    for module_name, attribute, span_name in TARGETS:
        module = sys.modules.get(f"stylegroup.{module_name}")
        owner_name, _, method = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None)
        if owner is None or original is None:
            continue
        wrapper = tracer.span(span_name, original, OBSERVERS.get((module_name, attribute)))
        if owner_name:
            setattr(owner, method, wrapper)
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    cli = importlib.import_module("stylegroup.cli")
    tracer = Tracer(plan["trace_id"])
    if plan["trace"]:
        install(tracer)
    exit_codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter_ns()
        for argv in plan["commands"]:
            main = tracer.span(f"cli.{argv[0]}", cli.main) if plan["trace"] else cli.main
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            exit_codes.append(code)
        wall_ns = time.perf_counter_ns() - start
    return {
        "trace_id": tracer.trace_id,
        "wall_ns": wall_ns,
        "exit_codes": exit_codes,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "samples": tracer.samples,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(plan)
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
