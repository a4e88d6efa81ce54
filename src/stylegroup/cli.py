"""Batch command-line interface orchestrating the full pipeline.

Subcommands: validate-rules, classify, group, evaluate, simulate, pipeline.
Flags override values from an optional ``--config`` JSON file (keys match
the long flag names with underscores; a key that is the long flag of no
subcommand, or ``config`` itself, is an error, and each value must have its
flag's JSON type: an integer for an integer flag, a number for a float
flag, and for any other a string within its choices); ``DEFAULTS``, and
for ``STAGE_DEFAULTS`` the stage modules' constants, fill the rest.
Diagnostics go to standard error, data to files under ``--out``
or to standard output. Exit codes: 0 success, 1 validation failure, 2 I/O
or configuration error. ``STYLEGROUP_LOG`` selects the log level (one of
``LOG_LEVELS``, in any case; any other value is a configuration error).
``main`` sets ``OPENBLAS_NUM_THREADS=1`` unless the caller has set it or
numpy is already loaded: no command calls BLAS. ``python -m stylegroup.cli``
and the ``stylegroup`` script run ``main`` through ``run``, which turns the
cyclic garbage collector off and ends the process without interpreter
teardown unless a tracer or profiler is set. ``main`` leaves the collector
as its caller set it.

All randomness flows from ``--seed``; simulate, group, and pipeline refuse
to run without one.

The stage modules are bound as module objects, which the package leaves
unexecuted until a command first reads from one. Nothing at module level,
in parsing, in logging set-up or in resolving settings a command lacks reads
from them, so a command executes only the modules it calls: ``validate-rules``
executes ``dsl`` and ``fuzzy``, and ``--help`` none.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import logging
import os
import re
import sys
from pathlib import Path

from . import classify, dsl, grouping, ingest, simulate, stats

log = logging.getLogger("stylegroup")

# What each setting is when neither its flag nor the config file gives it.
DEFAULTS = {"out": "out", "policy": "clamp", "control_fraction": 0.1}
# The settings whose default is a stage module's constant, as (module, name). Only
# a command with the flag reads it, and `--help` reads it from the module's source.
STAGE_DEFAULTS = {"target_k": ("grouping", "DEFAULT_TARGET_K"),
                  "min_size": ("grouping", "DEFAULT_MIN_SIZE"), "alpha": ("stats", "DEFAULT_ALPHA")}

# Each long flag, as its config key: its type (a tuple is its choices) and its help text.
FLAGS = {
    "config": (str, "JSON file with defaults for any flag"),
    "vars": (str, "variables file (.fvars); bundled base when omitted"),
    "rules": (str, "rules file (.frules); bundled base when omitted"),
    "out": (str, f"output directory (default: {DEFAULTS['out']})"),
    "seed": (int, "random seed (required; no ambient entropy)"),
    "behaviors": (str, "long-format behaviours CSV"),
    "questionnaire": (str, "questionnaire CSV for validation"),
    "policy": (("clamp", "strict"), f"ingest policy (default {DEFAULTS['policy']})"),
    "profiles": (str, "profiles CSV produced by classify"),
    "control_fraction": (float, f"default {DEFAULTS['control_fraction']}"),
    "target_k": (int, "default {}"),
    "min_size": (int, "default {}"),
    "assignment": (str, "assignment CSV produced by group"),
    "scores": (str, "scores CSV: learner_id,score"),
    "satisfaction": (str, "satisfaction CSV: learner_id,q1..q7"),
    "alpha": (float, "significance level (default {})"),
    "cohort_spec": (str, "cohort spec JSON"),
}


class ConfigError(Exception):
    pass


LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _setup_logging() -> None:
    value = os.environ.get("STYLEGROUP_LOG", "warning")
    if value.lower() not in LOG_LEVELS:
        raise ConfigError(
            f"STYLEGROUP_LOG must be one of {', '.join(LOG_LEVELS)} (any case), got {value!r}"
        )
    logging.basicConfig(
        stream=sys.stderr, level=value.upper(), format="%(levelname)s %(name)s: %(message)s"
    )


class _HelpFormatter(argparse.HelpFormatter):
    def _get_help_string(self, action):
        """Fill in a stage default as its module's source assigns it: help executes no stage."""
        if action.dest not in STAGE_DEFAULTS:
            return action.help
        module, name = STAGE_DEFAULTS[action.dest]
        source = Path(__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
        return action.help.format(re.search(rf"^{name} = (.+)$", source, re.M)[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stylegroup",
        description="Identify learning styles from behaviour logs, group learners, evaluate outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary, formatter_class=_HelpFormatter)
        for key in flags.split():
            kind, text = FLAGS[key]
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument("--" + key.replace("_", "-"), type=None if choices else kind,
                           choices=choices, help=text)
        p.set_defaults(handler=handler)
    return parser


def _resolve_settings(args: argparse.Namespace) -> None:
    """Set each flag the command line left unset from the config file, else from its default.

    Each config key must be some subcommand's long flag, with that flag's JSON
    type: one config file may serve several commands, so a key any command
    knows is accepted by all of them.
    """
    config = ingest.read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" in config:
        raise ConfigError("config key 'config' is not allowed: a config file cannot name another")
    unknown = sorted(config.keys() - FLAGS.keys())
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}: no subcommand has that flag")
    for key, value in config.items():
        kind = FLAGS[key][0]
        if kind is int:
            ok, what = type(value) is int, "an integer"
        elif kind is float:
            ok, what = type(value) in (int, float), "a number"
        elif kind is str:
            ok, what = isinstance(value, str), "a string"
        else:
            ok = isinstance(value, str) and value in kind
            what = "one of " + ", ".join(map(repr, kind))
        if not ok:
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    for key, value in list(vars(args).items()):
        if value is None:
            if key in config:
                value = config[key]
            elif key in STAGE_DEFAULTS:
                module, name = STAGE_DEFAULTS[key]
                value = getattr(globals()[module], name)
            else:
                value = DEFAULTS.get(key)
            if value is not None and FLAGS[key][0] is float:
                value = float(value)
            setattr(args, key, value)


def _require(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"--{key.replace('_', '-')} is required")
    return value


def _load_rulebase(args: argparse.Namespace) -> dsl.RuleBase:
    if args.vars is None and args.rules is None:
        return dsl.default_rulebase()
    if args.vars is None or args.rules is None:
        raise ConfigError("--vars and --rules must be given together")
    return dsl.load_rulebase(
        Path(args.vars).read_text(encoding="utf-8"),
        Path(args.rules).read_text(encoding="utf-8"),
    )


def _checked_rulebase(args: argparse.Namespace) -> tuple[dsl.RuleBase, list[dsl.Diagnostic]]:
    """Load and validate; print the diagnostics to stderr."""
    rb = _load_rulebase(args)
    diagnostics = dsl.validate(rb)
    for diagnostic in diagnostics:
        print(diagnostic.format(), file=sys.stderr)
    return rb, diagnostics


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(payload, path: Path) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# --------------------------------------------------------------------------
# Stages: each writes its files into `out`, for a staged command and `pipeline` alike.


def _write_cohort(spec, rb: dsl.RuleBase, truth, behaviors, out: Path) -> None:
    """Write a generated cohort's spec, behaviours and planted truth."""
    _dump_json(spec.to_json_dict(), out / "cohort_spec.json")
    simulate.write_behaviors_csv(behaviors, rb, out / "behaviors.csv")
    simulate.write_truth_csv(truth, rb.dimensions(), out / "truth.csv")


def _classify(behaviors, rb: dsl.RuleBase, out: Path, questionnaire=None, reports=None):
    """Classify and print a line on the failures; validate against `questionnaire`, if given.

    Only then create `out` and write into it the `reports` (file name to
    text), the profiles, the failures and the validation.
    """
    table, failures = classify.classify_cohort(behaviors, rb)
    for failure in failures:
        log.info("classification failed: %s", failure.reason)
    detail = classify.profiles_to_json(table)
    rows = ((f.learner_id, f.dimension or "", f.reason) for f in failures)
    files = {**(reports or {}), "profiles.csv": classify.profiles_to_csv(table),
             "profiles.json": detail,
             "failures.csv": ingest.csv_text(["learner_id", "dimension", "reason"], rows)}
    # profiles.json is ASCII (JSON escapes the rest): its length is its size in bytes.
    log.info(
        "classification: profiles.csv %d rows, failures.csv %d rows, "
        "profiles.json %d learners %d bytes",
        table.result_count(), len(failures), len(table), len(detail),
    )
    if failures:  # one line; failures.csv and the info log list each
        missing = sum(failure.dimension is None for failure in failures)
        print(
            f"classification failed for {len(failures)} of {len(behaviors.ids)} learners "
            f"({missing} missing a feature, {len(failures) - missing} with no rule fired), "
            f"first: {failures[0].reason}; failures.csv lists each", file=sys.stderr,
        )
    if questionnaire is not None:
        report = classify.validate_against_questionnaire(table, questionnaire)
        files["validation.json"] = classify.validation_to_json(report)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return table, failures


def _group(table, params: grouping.GroupingParams, out: Path) -> grouping.GroupAssignment:
    """Split off the control, form the groups, and write the assignment and content plans."""
    assignment = grouping.assign_groups(table, params)
    (out / "assignment.csv").write_text(assignment.to_csv(), encoding="utf-8")
    plans = [grouping.content_plan(group).to_json_dict() for group in assignment.groups]
    _dump_json(plans, out / "content_plans.json")
    return assignment


def _evaluate(rows, scores, alpha: float, satisfaction, out: Path):
    """Evaluate the scores of the assignment rows; only then create `out` and write the report."""
    samples, control = stats.evaluation_samples(rows, scores)
    responses = None if satisfaction is None else stats.values_by_label(rows, satisfaction)
    report = stats.build_evaluation_report(
        samples, control, alpha=alpha, satisfaction_responses=responses
    )
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(report.to_json_dict(), out / "evaluation.json")
    (out / "evaluation.txt").write_text(report.to_text(), encoding="utf-8")
    return report


# --------------------------------------------------------------------------
# Subcommands


def _cmd_validate_rules(args: argparse.Namespace) -> int:
    _, diagnostics = _checked_rulebase(args)
    errors = dsl.error_count(diagnostics)
    warnings = len(diagnostics) - errors
    print(f"{errors} errors, {warnings} warnings")
    return 1 if errors else 0


def _cmd_classify(args: argparse.Namespace) -> int:
    rb, diagnostics = _checked_rulebase(args)
    if dsl.error_count(diagnostics):
        return 1
    behaviors_path = _require(args, "behaviors")
    behaviors, clamp_report = ingest.load_behaviors(
        behaviors_path, list(rb.variables), policy=args.policy
    )
    questionnaire = ingest.load_questionnaire(args.questionnaire) if args.questionnaire else None
    reports = {
        "clamp_report.txt": "".join(line + "\n" for line in clamp_report.format_lines()),
        "coverage.txt": "\n".join(ingest.feature_coverage(behaviors, rb).format_lines()) + "\n",
    }
    profiles, failures = _classify(behaviors, rb, Path(args.out), questionnaire, reports)
    print(f"classified {len(profiles)} learners, {len(failures)} failures")
    return 0


def _grouping_params(args: argparse.Namespace) -> grouping.GroupingParams:
    return grouping.GroupingParams(
        control_fraction=args.control_fraction,
        seed=_require(args, "seed"),
        target_k=args.target_k,
        min_size=args.min_size,
    )


def _cmd_group(args: argparse.Namespace) -> int:
    profiles_path = _require(args, "profiles")
    params = _grouping_params(args)
    profiles = classify.profiles_from_csv(profiles_path)
    grouping.check_params(params, len(profiles))
    assignment = _group(profiles, params, _out_dir(args))
    print(
        f"{len(assignment.groups)} groups "
        f"({', '.join(str(len(g.members)) for g in assignment.groups)} members), "
        f"{len(assignment.control)} in control"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    assignment_path = _require(args, "assignment")
    scores_path = _require(args, "scores")
    stats.check_alpha(args.alpha)
    scores = ingest.load_scores(scores_path)
    entries = grouping.assignment_from_csv(assignment_path)
    satisfaction = ingest.load_satisfaction(args.satisfaction) if args.satisfaction else None
    report = _evaluate(entries, scores, args.alpha, satisfaction, Path(args.out))
    print(report.to_text(), end="")
    return 0


def _resolve_cohort_spec(args: argparse.Namespace):
    seed = _require(args, "seed")
    if args.cohort_spec:
        return simulate.load_cohort_spec(args.cohort_spec)._replace(seed=seed)
    return simulate.default_cohort_spec(seed=seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    rb, diagnostics = _checked_rulebase(args)
    if dsl.error_count(diagnostics):
        return 1
    spec = _resolve_cohort_spec(args)
    truth, behaviors = simulate.generate(spec, rb)
    _write_cohort(spec, rb, truth, behaviors, _out_dir(args))
    print(f"simulated {len(truth)} learners")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    rb, diagnostics = _checked_rulebase(args)
    if dsl.error_count(diagnostics):
        return 1
    spec = _resolve_cohort_spec(args)
    params = _grouping_params(args)
    # Refuse before writing anything what grouping would refuse for the spec's
    # cohort (no stage sees more learners), and an alpha `evaluate` refuses.
    grouping.check_params(params, spec.total)
    stats.check_alpha(args.alpha)
    truth, behaviors = simulate.generate(spec, rb)
    out = _out_dir(args)

    _write_cohort(spec, rb, truth, behaviors, out)
    if any(v.max_expected is not None for v in rb.variables):
        # A ceiling's raw value reads back to other bits: classify what `classify` reads.
        behaviors, _ = ingest.load_behaviors(out / "behaviors.csv", list(rb.variables))
    profiles, _ = _classify(behaviors, rb, out)
    assignment = _group(profiles, params, out)
    if spec.score_model is not None:
        scores = simulate.generate_scores(truth, assignment, spec.score_model, spec.seed)
        simulate.write_scores_csv(scores, out / "scores.csv")
        _evaluate(assignment.rows(), scores, args.alpha, None, out)

    print(
        f"pipeline complete: {len(truth)} learners, "
        f"{len(assignment.groups)} groups, {len(assignment.control)} in control"
    )
    return 0


# Each subcommand: its handler, its help, and its flags in the order `--help` lists them.
COMMANDS = {
    "validate-rules": (_cmd_validate_rules, "parse and validate a rule base", "config vars rules"),
    "classify": (_cmd_classify, "classify a cohort from behaviour logs",
                 "config vars rules out behaviors questionnaire policy"),
    "group": (_cmd_group, "split control and form homogeneous groups",
              "config out seed profiles control_fraction target_k min_size"),
    "evaluate": (_cmd_evaluate, "statistical evaluation of group scores",
                 "config out assignment scores satisfaction alpha"),
    "simulate": (_cmd_simulate, "generate a synthetic cohort", "config vars rules out seed cohort_spec"),
    "pipeline": (_cmd_pipeline, "simulate, classify, group, and evaluate",
                 "config vars rules out seed cohort_spec control_fraction target_k min_size alpha"),
}


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # No command calls BLAS: load numpy without OpenBLAS's worker thread,
        # which spins for tens of ms of CPU. A caller's own value wins, and once
        # numpy is loaded the variable would reach only child processes.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    try:
        _setup_logging()
        _resolve_settings(args)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (
        dsl.DslError,
        ingest.IngestError,
        classify.ClassificationError,
        grouping.GroupingError,
        simulate.SimulationError,
        stats.StatsError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def _watched() -> bool:
    """Whether a tracer or profiler (cProfile, coverage, a debugger) watches this thread."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, cProfile too; tool ids 0-5
    return monitoring is not None and any(monitoring.get_tool(tool) for tool in range(6))


def run(argv=None):
    """Run ``main`` as a whole process and end the process with its code.

    The cyclic collector is off for the command: a command builds acyclic
    tables, whose values the collector would only walk again and again, and
    the little cyclic garbage it leaves (argparse's parser, json's encoder
    closures) does not grow with the cohort. Module teardown and the final
    collections only free memory the OS takes back anyway, so with nothing
    watching, the exit callbacks run once, the standard streams are flushed
    and ``os._exit`` ends the process. A flush that fails, or a tracer or
    profiler, leaves by ``sys.exit`` instead, and the interpreter reports and
    exits as it always has.
    """
    gc.disable()
    code = main(argv)
    if not _watched():
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):
            # A stream that is None, full or closed: interpreter shutdown
            # flushes again and reports a failure as it always has.
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
