"""Batch command-line interface orchestrating the full pipeline.

Subcommands: validate-rules, classify, group, evaluate, simulate, pipeline.
Flags override values from an optional ``--config`` JSON file (keys match
the long flag names with underscores; a key that is the long flag of no
subcommand is an error, and each value must have its flag's JSON type: an
integer for an integer flag, a number for a float flag, and for any other
a string within its choices). Diagnostics go to standard error, data to
files under ``--out`` or to standard output. Exit codes: 0 success, 1
validation failure, 2 I/O or configuration error. ``STYLEGROUP_LOG``
selects the log level.

All randomness flows from ``--seed``; simulate, group, and pipeline refuse
to run without one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .classify import (
    ClassificationError,
    classify_cohort,
    profiles_from_csv,
    profiles_to_csv,
    profiles_to_json,
    validate_against_questionnaire,
)
from .dsl import Diagnostic, DslError, RuleBase, default_rulebase, error_count, load_rulebase
from .dsl import validate
from .grouping import (
    GroupAssignment,
    GroupingError,
    GroupingParams,
    assign_groups,
    assignment_from_csv,
    content_plan,
)
from .ingest import (
    IngestError,
    csv_text,
    feature_coverage,
    load_behaviors,
    load_questionnaire,
    load_satisfaction,
    load_scores,
)
from .simulate import (
    SimulationError,
    default_cohort_spec,
    generate,
    generate_scores,
    load_cohort_spec,
    write_behaviors_csv,
    write_scores_csv,
    write_truth_csv,
)
from .stats import Sample, StatsError, build_evaluation_report

log = logging.getLogger("stylegroup")

DEFAULT_ALPHA = 0.05
DEFAULT_TARGET_K = 4
DEFAULT_MIN_SIZE = 10
DEFAULT_CONTROL_FRACTION = 0.1


class ConfigError(Exception):
    pass


def _setup_logging() -> None:
    level_name = os.environ.get("STYLEGROUP_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stylegroup",
        description="Identify learning styles from behaviour logs, group learners, evaluate outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, rules=False, out=False, seed=False):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        if rules:
            p.add_argument("--vars", help="variables file (.fvars); bundled base when omitted")
            p.add_argument("--rules", help="rules file (.frules); bundled base when omitted")
        if out:
            p.add_argument("--out", help="output directory (default: out)")
        if seed:
            p.add_argument("--seed", type=int, help="random seed (required; no ambient entropy)")

    p = sub.add_parser("validate-rules", help="parse and validate a rule base")
    add_common(p, rules=True)
    p.set_defaults(handler=_cmd_validate_rules)

    p = sub.add_parser("classify", help="classify a cohort from behaviour logs")
    add_common(p, rules=True, out=True)
    p.add_argument("--behaviors", help="long-format behaviours CSV")
    p.add_argument("--questionnaire", help="questionnaire CSV for validation")
    p.add_argument("--policy", choices=["clamp", "strict"], help="ingest policy (default clamp)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("group", help="split control and form homogeneous groups")
    add_common(p, out=True, seed=True)
    p.add_argument("--profiles", help="profiles CSV produced by classify")
    p.add_argument("--control-fraction", type=float, dest="control_fraction")
    p.add_argument("--target-k", type=int, dest="target_k")
    p.add_argument("--min-size", type=int, dest="min_size")
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("evaluate", help="statistical evaluation of group scores")
    add_common(p, out=True)
    p.add_argument("--assignment", help="assignment CSV produced by group")
    p.add_argument("--scores", help="scores CSV: learner_id,score")
    p.add_argument("--satisfaction", help="satisfaction CSV: learner_id,q1..q7")
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    add_common(p, rules=True, out=True, seed=True)
    p.add_argument("--cohort-spec", dest="cohort_spec", help="cohort spec JSON")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("pipeline", help="simulate, classify, group, and evaluate")
    add_common(p, rules=True, out=True, seed=True)
    p.add_argument("--cohort-spec", dest="cohort_spec", help="cohort spec JSON")
    p.add_argument("--control-fraction", type=float, dest="control_fraction")
    p.add_argument("--target-k", type=int, dest="target_k")
    p.add_argument("--min-size", type=int, dest="min_size")
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def _flag_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The long flags of every subcommand, as config keys, each with its action.

    One config file may serve several commands, so a key any command
    knows is accepted by all of them. A key's flags share one type and one
    set of choices across commands.
    """
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        action.dest: action
        for command in sub.choices.values()
        for action in command._actions
        if action.option_strings and action.dest != "help"
    }


def _load_config(args: argparse.Namespace, actions: dict[str, argparse.Action]) -> dict:
    """The config file's settings, each a known key with its flag's JSON type."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(config.keys() - actions.keys())
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}: no subcommand has that flag")
    for key, value in config.items():
        action = actions[key]
        if action.type is int:
            ok, kind = type(value) is int, "an integer"
        elif action.type is float:
            ok, kind = type(value) in (int, float), "a number"
        elif action.choices is not None:
            ok = isinstance(value, str) and value in action.choices
            kind = "one of " + ", ".join(map(repr, action.choices))
        else:
            ok, kind = isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    return config


def _opt(args: argparse.Namespace, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _require(args: argparse.Namespace, config: dict, key: str):
    value = _opt(args, config, key)
    if value is None:
        raise ConfigError(f"--{key.replace('_', '-')} is required")
    return value


def _load_rulebase(args: argparse.Namespace, config: dict) -> RuleBase:
    vars_path = _opt(args, config, "vars")
    rules_path = _opt(args, config, "rules")
    if vars_path is None and rules_path is None:
        return default_rulebase()
    if vars_path is None or rules_path is None:
        raise ConfigError("--vars and --rules must be given together")
    return load_rulebase(
        Path(vars_path).read_text(encoding="utf-8"),
        Path(rules_path).read_text(encoding="utf-8"),
    )


def _checked_rulebase(
    args: argparse.Namespace, config: dict
) -> tuple[RuleBase, list[Diagnostic]]:
    """Load and validate; print the diagnostics to stderr."""
    rb = _load_rulebase(args, config)
    diagnostics = validate(rb)
    for diagnostic in diagnostics:
        print(diagnostic.format(), file=sys.stderr)
    return rb, diagnostics


def _out_dir(args: argparse.Namespace, config: dict) -> Path:
    out = Path(_opt(args, config, "out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(payload, path: Path) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# --------------------------------------------------------------------------
# Subcommands


def _cmd_validate_rules(args: argparse.Namespace, config: dict) -> int:
    _, diagnostics = _checked_rulebase(args, config)
    errors = error_count(diagnostics)
    warnings = len(diagnostics) - errors
    print(f"{errors} errors, {warnings} warnings")
    return 1 if errors else 0


def _write_classification(profiles, failures, out: Path) -> None:
    (out / "profiles.csv").write_text(profiles_to_csv(profiles), encoding="utf-8")
    (out / "profiles.json").write_text(profiles_to_json(profiles), encoding="utf-8")
    rows = ((f.learner_id, f.dimension or "", f.reason) for f in failures)
    (out / "failures.csv").write_text(
        csv_text(["learner_id", "dimension", "reason"], rows), encoding="utf-8"
    )


def _cmd_classify(args: argparse.Namespace, config: dict) -> int:
    rb, diagnostics = _checked_rulebase(args, config)
    if error_count(diagnostics):
        return 1
    behaviors_path = _require(args, config, "behaviors")
    policy = _opt(args, config, "policy", "clamp")
    out = _out_dir(args, config)

    records, clamp_report = load_behaviors(behaviors_path, list(rb.variables), policy=policy)
    clamp_lines = clamp_report.format_lines()
    (out / "clamp_report.txt").write_text(
        "".join(line + "\n" for line in clamp_lines), encoding="utf-8"
    )
    coverage = feature_coverage(records, rb)
    (out / "coverage.txt").write_text(
        "\n".join(coverage.format_lines()) + "\n", encoding="utf-8"
    )

    profiles, failures = classify_cohort(records, rb)
    _write_classification(profiles, failures, out)
    for failure in failures:
        print(f"classification failed: {failure.reason}", file=sys.stderr)

    questionnaire_path = _opt(args, config, "questionnaire")
    if questionnaire_path:
        questionnaire = load_questionnaire(questionnaire_path)
        report = validate_against_questionnaire(profiles, questionnaire)
        _dump_json(report.to_json_dict(), out / "validation.json")

    print(f"classified {len(profiles)} learners, {len(failures)} failures")
    return 0


def _grouping_params(args: argparse.Namespace, config: dict) -> GroupingParams:
    return GroupingParams(
        control_fraction=float(
            _opt(args, config, "control_fraction", DEFAULT_CONTROL_FRACTION)
        ),
        seed=_require(args, config, "seed"),
        target_k=_opt(args, config, "target_k", DEFAULT_TARGET_K),
        min_size=_opt(args, config, "min_size", DEFAULT_MIN_SIZE),
    )


def _write_assignment(assignment: GroupAssignment, out: Path) -> None:
    (out / "assignment.csv").write_text(assignment.to_csv(), encoding="utf-8")
    plans = [content_plan(group).to_json_dict() for group in assignment.groups]
    _dump_json(plans, out / "content_plans.json")


def _cmd_group(args: argparse.Namespace, config: dict) -> int:
    profiles_path = _require(args, config, "profiles")
    params = _grouping_params(args, config)
    out = _out_dir(args, config)
    profiles = profiles_from_csv(Path(profiles_path).read_text(encoding="utf-8"))
    assignment = assign_groups(profiles, params)
    _write_assignment(assignment, out)
    print(
        f"{len(assignment.groups)} groups "
        f"({', '.join(str(len(g.members)) for g in assignment.groups)} members), "
        f"{len(assignment.control)} in control"
    )
    return 0


def _samples(
    entries: list[tuple[str, str, bool]], scores: dict[str, float]
) -> tuple[list[Sample], Sample | None]:
    grouped: dict[str, list[float]] = {}
    control_values: list[float] = []
    for learner, group_id, is_control in entries:
        if learner not in scores:
            raise IngestError(f"no score for learner {learner!r}")
        if is_control:
            control_values.append(scores[learner])
        else:
            grouped.setdefault(group_id, []).append(scores[learner])
    # In file order: `GroupAssignment.to_csv` writes groups by group id.
    samples = [
        Sample(label=f"group-{gid}", values=tuple(values)) for gid, values in grouped.items()
    ]
    control = Sample(label="control", values=tuple(control_values)) if control_values else None
    return samples, control


def _satisfaction_by_label(
    entries: list[tuple[str, str, bool]], responses: dict[str, tuple[float, ...]]
) -> dict[str, list[tuple[float, ...]]]:
    by_label: dict[str, list[tuple[float, ...]]] = {}
    for learner, group_id, is_control in entries:
        if learner not in responses:
            continue
        label = "control" if is_control else f"group-{group_id}"
        by_label.setdefault(label, []).append(responses[learner])
    return by_label


def _write_evaluation(report, out: Path) -> None:
    _dump_json(report.to_json_dict(), out / "evaluation.json")
    (out / "evaluation.txt").write_text(report.to_text(), encoding="utf-8")


def _cmd_evaluate(args: argparse.Namespace, config: dict) -> int:
    assignment_path = _require(args, config, "assignment")
    scores_path = _require(args, config, "scores")
    alpha = float(_opt(args, config, "alpha", DEFAULT_ALPHA))
    out = _out_dir(args, config)

    scores = load_scores(scores_path)
    entries = assignment_from_csv(Path(assignment_path).read_text(encoding="utf-8"))
    samples, control = _samples(entries, scores)
    satisfaction_path = _opt(args, config, "satisfaction")
    satisfaction = (
        _satisfaction_by_label(entries, load_satisfaction(satisfaction_path))
        if satisfaction_path
        else None
    )
    report = build_evaluation_report(
        samples, control, alpha=alpha, satisfaction_responses=satisfaction
    )
    _write_evaluation(report, out)
    print(report.to_text(), end="")
    return 0


def _resolve_cohort_spec(args: argparse.Namespace, config: dict):
    seed = _require(args, config, "seed")
    spec_path = _opt(args, config, "cohort_spec")
    if spec_path:
        return dataclasses.replace(load_cohort_spec(spec_path), seed=seed)
    return default_cohort_spec(seed=seed)


def _simulate(spec, rb: RuleBase, out: Path):
    """Generate the cohort and write its spec, behaviours and planted truth."""
    truth, records = generate(spec, rb)
    _dump_json(spec.to_json_dict(), out / "cohort_spec.json")
    write_behaviors_csv(records, rb, out / "behaviors.csv")
    write_truth_csv(truth, rb.dimensions(), out / "truth.csv")
    return truth, records


def _cmd_simulate(args: argparse.Namespace, config: dict) -> int:
    rb, diagnostics = _checked_rulebase(args, config)
    if error_count(diagnostics):
        return 1
    spec = _resolve_cohort_spec(args, config)
    _, records = _simulate(spec, rb, _out_dir(args, config))
    print(f"simulated {len(records)} learners")
    return 0


def _cmd_pipeline(args: argparse.Namespace, config: dict) -> int:
    rb, diagnostics = _checked_rulebase(args, config)
    if error_count(diagnostics):
        return 1
    spec = _resolve_cohort_spec(args, config)
    params = _grouping_params(args, config)
    alpha = float(_opt(args, config, "alpha", DEFAULT_ALPHA))
    out = _out_dir(args, config)

    truth, records = _simulate(spec, rb, out)
    profiles, failures = classify_cohort(records, rb)
    _write_classification(profiles, failures, out)

    assignment = assign_groups(profiles, params)
    _write_assignment(assignment, out)

    if spec.score_model is not None:
        samples, control = generate_scores(truth, assignment, spec.score_model, spec.seed)
        write_scores_csv(samples, assignment, control, out / "scores.csv")
        _write_evaluation(build_evaluation_report(samples, control, alpha=alpha), out)

    print(
        f"pipeline complete: {len(records)} learners, "
        f"{len(assignment.groups)} groups, {len(assignment.control)} in control"
    )
    return 0


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args, _flag_actions(parser))
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (
        DslError,
        IngestError,
        ClassificationError,
        GroupingError,
        SimulationError,
        StatsError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
