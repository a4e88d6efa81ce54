import contextlib
import io
import itertools
import json
import logging
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from stylegroup.classify import classify_cohort
from stylegroup.cli import COMMANDS, FLAGS, main
from stylegroup.dsl import default_rulebase, load_rulebase, pretty_print
from stylegroup.grouping import GroupingParams, assign_groups
from stylegroup.simulate import generate, load_cohort_spec

CONFLICTING_VARS = """
input test_time dim=processing
output processing_score dim=processing universe=[0,12] { reactive=(0,0,6,8) reflective=(6,8,12,12) }
"""
CONFLICTING_RULES = """
RULE a: IF test_time IS low THEN processing_score IS reactive
RULE b: IF test_time IS low THEN processing_score IS reflective
"""


def _write_rulebase(tmp_path):
    rb = default_rulebase()
    text = pretty_print(rb)
    var_lines = [l for l in text.splitlines() if l.startswith(("input", "output"))]
    rule_lines = [l for l in text.splitlines() if l.startswith("RULE")]
    vars_path = tmp_path / "base.fvars"
    rules_path = tmp_path / "base.frules"
    vars_path.write_text("\n".join(var_lines) + "\n", encoding="utf-8")
    rules_path.write_text("\n".join(rule_lines) + "\n", encoding="utf-8")
    return vars_path, rules_path


def _small_cohort_spec(tmp_path, with_scores=True):
    spec = {
        "cohort": [
            {"signature": ["reactive", "sensory", "visual", "consecutive"], "count": 30},
            {"signature": ["reflection", "intuitive", "verbal", "sequential_global"], "count": 30},
            {"signature": ["reactive", "intuitive", "visual", "sequential_global"], "count": 30},
            {"signature": ["reflection", "sensory", "verbal", "consecutive"], "count": 30},
        ],
        "noise_sigma": 0.05,
    }
    if with_scores:
        spec["score_model"] = {"treated_mean": 17.65, "control_mean": 12.6, "sigma": 2.5}
    path = tmp_path / "cohort.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def test_validate_rules_bundled_base(capsys):
    assert main(["validate-rules"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0 errors, 1 warnings\n"
    assert captured.err == (
        "warning unproduced-term [-] output term understanding_score 'global'"
        " is concluded by no rule\n"
    )


def test_validate_rules_detects_conflict(tmp_path, capsys):
    vars_path = tmp_path / "c.fvars"
    rules_path = tmp_path / "c.frules"
    vars_path.write_text(CONFLICTING_VARS, encoding="utf-8")
    rules_path.write_text(CONFLICTING_RULES, encoding="utf-8")
    assert main(["validate-rules", "--vars", str(vars_path), "--rules", str(rules_path)]) == 1
    captured = capsys.readouterr()
    assert "conflict" in captured.err
    assert "1 errors" in captured.out


def test_validate_rules_explicit_files(tmp_path, capsys):
    vars_path, rules_path = _write_rulebase(tmp_path)
    assert main(["validate-rules", "--vars", str(vars_path), "--rules", str(rules_path)]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_simulate_requires_seed(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "out")]) == 2
    assert "--seed is required" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = main(
        ["classify", "--behaviors", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_simulate_then_classify_then_group_then_evaluate(tmp_path, capsys):
    out = tmp_path / "run"
    spec_path = _small_cohort_spec(tmp_path)
    assert (
        main(
            [
                "simulate",
                "--cohort-spec", str(spec_path),
                "--seed", "5",
                "--out", str(out),
            ]
        )
        == 0
    )
    assert (out / "behaviors.csv").exists()
    assert (out / "truth.csv").exists()

    assert (
        main(
            [
                "classify",
                "--behaviors", str(out / "behaviors.csv"),
                "--out", str(out),
            ]
        )
        == 0
    )
    assert (out / "profiles.csv").exists()
    assert (out / "profiles.json").exists()
    assert (out / "coverage.txt").exists()

    assert (
        main(
            [
                "group",
                "--profiles", str(out / "profiles.csv"),
                "--control-fraction", "0.25",
                "--seed", "5",
                "--min-size", "2",
                "--out", str(out),
            ]
        )
        == 0
    )
    assignment = (out / "assignment.csv").read_text().splitlines()
    assert assignment[0] == "learner_id,group_id,is_control"
    assert len(assignment) == 121
    plans = json.loads((out / "content_plans.json").read_text())
    assert all("preferences" in plan for plan in plans)

    # scores come from the pipeline path normally; synthesize a simple file
    scores_lines = ["learner_id,score"]
    for line in assignment[1:]:
        learner, _, is_control = line.split(",")
        scores_lines.append(f"{learner},{12.0 if is_control == '1' else 17.5}")
    # add within-group variation so variances are nonzero
    scores_path = tmp_path / "scores.csv"
    rows = [scores_lines[0]]
    for i, line in enumerate(scores_lines[1:]):
        learner, value = line.rsplit(",", 1)
        rows.append(f"{learner},{float(value) + (i % 5) * 0.1}")
    scores_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    assert (
        main(
            [
                "evaluate",
                "--assignment", str(out / "assignment.csv"),
                "--scores", str(scores_path),
                "--out", str(out),
            ]
        )
        == 0
    )
    evaluation = json.loads((out / "evaluation.json").read_text())
    assert all(row["verdict"] == "Positive" for row in evaluation["group_vs_control"])
    assert "Positive" in (out / "evaluation.txt").read_text()


def test_comma_learner_id_survives_classify_group_evaluate(tmp_path, capsys):
    import csv

    spec_path = _small_cohort_spec(tmp_path, with_scores=False)
    simulate = ["simulate", "--cohort-spec", str(spec_path), "--seed", "3", "--out", str(tmp_path)]
    assert main(simulate) == 0
    rename = {"L0001": "Doe, Jane", "L0002": 'Roe "Rick", Jr.'}
    with open(tmp_path / "behaviors.csv", encoding="utf-8", newline="") as handle:
        rows = [[rename.get(row[0], row[0]), *row[1:]] for row in csv.reader(handle)]
    behaviors = tmp_path / "renamed.csv"
    with open(behaviors, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    learners = list(dict.fromkeys(row[0] for row in rows[1:]))
    scores = tmp_path / "scores.csv"
    with open(scores, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["learner_id", "score"])
        writer.writerows([learner, 10.0 + i % 7] for i, learner in enumerate(learners))

    out = tmp_path / "out"
    for argv in (
        ["classify", "--behaviors", str(behaviors)],
        ["group", "--profiles", str(out / "profiles.csv"), "--seed", "1"],
        ["evaluate", "--assignment", str(out / "assignment.csv"), "--scores", str(scores)],
    ):
        assert main([*argv, "--out", str(out)]) == 0

    with open(out / "assignment.csv", encoding="utf-8", newline="") as handle:
        assigned = [row["learner_id"] for row in csv.DictReader(handle)]
    assert sorted(assigned) == sorted(learners)
    evaluation = json.loads((out / "evaluation.json").read_text())
    assert sum(g["n"] for g in evaluation["groups"]) + evaluation["control"]["n"] == len(learners)
    # ids that need no quoting are written exactly as before
    assert "\nL0003,processing," in (out / "profiles.csv").read_text()


def test_classify_missing_feature_writes_sidecar(tmp_path, capsys):
    out = tmp_path / "out"
    behaviors = tmp_path / "behaviors.csv"
    spec_path = _small_cohort_spec(tmp_path, with_scores=False)
    assert (
        main(
            ["simulate", "--cohort-spec", str(spec_path), "--seed", "9", "--out", str(tmp_path)]
        )
        == 0
    )
    # drop every audio_time row for one learner
    lines = (tmp_path / "behaviors.csv").read_text().splitlines()
    filtered = [
        line
        for line in lines
        if not (line.startswith("L0001,") and ",audio_time," in line)
    ]
    behaviors.write_text("\n".join(filtered) + "\n", encoding="utf-8")

    assert main(["classify", "--behaviors", str(behaviors), "--out", str(out)]) == 0
    failures = (out / "failures.csv").read_text().splitlines()
    assert failures[0] == "learner_id,dimension,reason"
    assert len(failures) == 2
    assert failures[1].startswith("L0001,")
    profiles = (out / "profiles.csv").read_text().splitlines()
    assert len(profiles) == 1 + 119 * 4
    assert "audio_time" in capsys.readouterr().err


def test_failures_csv_quotes_comma_and_quote_ids(tmp_path, capsys):
    import csv

    behaviors = tmp_path / "behaviors.csv"
    behaviors.write_text(
        'learner_id,variable,value\n"Doe, Jane",audio_time,3\n"Roe ""Rick"", Jr.",audio_time,3\n',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["classify", "--behaviors", str(behaviors), "--out", str(out)]) == 0
    with open(out / "failures.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["learner_id", "dimension", "reason"]
    assert [len(row) for row in rows] == [3, 3, 3]
    assert [row[0] for row in rows[1:]] == ["Doe, Jane", 'Roe "Rick", Jr.']
    assert rows[2][2].startswith("learner 'Roe \"Rick\", Jr.' has no value for ")


def test_classify_reports_a_field_over_the_size_limit_by_its_line(tmp_path, capsys):
    behaviors = tmp_path / "b.csv"
    behaviors.write_text(
        "learner_id,variable,value\nL1,test_time,1\nL1,test_time, " + "0" * 131_072 + "\n",
        encoding="utf-8",
    )
    assert main(["classify", "--behaviors", str(behaviors), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.endswith(
        "\nerror: line 3: field larger than field limit (131072)\n"
    )


def test_group_and_evaluate_reject_corrupt_rows(tmp_path, capsys):
    profiles = tmp_path / "profiles.csv"
    rows = [f"L{i},{d},{3.5 + i % 3},reactive" for i in range(12) for d in ("processing",)]
    rows[5] = "L5,processing,nan,reactive"
    profiles.write_text("learner_id,dimension,crisp_score,label\n" + "\n".join(rows) + "\n")
    assert main(["group", "--profiles", str(profiles), "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "error: line 7: crisp_score 'nan' is not finite\n" in capsys.readouterr().err

    assignment = tmp_path / "assignment.csv"
    assignment.write_text("learner_id,group_id,is_control\nL1,1,0\nL2,control,true\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("learner_id,score\nL1,10\nL2,12\n")
    argv = ["evaluate", "--assignment", str(assignment), "--scores", str(scores)]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "error: line 3: is_control 'true' is not 0 or 1\n" in capsys.readouterr().err


@pytest.mark.parametrize("learner", ["L1", "ZZ999"])
def test_evaluate_refuses_a_satisfaction_item_by_its_line(tmp_path, capsys, learner):
    """Items are checked as the file is read, also for a learner the assignment does not list."""
    assignment = tmp_path / "assignment.csv"
    assignment.write_text(
        "learner_id,group_id,is_control\nL1,1,0\nL2,1,0\nL3,control,1\nL4,control,1\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("learner_id,score\nL1,10\nL2,12\nL3,9\nL4,11\n")
    satisfaction = tmp_path / "sat.csv"
    satisfaction.write_text(
        f"learner_id,q1,q2,q3,q4,q5,q6,q7\nL2,4,4,4,4,4,4,4\n{learner},9,4,4,4,4,4,4\n"
    )
    argv = ["evaluate", "--assignment", str(assignment), "--scores", str(scores),
            "--satisfaction", str(satisfaction), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: line 3: q1 9.0 outside [1.0, 5.0]"


def test_evaluate_strips_assignment_ids_as_it_strips_score_ids(tmp_path, capsys):
    assignment = tmp_path / "assignment.csv"
    assignment.write_text(
        "learner_id,group_id,is_control\n L1,1,0\nL2,1,0\nL3,control,1\nL4,control,1\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("learner_id,score\nL1,10\nL2,12\nL3,9\nL4,11\n")
    argv = ["evaluate", "--assignment", str(assignment), "--scores", str(scores)]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    evaluation = json.loads((tmp_path / "evaluation.json").read_text(encoding="utf-8"))
    assert evaluation["groups"] == [{"label": "group-1", "mean": 11.0, "n": 2}]
    assert evaluation["control"] == {"label": "control", "mean": 10.0, "n": 2}


@pytest.mark.parametrize("command", ["group", "pipeline"])
def test_min_size_below_two_is_refused_before_any_assignment(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "group":
        profiles = tmp_path / "profiles.csv"
        rows = [f"L{i},processing,{3.5 + i % 3},reactive" for i in range(30)]
        profiles.write_text("learner_id,dimension,crisp_score,label\n" + "\n".join(rows) + "\n")
        argv = ["group", "--profiles", str(profiles)]
    else:
        argv = ["pipeline", "--cohort-spec", str(_small_cohort_spec(tmp_path))]
    assert main([*argv, "--seed", "3", "--min-size", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: min_size must be >= 2, got 1"
    assert not (out / "assignment.csv").exists()


def test_group_profiles_of_two_dimensions(tmp_path, capsys):
    # A rule base may cover fewer dimensions than the bundled four.
    profiles = tmp_path / "profiles.csv"
    dimensions = (("processing", 3.0, "reactive"), ("entrance", 10.0, "verbal"))
    rows = [
        f"L{i},{dimension},{score + i % 3 * 0.1},{label}"
        for i in range(24)
        for dimension, score, label in dimensions
    ]
    profiles.write_text("learner_id,dimension,crisp_score,label\n" + "\n".join(rows) + "\n")
    assert main(["group", "--profiles", str(profiles), "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    plans = json.loads((tmp_path / "content_plans.json").read_text(encoding="utf-8"))
    assert [
        {axis: value["descriptor"] for axis, value in plan["preferences"].items()} for plan in plans
    ] == [{"activity": "individual", "grounding": "mixed", "media": "verbal", "structure": "mixed"}]


def test_classify_with_questionnaire_validation(tmp_path):
    out = tmp_path / "out"
    spec_path = _small_cohort_spec(tmp_path, with_scores=False)
    main(["simulate", "--cohort-spec", str(spec_path), "--seed", "9", "--out", str(tmp_path)])
    # questionnaire built from the planted truth: pole labels map to 2 / 9,
    # hybrids to 7 (any monotone-consistent mapping correlates)
    truth_lines = (tmp_path / "truth.csv").read_text().splitlines()
    header = truth_lines[0].split(",")[1:]
    q_lines = ["learner_id,dimension,score"]
    pole_scores = {
        "reactive": 2.0, "sensory": 2.0, "visual": 2.0, "consecutive": 2.0,
        "reflection": 9.0, "intuitive": 9.0, "verbal": 9.0,
        "sequential_global": 7.0,
    }
    for line in truth_lines[1:]:
        parts = line.split(",")
        for dimension, label in zip(header, parts[1:]):
            q_lines.append(f"{parts[0]},{dimension},{pole_scores[label]}")
    questionnaire = tmp_path / "questionnaire.csv"
    questionnaire.write_text("\n".join(q_lines) + "\n", encoding="utf-8")

    assert (
        main(
            [
                "classify",
                "--behaviors", str(tmp_path / "behaviors.csv"),
                "--questionnaire", str(questionnaire),
                "--out", str(out),
            ]
        )
        == 0
    )
    report = json.loads((out / "validation.json").read_text())
    assert set(report["per_dimension_r"]) == {
        "processing", "perception", "entrance", "understanding"
    }
    assert all(r > 0.8 for r in report["per_dimension_r"].values())
    assert report["overall_r"] > 0.8


def test_classify_validation_of_a_homogeneous_cohort(tmp_path, capsys, caplog):
    # One signature at noise 0: every learner has the same crisp scores, so
    # no dimension has a correlation, and neither have the pooled scores,
    # which are one value too.
    spec = tmp_path / "cohort.json"
    spec.write_text(json.dumps({
        "cohort": [{"signature": ["reactive", "sensory", "visual", "consecutive"], "count": 12}],
        "noise_sigma": 0.0,
    }), encoding="utf-8")
    simulate = ["simulate", "--cohort-spec", str(spec), "--seed", "1", "--out", str(tmp_path)]
    assert main(simulate) == 0
    capsys.readouterr()
    dimensions = ["processing", "perception", "entrance", "understanding"]
    questionnaire = tmp_path / "questionnaire.csv"
    questionnaire.write_text("learner_id,dimension,score\n" + "".join(
        f"L{i:04d},{d},{i * 7 % 11}.5\n" for i in range(1, 13) for d in dimensions
    ), encoding="utf-8")
    out = tmp_path / "out"
    command = ["classify", "--behaviors", str(tmp_path / "behaviors.csv"),
               "--questionnaire", str(questionnaire), "--out", str(out)]
    with caplog.at_level(logging.WARNING, logger="stylegroup.classify"):
        assert main(command) == 0
    assert capsys.readouterr().out == "classified 12 learners, 0 failures\n"
    assert [r.getMessage() for r in caplog.records if r.name == "stylegroup.classify"] == [
        f"validation: dimension {d!r}: correlation is undefined for a constant sequence; "
        "its coefficient is null"
        for d in dimensions
    ] + ["validation: all dimensions pooled: correlation is undefined for a constant sequence; "
         "its coefficient is null"]
    report = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    assert report["per_dimension_r"] == dict.fromkeys(dimensions)
    assert report["mean_dimension_r"] is None
    assert report["overall_r"] is None
    assert len(report["rows"]) == 48


def test_classify_logs_what_it_wrote_only_at_info(tmp_path, capsys, caplog):
    sim = tmp_path / "sim"
    assert main(["simulate", "--cohort-spec", str(_small_cohort_spec(tmp_path)),
                 "--seed", "5", "--out", str(sim)]) == 0
    rows = (sim / "behaviors.csv").read_text(encoding="utf-8").splitlines()
    dropped = rows[1].split(",")[0]  # its first variable goes, so it fails
    (sim / "behaviors.csv").write_text("\n".join(rows[:1] + rows[2:]) + "\n", encoding="utf-8")
    command = ["classify", "--behaviors", str(sim / "behaviors.csv")]
    with caplog.at_level(logging.WARNING, logger="stylegroup"):
        assert main([*command, "--out", str(tmp_path / "warning")]) == 0
    writers = ("stylegroup", "stylegroup.classify")
    assert [r for r in caplog.records if r.name in writers] == []
    with caplog.at_level(logging.INFO, logger="stylegroup"):
        assert main([*command, "--out", str(tmp_path / "info")]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name in writers]
    out = tmp_path / "info"
    detail = (out / "profiles.json").read_bytes()
    learners = len(json.loads(detail))
    assert learners == 119
    assert messages[-2:] == [  # after classify_cohort's own line
        f"JSON export: {learners} learners, "
        f"{_distinct_results(out / 'profiles.csv')} distinct results formatted",
        f"classification: profiles.csv {4 * learners} rows, failures.csv 1 rows, "
        f"profiles.json {learners} learners {len(detail)} bytes",
    ]
    assert f"{dropped!r}" in (out / "failures.csv").read_text(encoding="utf-8")
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "warning").iterdir())
    assert all((out / n).read_bytes() == (tmp_path / "warning" / n).read_bytes() for n in names)


def _distinct_results(profiles_csv):
    """Distinct (dimension, crisp score, label) rows of a profiles.csv."""
    return len({tuple(row.split(",")[1:]) for row in profiles_csv.read_text().splitlines()[1:]})


def test_pipeline_deterministic_output_tree(tmp_path):
    spec_path = _small_cohort_spec(tmp_path)
    runs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(
            [
                "pipeline",
                "--cohort-spec", str(spec_path),
                "--seed", "42",
                "--control-fraction", "0.2",
                "--min-size", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        runs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.is_file()
            }
        )
    assert runs[0].keys() == runs[1].keys()
    assert runs[0] == runs[1]
    assert "evaluation.txt" in runs[0]


def test_config_file_with_flag_override(tmp_path, capsys):
    spec_path = _small_cohort_spec(tmp_path)
    config = {
        "cohort_spec": str(spec_path),
        "seed": 7,
        "control_fraction": 0.2,
        "min_size": 2,
        "out": str(tmp_path / "from_config"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert (tmp_path / "from_config" / "profiles.csv").exists()

    # flag overrides the config value
    assert (
        main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "flag_out")])
        == 0
    )
    assert (tmp_path / "flag_out" / "profiles.csv").exists()


def test_bad_config_json_is_config_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json", encoding="utf-8")
    assert main(["validate-rules", "--config", str(config_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "stylegroup.cli", "validate-rules"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "0 errors" in result.stdout


def test_classify_logs_what_it_read_only_at_info(tmp_path):
    """At STYLEGROUP_LOG=info, classify says how it read the behaviours; the files do not change."""
    import filecmp
    import os
    import subprocess
    import sys

    if not hasattr(os, "fork"):
        pytest.skip("reading in two parts needs os.fork")
    # The command as `python -m stylegroup.cli` runs it, on two usable CPUs
    # whatever the host has, so that it reads in two parts.
    command = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from stylegroup.cli import main; sys.exit(main())"
    )
    sim = tmp_path / "sim"
    assert main(["simulate", "--cohort-spec", str(_small_cohort_spec(tmp_path)),
                 "--seed", "5", "--out", str(sim)]) == 0
    behaviors = sim / "behaviors.csv"
    assert len(behaviors.read_text(encoding="utf-8").splitlines()) > 2
    results = {}
    for level in ("warning", "info"):
        out = tmp_path / level
        results[level] = subprocess.run(
            [sys.executable, "-c", command, "classify",
             "--behaviors", str(behaviors), "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "STYLEGROUP_LOG": level},
        )
        assert results[level].returncode == 0, results[level].stderr
    assert "INFO" not in results["warning"].stderr
    (line,) = [line for line in results["info"].stderr.splitlines() if "stylegroup.ingest" in line]
    assert line.startswith(f"INFO stylegroup.ingest: behaviours {behaviors}: ")
    assert line.endswith(", parts=2")
    assert results["info"].stdout == results["warning"].stdout
    names = sorted(p.name for p in (tmp_path / "warning").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "info").iterdir())
    assert filecmp.cmpfiles(tmp_path / "warning", tmp_path / "info", names, shallow=False)[0] == names


def _evaluate_inputs(tmp_path):
    assignment = tmp_path / "assignment.csv"
    scores = tmp_path / "scores.csv"
    members = [(f"g{g}_{i}", g, 0) for g in (1, 2) for i in range(4)]
    members += [(f"c_{i}", "control", 1) for i in range(4)]
    assignment.write_text(
        "learner_id,group_id,is_control\n"
        + "".join(f"{lid},{gid},{ctl}\n" for lid, gid, ctl in members),
        encoding="utf-8",
    )
    scores.write_text(
        "learner_id,score\n"
        + "".join(f"{lid},{12.0 + n % 4 * 0.3}\n" for n, (lid, _, _) in enumerate(members)),
        encoding="utf-8",
    )
    return ["--assignment", str(assignment), "--scores", str(scores)]


@pytest.mark.parametrize("alpha", ["2", "nan", "0", "1", "-0.05"])
def test_evaluate_rejects_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    argv = ["evaluate", *_evaluate_inputs(tmp_path), "--out", str(tmp_path / "out")]
    assert main([*argv, "--alpha", "0.05"]) == 0
    capsys.readouterr()
    assert main([*argv, "--alpha", alpha]) == 1
    assert f"alpha must lie in (0, 1), got {float(alpha)}" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(f'{{"alpha": {float(alpha)}}}'.replace("nan", "NaN"), encoding="utf-8")
    assert main([*argv, "--config", str(config)]) == 1
    assert "alpha must lie in (0, 1)" in capsys.readouterr().err


def test_pipeline_rejects_alpha_outside_the_unit_interval(tmp_path, capsys):
    argv = ["pipeline", "--cohort-spec", str(_small_cohort_spec(tmp_path)), "--seed", "5",
            "--min-size", "2", "--out", str(tmp_path / "out")]
    assert main([*argv, "--alpha", "2"]) == 1
    assert "alpha must lie in (0, 1), got 2.0" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text('{"alpha": NaN}', encoding="utf-8")
    assert main([*argv, "--config", str(config)]) == 1
    assert "alpha must lie in (0, 1), got nan" in capsys.readouterr().err


def _profiles_csv(tmp_path, learners=40):
    """Four signatures over two dimensions, ten learners each."""
    profiles = tmp_path / "profiles.csv"
    rows = [
        f"L{i},{dimension},{score + i % 3 * 0.1},{label}"
        for i in range(learners)
        for dimension, score, label in (
            ("processing", *((3.0, "reactive") if i % 2 else (9.0, "reflection"))),
            ("entrance", *((3.0, "visual") if i % 4 < 2 else (10.0, "verbal"))),
        )
    ]
    profiles.write_text("learner_id,dimension,crisp_score,label\n" + "\n".join(rows) + "\n")
    return profiles


@pytest.mark.parametrize(
    "key, value", [("seed", 3.9), ("seed", True), ("target_k", 2.5), ("min_size", "10"),
                   ("min_size", False), ("target_k", None)]
)
def test_integer_config_settings_must_be_json_integers(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, key: value}), encoding="utf-8")
    argv = ["group", "--profiles", str(_profiles_csv(tmp_path)), "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"config error: config key {key!r} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "assignment.csv").exists()


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    argv = ["group", "--profiles", str(_profiles_csv(tmp_path)), "--config", str(config),
            "--out", str(tmp_path / "out")]
    config.write_text('{"seed": 3, "control_fracton": 0.5}', encoding="utf-8")
    assert main(argv) == 2
    assert "unknown config key 'control_fracton'" in capsys.readouterr().err
    # A key of another command's flag is accepted, so one file serves several commands.
    config.write_text('{"seed": 3, "alpha": 0.01, "behaviors": "b.csv"}', encoding="utf-8")
    assert main(argv) == 0


def test_every_config_key_is_some_subcommands_flag():
    """The config check accepts exactly the keys of `FLAGS`, so each must be a flag in use."""
    used = [key for _, _, flags in COMMANDS.values() for key in flags.split()]
    assert set(used) == FLAGS.keys()


def test_a_config_file_may_not_set_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"config": "other.json", "min_size": 2}', encoding="utf-8")
    assert main(["validate-rules", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "config error: config key 'config' is not allowed: a config file cannot name another"
    )


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_a_log_setting_that_names_no_level_is_a_config_error(tmp_path, monkeypatch, capsys, value):
    """`basic_format` once reached `logging.BASIC_FORMAT`, and `verbose` meant warning."""
    monkeypatch.setenv("STYLEGROUP_LOG", value)
    assert main(["validate-rules"]) == 2
    assert capsys.readouterr() == ("", (
        "config error: STYLEGROUP_LOG must be one of debug, info, warning, error, critical "
        f"(any case), got {value!r}\n"
    ))
    assert main(["group", "--profiles", str(_profiles_csv(tmp_path)), "--seed", "3",
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_a_log_level_may_be_upper_case(tmp_path):
    import os
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "stylegroup.cli", "group", "--profiles",
         str(_profiles_csv(tmp_path)), "--seed", "3", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "STYLEGROUP_LOG": "INFO"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("INFO stylegroup.grouping: assignment: 40 learners")


def test_group_logs_its_assignment_only_at_info(tmp_path):
    """At STYLEGROUP_LOG=info, group says what it formed; the files do not change."""
    import filecmp
    import os
    import subprocess
    import sys

    profiles = _profiles_csv(tmp_path)
    results = {}
    for level in ("warning", "info"):
        results[level] = subprocess.run(
            [sys.executable, "-m", "stylegroup.cli", "group", "--profiles", str(profiles),
             "--seed", "3", "--out", str(tmp_path / level)],
            capture_output=True, text=True, env={**os.environ, "STYLEGROUP_LOG": level},
        )
        assert results[level].returncode == 0, results[level].stderr
    assert results["warning"].stderr == ""
    (line,) = results["info"].stderr.splitlines()
    sizes = {}
    for row in (tmp_path / "info" / "assignment.csv").read_text().splitlines()[1:]:
        group_id = row.split(",")[1]
        if group_id != "control":
            sizes[int(group_id)] = sizes.get(int(group_id), 0) + 1
    merges = 4 - len(sizes)
    assert line == (
        f"INFO stylegroup.grouping: assignment: 40 learners, 4 control, 4 signatures in, "
        f"{len(sizes)} groups out, {merges} merges, "
        f"sizes {','.join(str(sizes[g]) for g in sorted(sizes))}"
    )
    assert merges > 0
    assert results["info"].stdout == results["warning"].stdout
    names = sorted(p.name for p in (tmp_path / "warning").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "info").iterdir())
    assert filecmp.cmpfiles(tmp_path / "warning", tmp_path / "info", names, shallow=False)[0] == names


@pytest.mark.parametrize(
    "command, key, value, kind",
    [
        ("classify", "behaviors", 0, "a string"),
        ("classify", "policy", "lenient", "one of 'clamp', 'strict'"),
        ("evaluate", "alpha", None, "a number"),
        ("group", "control_fraction", [0.1], "a number"),
        ("group", "out", 7, "a string"),
    ],
)
def test_config_values_must_have_their_flags_json_type(tmp_path, capsys, command, key, value, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, key: value}), encoding="utf-8")
    assert main([command, "--config", str(config)]) == 2
    assert f"config error: config key {key!r} must be {kind}, got {value!r}" in (
        capsys.readouterr().err
    )


def test_group_and_pipeline_refuse_a_side_below_two_learners(tmp_path, capsys):
    """14 learners at the default fraction 0.1 would give a control of 1."""
    out = tmp_path / "group"
    argv = ["group", "--profiles", str(_profiles_csv(tmp_path, learners=14)), "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 1
    refusal = "fraction 0.1 of 14 learners gives a control of 1 and a treated side of 13"
    assert refusal in capsys.readouterr().err
    assert not (out / "assignment.csv").exists()
    assert main([*argv, "--control-fraction", "0.9", "--out", str(out)]) == 1
    assert "gives a control of 13 and a treated side of 1" in capsys.readouterr().err

    spec = tmp_path / "cohort.json"
    spec.write_text(json.dumps({
        "cohort": [{"signature": ["reactive", "sensory", "visual", "consecutive"], "count": 14}],
        "score_model": {"treated_mean": 17.65, "control_mean": 12.6, "sigma": 2.5},
    }), encoding="utf-8")
    out = tmp_path / "pipeline"
    argv = ["pipeline", "--cohort-spec", str(spec), "--seed", "3", "--min-size", "2"]
    assert main([*argv, "--out", str(out)]) == 1
    assert refusal in capsys.readouterr().err
    assert not (out / "assignment.csv").exists()
    assert not (out / "scores.csv").exists()


def test_evaluate_keeps_the_group_order_of_the_assignment(tmp_path, capsys):
    """Group 5 comes before group 37, as `group` writes them, though "37" < "5" as text."""
    assignment = tmp_path / "assignment.csv"
    scores = tmp_path / "scores.csv"
    members = [(f"{gid}_{i}", gid, 0) for gid in ("5", "37") for i in range(4)]
    members += [(f"c_{i}", "control", 1) for i in range(4)]
    assignment.write_text(
        "learner_id,group_id,is_control\n"
        + "".join(f"{lid},{gid},{ctl}\n" for lid, gid, ctl in members),
        encoding="utf-8",
    )
    base = {"5": 12.0, "37": 17.0, "control": 10.0}
    scores.write_text(
        "learner_id,score\n"
        + "".join(f"{lid},{base[gid] + n % 4 * 0.3}\n" for n, (lid, gid, _) in enumerate(members)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["evaluate", "--assignment", str(assignment), "--scores", str(scores), "--out", str(out)]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert report.index("group-5") < report.index("group-37")
    evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    assert [g["label"] for g in evaluation["groups"]] == ["group-5", "group-37"]
    assert ["group-5", "group-37"] in [p["pair"] for p in evaluation["posthoc"]]


_GLOBAL = ["reactive", "sensory", "visual", "global"]  # no rule concludes 'global'


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--min-size", "1", "min_size must be >= 2, got 1"),
        ("--control-fraction", "0.001",
         "fraction 0.001 of 420 learners gives a control of 0 and a treated side of 420; "
         "each needs at least 2"),
        ("--target-k", "0", "target_k must be >= 1, got 0"),
        ("--alpha", "2", "alpha must lie in (0, 1), got 2.0"),
        ("--seed", "-1", "seed must be a non-negative integer"),
        ("--cohort-spec", "global.json", "no rule produces 'global' in dimension 'understanding'"),
    ],
)
def test_pipeline_refuses_bad_settings_before_writing_anything(
    tmp_path, capsys, flag, value, message
):
    if flag == "--cohort-spec":
        value = str(tmp_path / value)
        Path(value).write_text(json.dumps(_spec(entry={"signature": _GLOBAL})), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--seed", "3", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["simulate", "--seed", "-1"], 1, "error: seed must be a non-negative integer"),
        (["simulate", "--cohort-spec", "{global}", "--seed", "3"], 1,
         "error: no rule produces 'global' in dimension 'understanding'"),
        (["group", "--profiles", "{profiles}", "--seed", "-1"], 1,
         "error: seed must be a non-negative integer"),
        (["group", "--profiles", "{profiles}", "--seed", "3", "--min-size", "1"], 1,
         "error: min_size must be >= 2, got 1"),
        (["group", "--profiles", "{missing}", "--seed", "3"], 2,
         "i/o error: [Errno 2] No such file or directory: '{missing}'"),
        (["evaluate", "--assignment", "{assignment}", "--scores", "{scores}", "--alpha", "1.5"],
         1, "error: alpha must lie in (0, 1), got 1.5"),
        (["classify", "--behaviors", "{behaviors}", "--questionnaire", "{missing}"], 2,
         "i/o error: [Errno 2] No such file or directory: '{missing}'"),
        (["classify", "--behaviors", "{behaviors}", "--questionnaire", "{questionnaire}"], 1,
         "error: line 2: score 99.0 outside [0.0, 11.0]"),
        (["classify", "--behaviors", "{behaviors}", "--questionnaire", "{unpaired}"], 1,
         "error: dimension 'processing' has 0 paired learners, need at least 3"),
        (["classify", "--behaviors", "{behaviors}", "--vars", "{missing}"], 2,
         "config error: --vars and --rules must be given together"),
    ],
    ids=["simulate-seed", "simulate-global", "group-seed", "group-min-size", "group-missing",
         "evaluate-alpha", "classify-questionnaire-missing", "classify-questionnaire-score",
         "classify-questionnaire-unpaired", "classify-vars-alone"],
)
def test_staged_commands_refuse_before_creating_out(tmp_path, capsys, argv, code, message):
    spec = tmp_path / "global.json"
    spec.write_text(json.dumps(_spec(entry={"signature": _GLOBAL})), encoding="utf-8")
    assignment, scores = _evaluate_inputs(tmp_path)[1::2]
    behaviors = tmp_path / "behaviors.csv"
    behaviors.write_text("learner_id,variable,value\nL1,test_time,10\n", encoding="utf-8")
    questionnaire = tmp_path / "questionnaire.csv"
    questionnaire.write_text("learner_id,dimension,score\nL1,processing,99\n", encoding="utf-8")
    unpaired = tmp_path / "unpaired.csv"
    unpaired.write_text("learner_id,dimension,score\nZZ,processing,3\n", encoding="utf-8")
    paths = {"global": spec, "profiles": _profiles_csv(tmp_path), "assignment": assignment,
             "scores": scores, "behaviors": behaviors, "questionnaire": questionnaire,
             "unpaired": unpaired, "missing": tmp_path / "missing.csv"}
    out = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines()[-1] == message.format(**paths)
    assert not out.exists()


def test_pipeline_refuses_alpha_without_a_score_model(tmp_path, capsys):
    """The alpha is refused as `evaluate` refuses it, though this spec evaluates nothing."""
    spec = str(_small_cohort_spec(tmp_path, with_scores=False))
    out = tmp_path / "out"
    argv = ["pipeline", "--cohort-spec", spec, "--seed", "3", "--min-size", "2", "--out", str(out)]
    assert main([*argv, "--alpha", "2"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: alpha must lie in (0, 1), got 2.0"
    assert not out.exists()
    assert main([*argv, "--alpha", "0.01"]) == 0
    assert (out / "assignment.csv").exists()
    assert not (out / "scores.csv").exists()


def _spec(*, entry=None, **fields):
    """A cohort spec of one 30-learner signature, with some entry or field replaced."""
    signature = ["reactive", "sensory", "visual", "consecutive"]
    return {"cohort": [{"signature": signature, "count": 30, **(entry or {})}],
            "noise_sigma": 0.05, **fields}


_MODEL = {"treated_mean": 17.65, "control_mean": 12.6, "sigma": 2.5}


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize(
    "spec, message",
    [
        ({"noise_sigma": 0.1}, "cohort spec: 'cohort' must be a list of objects"),
        (_spec()["cohort"], "cohort spec: 'cohort' must be a list of objects"),
        ({"cohort": ["reactive"]}, "cohort spec: 'cohort' must be a list of objects"),
        (_spec(score_model={"treated_mean": 17.65, "sigma": 2.5}),
         "score_model: 'control_mean' must be a finite number, and is missing"),
        (_spec(entry={"count": 2.7}), "cohort[0]: 'count' must be a positive integer, got 2.7"),
        (_spec(entry={"count": True}), "cohort[0]: 'count' must be a positive integer, got True"),
        (_spec(entry={"signature": "reactive"}),
         "cohort[0]: 'signature' must be a list of strings, got 'reactive'"),
        (_spec(noise_sigma=float("nan")),
         "cohort spec: 'noise_sigma' must be a finite number >= 0, got nan"),
        (_spec(score_model={**_MODEL, "sigma": float("nan")}),
         "score_model: 'sigma' must be a finite number >= 0, got nan"),
        (_spec(score_model={**_MODEL, "sigma": -1}),
         "score_model: 'sigma' must be a finite number >= 0, got -1"),
        (_spec(score_model={**_MODEL, "signature_means": {"reactive": float("inf")}}),
         "score_model.signature_means: 'reactive' must be a finite number, got inf"),
    ],
    ids=["no-cohort", "array", "entry-not-object", "no-control-mean", "float-count",
         "bool-count", "string-signature", "nan-noise", "nan-sigma", "negative-sigma",
         "infinite-mean"],
)
def test_malformed_cohort_spec_is_refused_before_writing_anything(
    tmp_path, capsys, command, spec, message
):
    path = tmp_path / "cohort.json"
    path.write_text(json.dumps(spec), encoding="utf-8")  # NaN and Infinity as `json` writes them
    out = tmp_path / "out"
    argv = [command, "--cohort-spec", str(path), "--seed", "3", "--out", str(out)]
    assert main([*argv, "--min-size", "2"] if command == "pipeline" else argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


class _Case(NamedTuple):
    """A rule base, a cohort spec and the grouping settings of one pipeline run."""

    fvars: str
    frules: str
    spec: dict
    seed: int
    control_fraction: float
    target_k: int
    min_size: int


def _corners(draw, top: int) -> str:
    """A trapezoid on [0, top] of positive width."""
    a, b, c, d = sorted(draw(st.lists(st.integers(0, top), min_size=4, max_size=4)))
    if a == d:
        a, d = (a - 1, d) if d == top else (a, d + 1)
    return f"({a},{b},{c},{d})"


@st.composite
def _cases(draw) -> _Case:
    """1-3 dimensions of 1-4 inputs, 2-4 output terms and 1-5 rules each; a spec planting
    labels that rules produce."""
    order = ("processing", "perception", "entrance", "understanding")
    dims = sorted(draw(st.sets(st.sampled_from(order), min_size=1, max_size=3)), key=order.index)
    fvars, frules, produced = [], [], []
    for dim in dims:
        inputs = []
        for k in range(draw(st.integers(1, 4))):
            name, line = f"{dim[:4]}_in{k}", f"input {dim[:4]}_in{k} dim={dim}"
            terms, custom = ["low", "medium", "much"], draw(st.booleans())
            if custom:
                top = draw(st.integers(4, 20))
                terms = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
                line += f" universe=[0,{top}]"
            if draw(st.integers(0, 3)) == 3:
                line += f" max_expected={draw(st.sampled_from(['3.5', '7', '45']))}"
            if custom:
                line += " { " + " ".join(f"{t}={_corners(draw, top)}" for t in terms) + " }"
            fvars.append(line)
            inputs.append((name, terms))
        top = draw(st.integers(4, 20))
        labels = [f"{dim[:4]}{i}" for i in range(draw(st.integers(2, 4)))]
        block = " ".join(f"{label}={_corners(draw, top)}" for label in labels)
        fvars.append(f"output {dim}_score dim={dim} universe=[0,{top}] {{ {block} }}")
        antecedents, concluded = set(), set()
        for r in range(draw(st.integers(1, 5))):
            chosen = draw(st.permutations(inputs))[: draw(st.integers(1, len(inputs)))]
            clauses = [(name, draw(st.sampled_from(terms))) for name, terms in chosen]
            if frozenset(clauses) in antecedents:  # equal antecedents would conflict
                continue
            antecedents.add(frozenset(clauses))
            label = draw(st.sampled_from(labels))
            concluded.add(label)
            frules.append(f"RULE {dim[:4]}{r}: IF "
                          + " AND ".join(f"{name} IS {term}" for name, term in clauses)
                          + f" THEN {dim}_score IS {label}")
        produced.append(sorted(concluded))
    signatures = draw(st.lists(st.tuples(*map(st.sampled_from, produced)), min_size=1, max_size=4))
    spec = {"cohort": [{"signature": list(sig), "count": draw(st.integers(6, 12))}
                       for sig in signatures],
            "noise_sigma": draw(st.sampled_from([0.0, 0.05, 0.2]))}
    if draw(st.booleans()):
        spec["score_model"] = {"treated_mean": 15.0, "control_mean": 12.0, "sigma": 2.0}
        if draw(st.booleans()):
            spec["score_model"]["signature_means"] = {"|".join(signatures[0]): 19.0}
    return _Case("\n".join(fvars) + "\n", "\n".join(frules) + "\n", spec,
                 draw(st.integers(0, 99)), draw(st.sampled_from([0.3, 0.2, 0.5, 0.1])),
                 draw(st.integers(1, 4)), draw(st.integers(2, 3)))


def _bundled_case() -> _Case:
    """The bundled base over 8 signatures: three groups of more than one signature mode."""
    text = pretty_print(default_rulebase()).splitlines()
    labels = (("reactive", "reflection"), ("sensory", "intuitive"), ("visual", "verbal"))
    spec = {"cohort": [{"signature": [*sig, "consecutive"], "count": 12}
                       for sig in itertools.product(*labels)],
            "noise_sigma": 0.1, "score_model": {**_MODEL, "signature_means": {
                "reactive|sensory|visual|consecutive": 19.0}}}
    return _Case("\n".join(l for l in text if l.startswith(("input", "output"))) + "\n",
                 "\n".join(l for l in text if l.startswith("RULE")) + "\n", spec, 8, 0.2, 3, 10)


_BUNDLED_CASE = _bundled_case()

# Each stage's own files, in the order `pipeline` runs the stages.
_STAGE_FILES = (
    {"cohort_spec.json", "behaviors.csv", "truth.csv"},
    {"profiles.csv", "profiles.json", "failures.csv"},
    {"assignment.csv", "content_plans.json"},
    {"scores.csv", "evaluation.json", "evaluation.txt"},
)


def _run(*argv) -> tuple[int, str, str]:
    """`main` on the arguments: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


def _failure_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("classification failed")]


@seed(20)
@settings(max_examples=40, deadline=None)
@example(_BUNDLED_CASE)
@given(_cases())
def test_pipeline_is_the_staged_commands_on_random_rule_bases(case):
    """`pipeline` writes what simulate -> classify -> group -> evaluate write.

    So each file one stage writes is read back by the next with the same
    result, on random rule bases, with and without `max_expected` ceilings.
    """
    from unittest import mock

    from stylegroup import cli

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "base.fvars").write_text(case.fvars, encoding="utf-8")
        (root / "base.frules").write_text(case.frules, encoding="utf-8")
        (root / "cohort.json").write_text(json.dumps(case.spec), encoding="utf-8")
        base = ["--vars", root / "base.fvars", "--rules", root / "base.frules"]
        spec = ["--cohort-spec", root / "cohort.json", "--seed", case.seed]
        grouping = ["--seed", case.seed, "--control-fraction", case.control_fraction,
                    "--target-k", case.target_k, "--min-size", case.min_size]
        pipeline = ["pipeline", *base, *spec, *grouping]
        ceiling = "max_expected" in case.fvars
        # Without a ceiling `pipeline` classifies the generated features and reads nothing back.
        with mock.patch.object(cli, "load_behaviors", None) if not ceiling else contextlib.nullcontext():
            code, stdout, stderr = _run(*pipeline, "--out", root / "run")
        written = _files(root / "run")
        assert (code, stdout, stderr) == _run(*pipeline, "--out", root / "again")
        assert _files(root / "again") == written
        if code:
            # Refused before the failing stage wrote any of its own files.
            assert code == 1 and stderr.splitlines()[-1].startswith("error: ")
            done = 0
            while done < len(_STAGE_FILES) and _STAGE_FILES[done] <= written.keys():
                done += 1
            assert written.keys() == set().union(*_STAGE_FILES[:done])
            return

        staged = root / "staged"
        assert _run("simulate", *base, *spec, "--out", staged)[0] == 0
        code, _, classify_stderr = _run("classify", *base, "--behaviors", staged / "behaviors.csv",
                                        "--out", staged)
        assert code == 0
        assert _failure_lines(stderr) == _failure_lines(classify_stderr)
        assert _run("group", "--profiles", staged / "profiles.csv", *grouping,
                    "--out", staged)[0] == 0
        if "score_model" in case.spec:
            code, report, _ = _run("evaluate", "--assignment", staged / "assignment.csv",
                                   "--scores", root / "run" / "scores.csv", "--out", staged)
            assert code == 0 and report == written["evaluation.txt"].decode()
        mine = _files(staged)
        assert mine.keys() - written.keys() == {"clamp_report.txt", "coverage.txt"}
        assert written.keys() - mine.keys() == ({"scores.csv"} if "score_model" in case.spec
                                                else set())
        assert all(mine[name] == written[name] for name in mine.keys() & written.keys())

        if not ceiling:  # the library in process groups as `pipeline` did
            rb = load_rulebase(case.fvars, case.frules)
            behaviors = generate(load_cohort_spec(root / "cohort.json")._replace(seed=case.seed),
                               rb)[1]
            params = GroupingParams(case.control_fraction, case.seed, case.target_k,
                                    case.min_size)
            assignment = assign_groups(classify_cohort(behaviors, rb)[0], params)
            assert assignment.to_csv() == written["assignment.csv"].decode()
            if case is _BUNDLED_CASE:
                assert len(assignment.groups) == 3
                assert len({g.signature_mode for g in assignment.groups}) > 1


@pytest.mark.parametrize("signature_means", [None, {"reactive|sensory|visual|consecutive": 19.0}])
def test_pipeline_evaluation_is_evaluate_on_its_own_files(tmp_path, capsys, signature_means):
    """Both commands build the samples from (assignment rows, scores) the same way."""
    run = tmp_path / "run"
    argv = ["pipeline", "--seed", "42", "--out", str(run)]
    if signature_means is not None:
        spec = json.loads(_small_cohort_spec(tmp_path).read_text(encoding="utf-8"))
        spec["score_model"]["signature_means"] = signature_means
        spec_path = tmp_path / "means.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv += ["--cohort-spec", str(spec_path), "--control-fraction", "0.2", "--min-size", "2"]
    assert main(argv) == 0
    again = tmp_path / "again"
    assert main(["evaluate", "--assignment", str(run / "assignment.csv"),
                 "--scores", str(run / "scores.csv"), "--out", str(again)]) == 0
    for name in ("evaluation.json", "evaluation.txt"):
        assert (again / name).read_bytes() == (run / name).read_bytes()
    assert capsys.readouterr().out.endswith((run / "evaluation.txt").read_text(encoding="utf-8"))


def test_group_on_profiles_csv_is_the_pipelines_assignment(tmp_path, capsys):
    """`group` reads back the crisp scores `pipeline` grouped in process: the same groups."""
    labels = (("reactive", "reflection"), ("sensory", "intuitive"), ("visual", "verbal"))
    spec = {
        "cohort": [{"signature": [*sig, "consecutive"], "count": 12}
                   for sig in itertools.product(*labels)],
        "noise_sigma": 0.1,
    }
    spec_path = tmp_path / "cohort.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    run, again = tmp_path / "run", tmp_path / "again"
    settings = ["--seed", "8", "--control-fraction", "0.2", "--target-k", "3"]
    assert main(["pipeline", "--cohort-spec", str(spec_path), *settings, "--out", str(run)]) == 0
    assert main(["group", "--profiles", str(run / "profiles.csv"), *settings,
                 "--out", str(again)]) == 0
    for name in ("assignment.csv", "content_plans.json"):
        assert (again / name).read_bytes() == (run / name).read_bytes()
    rb = default_rulebase()
    table, _ = classify_cohort(generate(load_cohort_spec(spec_path)._replace(seed=8), rb)[1], rb)
    assignment = assign_groups(table, GroupingParams(control_fraction=0.2, seed=8, target_k=3))
    assert len(assignment.groups) == 3 and len({g.signature_mode for g in assignment.groups}) > 1
    assert assignment.to_csv() == (run / "assignment.csv").read_text(encoding="utf-8")


def test_pipeline_classifies_what_classify_reads_with_max_expected(tmp_path, capsys, monkeypatch):
    """A ceiling's raw value reads back to other bits; `pipeline` classifies the read value.

    Without a ceiling it reads nothing back.
    """
    import re

    import stylegroup
    from stylegroup import cli

    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_behaviors", None)  # calling it would raise TypeError
        assert main(["pipeline", "--seed", "8", "--out", str(tmp_path / "bundled")]) == 0

    data = Path(stylegroup.__file__).parent / "data"
    text = (data / "default.fvars").read_text(encoding="utf-8")
    for name, ceiling in (("test_time", 7), ("theory_time", 45), ("audio_time", 7)):
        text, found = re.subn(rf"^(input {name} dim=\w+)$", rf"\1 max_expected={ceiling}", text,
                              flags=re.M)
        assert found == 1
    base = tmp_path / "base.fvars"
    base.write_text(text, encoding="utf-8")
    labels = (("reactive", "reactive_reflective", "reflection"),
              ("sensory", "sensory_intuitive", "intuitive"),
              ("visual", "visual_verbal", "verbal"), ("consecutive", "sequential_global"))
    spec = {"cohort": [{"signature": list(sig), "count": 20} for sig in itertools.product(*labels)],
            "noise_sigma": 0.1}
    spec_path = tmp_path / "cohort.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    rules = ["--vars", str(base), "--rules", str(data / "default.frules")]
    run, again = tmp_path / "run", tmp_path / "again"
    assert main(["pipeline", *rules, "--cohort-spec", str(spec_path), "--seed", "8",
                 "--out", str(run)]) == 0
    assert main(["classify", *rules, "--behaviors", str(run / "behaviors.csv"),
                 "--out", str(again)]) == 0
    for name in ("profiles.csv", "profiles.json", "failures.csv"):
        assert (again / name).read_bytes() == (run / name).read_bytes()


def test_evaluate_refuses_a_learner_without_a_score(tmp_path, capsys):
    assignment = tmp_path / "assignment.csv"
    assignment.write_text(
        "learner_id,group_id,is_control\nL1,1,0\nL2,1,0\nL3,control,1\nL4,control,1\n"
    )
    scores = tmp_path / "scores.csv"
    scores.write_text("learner_id,score\nL1,10\nL2,12\nL4,11\n")
    out = tmp_path / "out"
    argv = ["evaluate", "--assignment", str(assignment), "--scores", str(scores), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: no score for learner 'L3'"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, text, code, message",
    [
        ("--cohort-spec", '{"cohort": [', 1,
         "error: {path}: Expecting value: line 1 column 13 (char 12)"),
        ("--cohort-spec", json.dumps(_spec())[:-1] + ', "noise_sigma": 0.2}', 1,
         "error: {path}: repeated key 'noise_sigma'"),
        ("--cohort-spec", json.dumps(_spec()).replace('"count": 30', '"count": 30, "count": 5'),
         1, "error: {path}: repeated key 'count'"),
        ("--config", '{"min_size": 2 "seed": 3}', 2,
         "config error: {path}: Expecting ',' delimiter: line 1 column 16 (char 15)"),
        ("--config", '{"min_size": 2, "min_size": 3}', 2,
         "config error: {path}: repeated key 'min_size'"),
        ("--config", '[{"min_size": 2}]', 2, "config error: config file must hold a JSON object"),
    ],
    ids=["spec-syntax", "spec-repeat", "spec-nested-repeat", "config-syntax", "config-repeat",
         "config-array"],
)
def test_json_inputs_name_their_file_and_refuse_repeated_keys(
    tmp_path, capsys, flag, text, code, message
):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["pipeline", flag, str(path), "--seed", "3", "--min-size", "2", "--out", str(out)]
    if flag == "--config":
        argv += ["--cohort-spec", str(_small_cohort_spec(tmp_path))]
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines()[-1] == message.format(path=path)
    assert not out.exists()


# Inputs a, b, c are declared in that order; the rules reference b first.
_REORDERED_VARS = """
input a dim=processing universe=[0,100]
input b dim=processing universe=[0,100]
input c dim=processing universe=[0,100]
output processing_score dim=processing universe=[0,12] { calm=(0,0,4,6) busy=(6,8,12,12) }
"""
_REORDERED_RULES = """
RULE r1: IF b IS low AND a IS low THEN processing_score IS calm
RULE r2: IF b IS much THEN processing_score IS busy
"""


def _classify_reordered(tmp_path, rows):
    """Classify behaviour rows on the a/b/c base; (exit code, out directory)."""
    (tmp_path / "base.fvars").write_text(_REORDERED_VARS, encoding="utf-8")
    (tmp_path / "base.frules").write_text(_REORDERED_RULES, encoding="utf-8")
    behaviors = tmp_path / "behaviors.csv"
    behaviors.write_text("learner_id,variable,value\n" + rows, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["classify", "--vars", str(tmp_path / "base.fvars"),
                 "--rules", str(tmp_path / "base.frules"),
                 "--behaviors", str(behaviors), "--out", str(out)])
    return code, out


def test_coverage_lists_missing_inputs_in_rule_order(tmp_path, capsys):
    code, out = _classify_reordered(tmp_path, "L1,c,50\n")
    assert code == 0
    assert "  missing L1: b, a" in (out / "coverage.txt").read_text().splitlines()
    assert (out / "failures.csv").read_text().splitlines()[1:] == [
        "L1,,learner 'L1' has no value for 'b'"
    ]


def test_classify_reports_failures_as_one_line_of_counts(tmp_path, capsys, caplog):
    rows = "L1,c,50\nL2,a,50\nL2,b,50\nL3,a,10\nL3,b,10\nL4,c,7\n"
    with caplog.at_level(logging.WARNING, logger="stylegroup"):
        code, out = _classify_reordered(tmp_path, rows)
    assert code == 0
    failed = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert failed == [
        "classification failed for 3 of 4 learners (2 missing a feature, "
        "1 with no rule fired), first: learner 'L1' has no value for 'b'; "
        "failures.csv lists each"
    ]
    assert len((out / "failures.csv").read_text().splitlines()) == 1 + 3
    with caplog.at_level(logging.INFO, logger="stylegroup"):
        _classify_reordered(tmp_path, rows)
    assert [m for m in caplog.messages if m.startswith("classification failed")] == [
        "classification failed: learner 'L1' has no value for 'b'",
        "classification failed: no rule fired for learner 'L2' in dimension 'processing'",
        "classification failed: learner 'L4' has no value for 'b'",
    ]


def test_simulate_then_classify_recovers_a_non_bundled_base(tmp_path, capsys):
    # The rules reference inputs out of declaration order, `calm` and `right`
    # have two producers each, and no two output terms share a shape.
    (tmp_path / "base.fvars").write_text(
        """
input x dim=processing universe=[0,10] { low=(0,0,2,4) mid=(3,4,6,7) high=(6,8,10,10) }
input y dim=processing universe=[0,10] { low=(0,0,2,4) high=(6,8,10,10) }
input z dim=processing universe=[0,10] { low=(0,0,2,4) high=(6,8,10,10) }
input u dim=perception universe=[0,20] { low=(0,0,5,8) high=(12,15,20,20) }
input v dim=perception universe=[0,20] { low=(0,0,5,8) high=(12,15,20,20) }
output processing_score dim=processing universe=[0,12] { calm=(0,0,4,6) busy=(6,8,12,12) }
output perception_score dim=perception universe=[0,10] { left=(0,0,3,5) right=(5,7,10,10) }
""", encoding="utf-8")
    (tmp_path / "base.frules").write_text(
        """
RULE p1: IF y IS low AND x IS low THEN processing_score IS calm
RULE p2: IF z IS high AND y IS low AND x IS mid THEN processing_score IS calm
RULE p3: IF y IS high THEN processing_score IS busy
RULE q1: IF v IS low THEN perception_score IS left
RULE q2: IF v IS high AND u IS low THEN perception_score IS right
RULE q3: IF v IS high AND u IS high THEN perception_score IS right
""", encoding="utf-8")
    spec = {"cohort": [{"signature": [p, q], "count": 6}
                       for p in ("calm", "busy") for q in ("left", "right")],
            "noise_sigma": 0.0}
    spec_path = tmp_path / "cohort.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    base = ["--vars", str(tmp_path / "base.fvars"), "--rules", str(tmp_path / "base.frules")]
    trees = []
    for run in ("run", "again"):
        sim, out = tmp_path / run / "sim", tmp_path / run / "out"
        assert main(["simulate", *base, "--cohort-spec", str(spec_path), "--seed", "4",
                     "--out", str(sim)]) == 0
        assert main(["classify", *base, "--behaviors", str(sim / "behaviors.csv"),
                     "--out", str(out)]) == 0
        trees.append({p.relative_to(tmp_path / run): p.read_bytes()
                      for p in sorted((tmp_path / run).rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    run = tmp_path / "run"
    truth = {row[0]: row[1:] for row in
             (line.split(",") for line in (run / "sim" / "truth.csv").read_text().splitlines()[1:])}
    labels: dict[str, list[str]] = {}
    for line in (run / "out" / "profiles.csv").read_text().splitlines()[1:]:
        learner, _, _, label = line.split(",")
        labels.setdefault(learner, []).append(label)
    assert len(truth) == 24
    assert labels == truth
    fired = {rule["rule_id"] for learner in json.loads((run / "out" / "profiles.json").read_text())
             for result in learner["results"] for rule in result["fired_rules"]}
    assert fired == {"p1", "p2", "p3", "q1", "q2", "q3"}  # both producers of a label planted
    assert (run / "out" / "failures.csv").read_text() == "learner_id,dimension,reason\n"
