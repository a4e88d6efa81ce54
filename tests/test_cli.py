import json

from stylegroup.cli import main
from stylegroup.dsl import default_rulebase, pretty_print

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
    assert "0 errors" in captured.out


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


def test_group_and_evaluate_reject_corrupt_rows(tmp_path, capsys):
    profiles = tmp_path / "profiles.csv"
    rows = [f"L{i},{d},{3.5 + i % 3},reactive" for i in range(12) for d in ("processing",)]
    rows[5] = "L5,processing,nan,reactive"
    profiles.write_text("learner_id,dimension,crisp_score,label\n" + "\n".join(rows) + "\n")
    assert main(["group", "--profiles", str(profiles), "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "learner 'L5': crisp score 'nan'" in capsys.readouterr().err

    assignment = tmp_path / "assignment.csv"
    assignment.write_text("learner_id,group_id,is_control\nL1,1,0\nL2,control,true\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("learner_id,score\nL1,10\nL2,12\n")
    argv = ["evaluate", "--assignment", str(assignment), "--scores", str(scores)]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "learner 'L2': is_control 'true' is not 0 or 1" in capsys.readouterr().err


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
