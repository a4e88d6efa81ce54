import json

import pytest

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
