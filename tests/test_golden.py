"""Golden output trees: fixed command runs against a committed table of digests.

Each case runs the command line in fresh processes and compares every
command's exit code, stdout and stderr, and the sha256 of every file it
wrote, with `tests/data/golden.json`. So a change that claims to keep the
outputs byte-identical proves it here. The digests depend on the float
results of Python and numpy, so the table records both versions, and the
test names them when they differ from the running ones.

Regenerate the table (only for an intended change of output) with:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TABLE = ROOT / "tests" / "data" / "golden.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --write"

# Two rule prototypes of the bundled base (proc1, perc1, ent1, und1 and
# proc5, perc5, ent5, und5), as (variable, value) in declaration order.
_FIRST = (
    ("discussion_participation", 12.5), ("chat_participation", 12.5),
    ("troubleshooting_participation", 90), ("test_time", 10), ("training_time", 10),
    ("connected_people", 4.5), ("theory_time", 10), ("lesson_time", 90), ("exam_time", 90),
    ("studied_examples", 90), ("example_difficulty", 90), ("system_requests", 90),
    ("audio_time", 10), ("text_time", 10), ("video_time", 90),
    ("reviewed_examples", 10), ("topic_searches", 10), ("summary_time", 10),
)
_LAST = (
    ("discussion_participation", 1.5), ("chat_participation", 1.5),
    ("troubleshooting_participation", 10), ("test_time", 90), ("training_time", 90),
    ("connected_people", 0.5), ("theory_time", 90), ("lesson_time", 10), ("exam_time", 10),
    ("studied_examples", 10), ("example_difficulty", 10), ("system_requests", 10),
    ("audio_time", 90), ("text_time", 90), ("video_time", 10),
    ("reviewed_examples", 90), ("topic_searches", 90), ("summary_time", 90),
)
# Ids as a behaviours file quotes them; three need quoting.
_IDS = ('"Smith, J"', '"the ""ace"""', '"two\r\nlines"', "L04", "L05", "L06",
        "L07", "L08", "L09", "L10", "L11", "L12", "L13", "L14")


def _behaviors() -> str:
    """A hand-written behaviours log.

    Learners interleave (the rows run variable by variable), `test_time`
    comes in two rows a learner, one total is clamped to its universe, one
    variable is undeclared, L13 has no `video_time` and L14 fires no
    entrance rule.
    """
    lines = ["learner_id,variable,value"]
    for k, (name, _) in enumerate(_FIRST):
        for n, learner in enumerate(_IDS):
            value = (_FIRST if n % 2 == 0 else _LAST)[k][1] + 0.25 * (n % 3)
            if learner == "L13" and name == "video_time":
                continue
            if learner == "L14" and name in ("audio_time", "text_time", "video_time"):
                value = 50
            if name == "test_time":
                lines.append(f"{learner},{name},{value / 2!r}")
                value /= 2
            if learner == "L05" and name == "discussion_participation":
                value += 9  # a total above the universe's 15
            lines.append(f"{learner},{name},{value!r}")
    lines.append("L04,forum_posts,3")
    return "\r\n".join(lines) + "\r\n"


def _scores() -> str:
    rows = [f"{learner},{10 + (n * 7) % 9}.5" for n, learner in enumerate(_IDS)]
    return "learner_id,score\n" + "\n".join(rows) + "\n"


# The raw-logs case: a seeded event log of about 3 MiB, so its read spans
# several 1 MiB pieces.
_EVENT_IDS = [f"R{n:04d}" for n in range(1, 171)]


def _event_log() -> str:
    """Each learner's features near one of two prototypes, split into 10-40 rows.

    A learner's rows come in shuffled order, so keys repeat out of order.
    One total is clamped to its universe, every learner has two rows of an
    undeclared variable, and one row is blank.
    """
    rng = random.Random(22)
    lines = ["learner_id,variable,value"]
    for n, learner in enumerate(_EVENT_IDS):
        rows = []
        for name, value in (_FIRST if rng.random() < 0.5 else _LAST):
            total = value * rng.uniform(0.85, 1.1)
            if n == 7 and name == "exam_time":
                total = 112.5  # above the universe's 100
            weights = [rng.random() + 0.05 for _ in range(rng.randint(10, 40))]
            rows.extend(f"{learner},{name},{w * total / sum(weights)!r}" for w in weights)
        rows.extend(f"{learner},forum_posts,{rng.uniform(0, 30)!r}" for _ in range(2))
        rng.shuffle(rows)
        lines.extend(rows)
        if n == 70:
            lines.append("")
    return "\n".join(lines) + "\n"


def _event_questionnaire() -> str:
    rng = random.Random(23)
    rows = [f"{learner},{dimension},{rng.uniform(0, 11)!r}" for learner in _EVENT_IDS
            for dimension in ("processing", "perception", "entrance", "understanding")]
    return "learner_id,dimension,score\n" + "\n".join(rows) + "\n"


def _event_scores() -> str:
    rng = random.Random(24)
    rows = [f"{learner},{rng.gauss(15.0, 2.5)!r}" for learner in _EVENT_IDS]
    return "learner_id,score\n" + "\n".join(rows) + "\n"


def _event_satisfaction() -> str:
    rng = random.Random(25)
    rows = [",".join([learner, *(str(rng.randint(1, 5)) for _ in range(7))])
            for learner in _EVENT_IDS]
    return "learner_id,q1,q2,q3,q4,q5,q6,q7\n" + "\n".join(rows) + "\n"


# The wide-cohort case: 30 learners of every signature the bundled
# labeller can emit (3 x 3 x 3 x 2), at noise 0.10, so grouping merges
# about 50 times and some learners fire no rule.
_WIDE_SIGNATURES = list(itertools.product(
    ("reactive", "reactive_reflective", "reflection"),
    ("sensory", "sensory_intuitive", "intuitive"),
    ("visual", "visual_verbal", "verbal"),
    ("consecutive", "sequential_global"),
))


def _wide_cohort() -> str:
    spec = {
        "cohort": [{"signature": list(s), "count": 30} for s in _WIDE_SIGNATURES],
        "noise_sigma": 0.10,
        "score_model": {"treated_mean": 17.65, "control_mean": 12.6, "sigma": 2.5},
    }
    return json.dumps(spec, indent=2) + "\n"


def _bundled(name: str) -> str:
    return (SRC / "stylegroup" / "data" / name).read_text(encoding="utf-8")


def _ceilings_fvars() -> str:
    text = _bundled("default.fvars")
    for name, ceiling in (("test_time", 7), ("theory_time", 45), ("audio_time", 7)):
        text = re.sub(rf"^(input {name} dim=\w+)$", rf"\1 max_expected={ceiling}", text,
                      flags=re.M)
    return text


# Per case: the inputs to write, then the commands to run in order.
CASES = {
    "pipeline-seed-42": ({}, [["pipeline", "--seed", "42", "--out", "out"]]),
    "staged-hand-written": (
        {"behaviors.csv": _behaviors, "scores.csv": _scores},
        [
            ["classify", "--behaviors", "behaviors.csv", "--out", "out"],
            ["group", "--profiles", "out/profiles.csv", "--seed", "3", "--control-fraction",
             "0.2", "--target-k", "2", "--min-size", "2", "--out", "out"],
            ["evaluate", "--assignment", "out/assignment.csv", "--scores", "scores.csv",
             "--out", "out"],
        ],
    ),
    "pipeline-max-expected": (
        {"base.fvars": _ceilings_fvars, "base.frules": lambda: _bundled("default.frules")},
        [["pipeline", "--vars", "base.fvars", "--rules", "base.frules", "--seed", "8",
          "--out", "out"]],
    ),
    "staged-event-log": (
        {"behaviors.csv": _event_log, "questionnaire.csv": _event_questionnaire,
         "scores.csv": _event_scores, "satisfaction.csv": _event_satisfaction},
        [
            ["classify", "--behaviors", "behaviors.csv", "--questionnaire",
             "questionnaire.csv", "--out", "out"],
            ["group", "--profiles", "out/profiles.csv", "--seed", "5", "--out", "out"],
            ["evaluate", "--assignment", "out/assignment.csv", "--scores", "scores.csv",
             "--satisfaction", "satisfaction.csv", "--out", "out"],
        ],
    ),
    "pipeline-wide-cohort-seed-5": (
        {"cohort.json": _wide_cohort},
        [["pipeline", "--cohort-spec", "cohort.json", "--seed", "5", "--out", "out"]],
    ),
}


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def run_case(name: str) -> dict:
    """Each command's exit code, stdout and stderr, then the digest of every file under out/."""
    inputs, commands = CASES[name]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("STYLEGROUP_LOG", None)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file_name, text in inputs.items():
            (root / file_name).write_bytes(text().encode("utf-8"))
        runs = []
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "stylegroup.cli", *argv],
                cwd=root, env=env, capture_output=True, text=True,
            )
            runs.append({"argv": argv, "code": done.returncode, "stdout": done.stdout,
                         "stderr": done.stderr})
        files = {
            path.relative_to(root / "out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((root / "out").rglob("*")) if path.is_file()
        }
    return {"commands": runs, "files": files}


@pytest.fixture(scope="module")
def table() -> dict:
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    versions = {key: recorded[key] for key in ("python", "numpy")}
    if versions != _versions():
        pytest.fail(
            f"golden digests were recorded with Python {versions['python']}, numpy "
            f"{versions['numpy']}; this is Python {platform.python_version()}, numpy "
            f"{numpy.__version__}. Regenerate them at an unchanged commit with: {REGENERATE}"
        )
    return recorded["cases"]


@pytest.mark.parametrize("name", list(CASES))
def test_output_tree_matches_the_golden_digests(table, name):
    assert run_case(name) == table[name]


def test_output_trees_do_not_depend_on_the_hash_seed(tmp_path):
    """A `pipeline`, then a `classify` of the behaviours it wrote, under two hash seeds."""
    inputs, [pipeline] = CASES["pipeline-wide-cohort-seed-5"]
    classify = ["classify", "--behaviors", "out/behaviors.csv", "--out", "staged"]
    trees = []
    for hash_seed in ("0", "1"):
        root = tmp_path / hash_seed
        root.mkdir()
        for file_name, text in inputs.items():
            (root / file_name).write_bytes(text().encode("utf-8"))
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        env.pop("STYLEGROUP_LOG", None)
        for argv in (pipeline, classify):
            done = subprocess.run([sys.executable, "-m", "stylegroup.cli", *argv],
                                  cwd=root, env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
        assert (root / "staged" / "profiles.csv").is_file()
        trees.append({path.relative_to(root).as_posix(): path.read_bytes()
                      for path in sorted(root.rglob("*")) if path.is_file()})
    assert trees[0] == trees[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    payload = {**_versions(), "cases": {name: run_case(name) for name in CASES}}
    TABLE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}")
