"""Which commands load numpy, and what a fresh `import stylegroup.cli` binds.

Each case runs in a fresh interpreter, because the test process itself has
numpy and every stylegroup module loaded already.
"""

import json
import subprocess
import sys
from pathlib import Path

from stylegroup.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import stylegroup
from stylegroup.cli import main
assignment, scores, out = sys.argv[1:]
assert main(["validate-rules"]) == 0
assert main(["evaluate", "--assignment", assignment, "--scores", scores, "--out", out]) == 0
"""

# The modules a second process for reading behaviours could have pulled in.
NO_PROCESS_POOL = """
import sys
from stylegroup.cli import main
heavy = ("pickle", "multiprocessing", "concurrent.futures")
assert not [name for name in heavy if name in sys.modules], sys.modules.keys() & set(heavy)
assert main(["validate-rules"]) == 0
assert not [name for name in heavy if name in sys.modules], sys.modules.keys() & set(heavy)
"""

CLASSIFY = """
import sys
from stylegroup.cli import main
behaviors, out = sys.argv[1:]
assert "numpy" not in sys.modules
assert main(["classify", "--behaviors", behaviors, "--out", out]) == 0
assert "numpy" in sys.modules
"""

TRACE_TARGETS = """
import importlib.util
import json
import sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import stylegroup.cli
unresolved = []
for module, attribute, _ in spans.TARGETS:
    owner = sys.modules.get(f"stylegroup.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part, None)
    if owner is None:
        unresolved.append(f"{module}:{attribute}")
print(json.dumps(unresolved))
"""


def _run(script, *args):
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result


def test_validate_rules_and_evaluate_run_without_numpy(tmp_path):
    assignment = tmp_path / "assignment.csv"
    scores = tmp_path / "scores.csv"
    members = [(f"g{g}_{i}", f"G{g}", 0) for g in (1, 2) for i in range(4)]
    members += [(f"c_{i}", "control", 1) for i in range(4)]
    assignment.write_text(
        "learner_id,group_id,is_control\n"
        + "".join(f"{lid},{gid},{ctl}\n" for lid, gid, ctl in members),
        encoding="utf-8",
    )
    scores.write_text(
        "learner_id,score\n"
        + "".join(
            f"{lid},{(12.0 if ctl else 17.5) + n % 4 * 0.3}\n"
            for n, (lid, _, ctl) in enumerate(members)
        ),
        encoding="utf-8",
    )
    _run(WITHOUT_NUMPY, assignment, scores, tmp_path / "out")
    assert (tmp_path / "out" / "evaluation.json").exists()


def test_start_up_loads_no_pickle_or_process_pool():
    _run(NO_PROCESS_POOL)


def test_classify_loads_numpy_on_its_first_array_call(tmp_path):
    spec = tmp_path / "cohort.json"
    spec.write_text(
        json.dumps(
            {"cohort": [{"signature": ["reactive", "sensory", "visual", "consecutive"], "count": 3}]}
        ),
        encoding="utf-8",
    )
    sim = tmp_path / "sim"
    assert main(["simulate", "--cohort-spec", str(spec), "--seed", "1", "--out", str(sim)]) == 0
    _run(CLASSIFY, sim / "behaviors.csv", tmp_path / "out")
    assert (tmp_path / "out" / "profiles.csv").exists()


def test_import_binds_every_traced_function():
    """The benchmark traces only what `import stylegroup.cli` has loaded."""
    result = _run(TRACE_TARGETS, SPANS)
    assert json.loads(result.stdout) == []
