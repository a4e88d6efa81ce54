"""Which commands load numpy, and what a fresh `import stylegroup.cli` binds.

Each case runs in a fresh interpreter, because the test process itself has
numpy and every stylegroup module loaded already.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from stylegroup.cli import main
from stylegroup.rng import STREAM_CONTROL, philox_rng

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "stylegroup"

WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import stylegroup
from stylegroup.cli import main
assignment, scores, profiles, out = sys.argv[1:]
assert main(["validate-rules"]) == 0
assert main(["evaluate", "--assignment", assignment, "--scores", scores, "--out", out]) == 0
assert main(["group", "--profiles", profiles, "--seed", "3", "--min-size", "2",
             "--control-fraction", "0.25", "--out", out]) == 0
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
    """`group` too: its control draw is pure Python and equals numpy's."""
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
    sim = tmp_path / "sim"
    assert main(["simulate", "--cohort-spec", str(_cohort_spec(tmp_path, 12)),
                 "--seed", "1", "--out", str(sim)]) == 0
    assert main(["classify", "--behaviors", str(sim / "behaviors.csv"), "--out", str(sim)]) == 0
    out = tmp_path / "out"
    _run(WITHOUT_NUMPY, assignment, scores, sim / "profiles.csv", out)
    assert (out / "evaluation.json").exists()
    rows = (sim / "profiles.csv").read_text().splitlines()[1:]
    learners = list(dict.fromkeys(row.split(",")[0] for row in rows))
    control = [line.split(",")[0] for line in (out / "assignment.csv").read_text().splitlines()
               if line.endswith(",control,1")]
    drawn = philox_rng(3, STREAM_CONTROL).choice(len(learners), size=len(control), replace=False)
    assert set(control) == {learners[i] for i in drawn.tolist()}


def test_start_up_loads_no_pickle_or_process_pool():
    _run(NO_PROCESS_POOL)


def _cohort_spec(tmp_path, count):
    spec = tmp_path / "cohort.json"
    signature = ["reactive", "sensory", "visual", "consecutive"]
    spec.write_text(
        json.dumps({"cohort": [{"signature": signature, "count": count}]}), encoding="utf-8"
    )
    return spec


def test_classify_loads_numpy_on_its_first_array_call(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--cohort-spec", str(_cohort_spec(tmp_path, 3)),
                 "--seed", "1", "--out", str(sim)]) == 0
    _run(CLASSIFY, sim / "behaviors.csv", tmp_path / "out")
    assert (tmp_path / "out" / "profiles.csv").exists()


def test_import_binds_every_traced_function():
    """The benchmark traces only what `import stylegroup.cli` has loaded."""
    result = _run(TRACE_TARGETS, SPANS)
    assert json.loads(result.stdout) == []


def _numpy_imports(tree: ast.Module) -> list[str | None]:
    """The function each numpy import of a module runs in; None at module level.

    An import under ``if TYPE_CHECKING:`` never runs and is left out.
    """
    found = []

    def visit(node, function):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "numpy" for module in modules):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_numpy_is_imported_only_by_the_kernel_and_philox_rng():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    imports = {name: _numpy_imports(tree) for name, tree in trees.items()}
    assert sorted(name for name, found in imports.items() if None in found) == ["kernel.py"]
    in_functions = {(name, f) for name, found in imports.items() for f in found if f is not None}
    assert in_functions == {("rng.py", "philox_rng")}
    named = set()
    for node in ast.walk(trees["grouping.py"]):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            named.update(node.module.split("."))
    assert not named & {"numpy", "philox_rng"}
