"""Which commands load numpy, and what a fresh `import stylegroup.cli` binds.

Each case runs in a fresh interpreter, because the test process itself has
numpy and every stylegroup module loaded already.
"""

import ast
import json
import os
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

# What decorating records with `dataclasses` would load (it imports `inspect`),
# and `decimal`, which only `dsl.pretty_print` needs.
NO_DATACLASSES = """
import sys
from stylegroup.cli import main
heavy = ("dataclasses", "inspect", "decimal")
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
assert "numpy.ma" not in sys.modules  # `np.unique` would load it, for about 10 ms
"""

# OpenBLAS starts no worker thread when `main` is the first to load numpy,
# unless the caller asked for BLAS threads; a caller's value is kept.
BLAS_THREADS = """
import os
import sys
from stylegroup.cli import main
behaviors, out = sys.argv[1:]
asked = os.environ.get("OPENBLAS_NUM_THREADS")
assert main(["classify", "--behaviors", behaviors, "--out", out]) == 0
assert "numpy" in sys.modules
assert os.environ["OPENBLAS_NUM_THREADS"] == (asked or "1")
if asked is None and os.path.isdir("/proc/self/task"):
    assert len(os.listdir("/proc/self/task")) == 1, os.listdir("/proc/self/task")
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


def _run(script, *args, env=None):
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env
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


def test_start_up_loads_no_dataclasses_or_inspect():
    _run(NO_DATACLASSES)


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


def _simulated_behaviors(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--cohort-spec", str(_cohort_spec(tmp_path, 3)),
                 "--seed", "1", "--out", str(sim)]) == 0
    return sim / "behaviors.csv"


def test_classify_loads_numpy_without_a_blas_thread(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    _run(BLAS_THREADS, _simulated_behaviors(tmp_path), tmp_path / "out", env=env)
    assert (tmp_path / "out" / "profiles.csv").exists()


def test_a_callers_blas_thread_setting_wins(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    _run(BLAS_THREADS, _simulated_behaviors(tmp_path), tmp_path / "out", env=env)


def test_in_process_main_leaves_the_environment_alone(monkeypatch):
    """Once numpy has loaded, the setting would reach only child processes: `main` skips it."""
    import numpy  # noqa: F401  (loaded in this process already, as for any library caller)

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["validate-rules"]) == 0
    assert dict(os.environ) == before


def test_no_module_calls_blas():
    """No `@`, `dot`, `einsum`, `linalg` and the like anywhere in the package.

    `cli.main` loads numpy with ``OPENBLAS_NUM_THREADS=1`` because no command
    calls BLAS. A module that adds such a call means revisiting that setting.
    """
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = node.module.split(".")
            else:
                names = []
            found += [f"{path.name}:{name}" for name in names if name == "@" or name in blas]
    assert found == []


# What `import stylegroup` offers: removing or adding an export edits this list.
PUBLIC_NAMES = [
    "BehaviorTable", "CohortSpec", "CohortTable", "DIMENSIONS", "GroupAssignment",
    "GroupingParams", "Learner", "LinguisticVariable", "QuestionnaireRecord", "RuleBase",
    "Sample", "ScoreModel", "Trapezoid", "assign_groups", "build_evaluation_report",
    "classify_cohort", "content_plan", "default_rulebase", "evaluation_samples",
    "feature_coverage", "generate", "generate_scores", "homogeneous_partition",
    "load_behaviors", "load_questionnaire", "load_rulebase", "normality_check",
    "one_way_anova", "parse_rulebase", "parse_rules", "parse_variables", "pearson_r",
    "posthoc_pairwise", "pretty_print", "reg_inc_beta", "satisfaction_score", "split_control",
    "two_sample_t", "validate", "validate_against_questionnaire", "weighted_mean",
]


def test_package_exports_exactly_its_public_names():
    import types

    import stylegroup

    exported = sorted(
        name for name, value in vars(stylegroup).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_import_binds_every_traced_function():
    """The benchmark traces only what `import stylegroup.cli` has loaded.

    `fuzzy.infer` and `fuzzy.defuzzify_centroid` are gone: inference runs only
    through `classify_cohort`, and `spans.install` skips a target that does not
    resolve. Once the benchmark drops both names from `TARGETS` (ROADMAP item
    6), this expectation goes back to `== []`.
    """
    result = _run(TRACE_TARGETS, SPANS)
    assert json.loads(result.stdout) == ["fuzzy:infer", "fuzzy:defuzzify_centroid"]


def _imports_of(tree: ast.Module, module: str) -> list[str | None]:
    """The function each import of `module` (or a submodule) in a package module runs in.

    None stands for module level. Relative imports resolve against the
    package, so ``from . import kernel`` imports ``stylegroup.kernel``. An
    import under ``if TYPE_CHECKING:`` never runs and is left out.
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
            base = ".".join(filter(None, ["stylegroup" if node.level else "", node.module]))
            modules = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            modules = []
        if any(name == module or name.startswith(module + ".") for name in modules):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _importers(trees: dict[str, ast.Module], module: str) -> set[tuple[str, str | None]]:
    """(file, function or None) for every import of `module` in the package."""
    return {(name, f) for name, tree in trees.items() for f in _imports_of(tree, module)}


def test_numpy_is_imported_only_by_the_kernel_and_philox_rng():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    assert _importers(trees, "numpy") == {("kernel.py", None), ("rng.py", "philox_rng")}
    # One inference path: only `classify_cohort` loads the kernel.
    assert _importers(trees, "stylegroup.kernel") == {("classify.py", "classify_cohort")}
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


def test_csv_is_imported_only_by_ingest():
    """One CSV layer: `ingest` writes with `csv_text` and reads with `learner_rows`."""
    importers, names = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
            else:
                modules = []
            if any(module.split(".")[0] == "csv" for module in modules):
                importers.add(path.name)
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.alias)):
                names.add(node.name)
    assert importers == {"ingest.py"}
    assert "csv_rows" not in names


def test_gc_is_imported_only_by_cli():
    """One collector policy, for a whole command process: `cli.run` turns the collector off."""
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
            else:
                continue
            if "gc" in modules:
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_samples_are_built_only_by_stats():
    """One path to the evaluation samples: `simulate` draws scores, `stats` labels them."""
    builders, simulate_imports = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Sample":
                    builders.add(path.name)
            if path.name != "simulate.py":
                continue
            if isinstance(node, ast.Import):
                simulate_imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                simulate_imports.add(node.module or "")
    assert builders == {"stats.py"}
    assert not [m for m in simulate_imports if m.split(".")[-1] == "stats"]


def test_no_module_imports_dataclasses():
    """Records are `NamedTuple`s or classes with `__slots__`: no class is generated at start-up."""
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
            else:
                modules = []
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                importers.add(path.name)
    assert importers == set()


def test_every_module_parses_as_python_3_10():
    """`requires-python` admits 3.10, so no module may use syntax added after it."""
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
