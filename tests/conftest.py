import os
from pathlib import Path

import numpy as np
import pytest

from stylegroup.dsl import RuleBase, parse_rulebase, default_rulebase

# Child processes the tests start (`python -m stylegroup.cli`) import the
# package from this checkout, as the tests themselves do.
SRC = Path(__file__).resolve().parents[1] / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def rb() -> RuleBase:
    return default_rulebase()


@pytest.fixture
def mini_rulebase() -> RuleBase:
    """One dimension, one input with two terms meeting at 6, two rules."""
    return parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,4,8) high=(4,8,12,12) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) busy=(6,8,12,12) }

        RULE r_low: IF effort IS low THEN processing_score IS calm
        RULE r_high: IF effort IS high THEN processing_score IS busy
        """
    )


def riemann_centroid(envelope, lo: float, hi: float, points: int = 1_000_000) -> float:
    """Independent midpoint-Riemann centroid oracle over [lo, hi]."""
    edges = np.linspace(lo, hi, points + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    values = envelope(mids)
    total = values.sum()
    return float((mids * values).sum() / total)


def rule_strength(degrees) -> float:
    """Scalar Mamdani product: the reference for `kernel.firing_strengths`.

    Degrees multiply left to right, so the kernel's clause-order product
    must equal it bit for bit.
    """
    assert len(degrees) > 0, "a rule needs at least one antecedent clause"
    strength = 1.0
    for degree in degrees:
        strength *= degree
    return strength


def scaled_trap_envelope(contributions):
    """Max of strength-scaled trapezoids, written independently of the package.

    Uses the clip formulation rather than the package's masked branches.
    """

    def envelope(xs: np.ndarray) -> np.ndarray:
        env = np.zeros_like(xs, dtype=float)
        for strength, (a, b, c, d) in contributions:
            rising = np.clip((xs - a) / (b - a), 0.0, 1.0) if b > a else (xs >= a).astype(float)
            falling = np.clip((d - xs) / (d - c), 0.0, 1.0) if d > c else (xs <= d).astype(float)
            env = np.maximum(env, strength * np.minimum(rising, falling))
        return env

    return envelope


def reference_load_behaviors(path, variables, policy="clamp"):
    """Row-at-a-time behaviours loader: the oracle for `ingest.load_behaviors`.

    Every row is tested for blankness and stripped cell by cell before any
    check; values collect in learner -> variable -> list dictionaries.
    """
    import csv
    import math

    from stylegroup.ingest import (
        BehaviorTable,
        ClampReport,
        MalformedRowError,
        NonFiniteValueError,
        UndeclaredVariableError,
        ValueOutOfUniverseError,
    )

    def parse_float(line, text):
        try:
            value = float(text)
        except ValueError:
            raise MalformedRowError(line, f"value {text!r} is not a number") from None
        if not math.isfinite(value):
            raise NonFiniteValueError(f"line {line}: value {text!r} is not finite")
        return value

    by_name = {v.name: v for v in variables if v.kind == "input"}
    report = ClampReport()
    observations = {}
    def records(reader):
        """(line, row) from line 2 on; `csv.reader`'s error is a `MalformedRowError` of its record."""
        line = 1
        while True:
            line += 1
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise MalformedRowError(line, str(exc)) from None
            yield line, row

    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(1, "file is empty") from None
        except csv.Error as exc:
            raise MalformedRowError(1, str(exc)) from None
        if [h.strip().lower() for h in header] != ["learner_id", "variable", "value"]:
            raise MalformedRowError(
                1, f"expected header 'learner_id,variable,value', got {','.join(header)!r}"
            )
        for line, row in records(reader):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise MalformedRowError(line, f"expected 3 fields, got {len(row)}")
            learner, variable, raw_value = row[0].strip(), row[1].strip(), row[2].strip()
            if not learner:
                raise MalformedRowError(line, "empty learner_id")
            value = parse_float(line, raw_value)
            if variable not in by_name:
                if policy == "strict":
                    raise UndeclaredVariableError(
                        f"line {line}: variable {variable!r} is not declared"
                    )
                report.skipped_unknown.append((learner, variable))
                continue
            observations.setdefault(learner, {}).setdefault(variable, []).append(value)

    learners = []
    for learner, per_variable in observations.items():
        features = {}
        for variable, values in per_variable.items():
            spec = by_name[variable]
            if spec.aggregation == "sum":
                value = sum(values)
            elif spec.aggregation == "mean":
                value = sum(values) / len(values)
            else:
                value = max(values)
            if spec.max_expected is not None:
                value = value * 100.0 / spec.max_expected
            lo, hi = spec.universe
            if value < lo or value > hi:
                if policy == "strict":
                    raise ValueOutOfUniverseError(
                        f"{learner}: {variable}={value!r} outside its universe [{lo}, {hi}]"
                    )
                clamped = min(max(value, lo), hi)
                report.clamped.append((learner, variable, value, clamped))
                value = clamped
            features[variable] = value
        learners.append((learner, features))
    return BehaviorTable.of(learners), report


def learner_values(table):
    """Each learner of a `BehaviorTable` with the values it has: [(id, {variable: value})]."""
    return [
        (learner, {name: column[n] for name, column in table.columns.items()
                   if column[n] == column[n]})
        for n, learner in enumerate(table.ids)
    ]


def reference_csv_text(header, rows) -> str:
    """`csv.writer` quoting with "\\n" line ends: the oracle for `ingest.csv_text`.

    csv.writer quotes only for its own line end's characters: with "\\r\\n",
    a field holding "\\r" is quoted too. Outside quotes (after an even number
    of '"'), each "\\r\\n" ends a record and becomes "\\n".
    """
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    parts = buffer.getvalue().split('"')
    parts[::2] = [part.replace("\r\n", "\n") for part in parts[::2]]
    return '"'.join(parts)


def cohort_table(rows, rule_ids=None):
    """A `classify.CohortTable` of hand-written rows, each (learner id, results).

    A result is (dimension, crisp score, label, term memberships, fired
    rules), its fired rules (rule id, strength) pairs of nonzero strength.
    Every row lists the first row's dimensions, in that order. A column's
    rules are `rule_ids[dimension]`, or else those its rows name, in the
    order they first appear; a rule a row does not name has strength 0
    there. Each row has a result of its own.
    """
    from stylegroup.classify import CohortTable, _Column

    rows = list(rows)
    assert len({tuple(r[0] for r in results) for _, results in rows}) <= 1, "ragged rows"
    columns = []
    for cells in zip(*(results for _, results in rows)):
        dimension = cells[0][0]
        named = dict.fromkeys(rule for *_, fired in cells for rule, _ in fired)
        rules = tuple((rule_ids or {}).get(dimension, named))
        strengths = np.array(
            [[dict(fired).get(rule, 0.0) for rule in rules] for *_, fired in cells], float
        ).reshape(len(cells), len(rules))
        results = [(score, label, memberships) for _, score, label, memberships, _ in cells]
        codes = list(range(len(cells)))
        columns.append(_Column(dimension, results, codes, rules, strengths))
    return CohortTable([learner for learner, _ in rows], columns)


def table_rows(table):
    """Each row of a `classify.CohortTable`, in the form `cohort_table` takes.

    A row's fired rules are its column's rules of nonzero strength, in the
    column's rule order.
    """
    columns = []
    for column in table.columns:
        cells = []
        for code, strengths in zip(column.codes, column.strengths):
            score, label, memberships = column.results[code]
            fired = tuple(
                (rule, s) for rule, s in zip(column.rule_ids, map(float, strengths)) if s > 0.0
            )
            cells.append((column.dimension, score, label, memberships, fired))
        columns.append(cells)
    return [(learner, tuple(cells[n] for cells in columns)) for n, learner in enumerate(table.ids)]


def reference_profiles_csv(rows) -> str:
    """One `csv.writer` row per (learner, result): the oracle for `classify.profiles_to_csv`."""
    return reference_csv_text(
        ["learner_id", "dimension", "crisp_score", "label"],
        (
            (learner, dimension, repr(score), label)
            for learner, results in rows
            for dimension, score, label, _, _ in results
        ),
    )


def reference_profiles_to_json(rows) -> str:
    """One `json.dumps` per learner: the oracle for `classify.profiles_to_json`."""
    import json

    payload = (
        {
            "learner_id": learner,
            "results": [
                {
                    "dimension": dimension,
                    "crisp_score": score,
                    "label": label,
                    "term_memberships": memberships,
                    "fired_rules": [
                        {"rule_id": rule_id, "strength": strength} for rule_id, strength in fired
                    ],
                }
                for dimension, score, label, memberships, fired in results
            ],
        }
        for learner, results in rows
    )
    return "[\n" + ",\n".join(json.dumps(item, sort_keys=True) for item in payload) + "\n]\n"


def reference_generate(spec, rb):
    """Scalar draw loop: the oracle for the stream `simulate.generate` consumes.

    Every dimension draws its producing rule with `rng.integers`, even a
    sole producer, every clause draws `rng.normal(0.0, sd)` when noisy, and
    every input no chosen rule set gets `float(rng.uniform(lo, hi))`.
    Returns (truth, features per learner).
    """
    from stylegroup.rng import STREAM_BEHAVIOR, philox_rng

    dimensions = rb.dimensions()
    variables = {v.name: v for v in rb.variables}
    rng = philox_rng(spec.seed, STREAM_BEHAVIOR)
    width = max(4, len(str(spec.total)))
    truth, features = [], []
    for signature, count in spec.counts:
        for _ in range(count):
            learner_id = f"L{len(truth) + 1:0{width}d}"
            values = {}
            for dimension, label in zip(dimensions, signature):
                rules = [
                    rule for rule in rb.rules
                    if rule.dimension == dimension and rule.consequent[1] == label
                ]
                rule = rules[int(rng.integers(0, len(rules)))]
                for name, term in rule.antecedent:
                    lo, hi = variables[name].universe
                    value = variables[name].term(term).plateau_midpoint
                    if spec.noise_sigma > 0:
                        value += rng.normal(0.0, spec.noise_sigma * (hi - lo))
                    values[name] = min(max(value, lo), hi)
            for variable in rb.variables:
                if variable.kind == "input" and variable.name not in values:
                    values[variable.name] = float(rng.uniform(*variable.universe))
            truth.append((learner_id, signature))
            features.append((learner_id, values))
    return truth, features
