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
        BehaviorRecord,
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
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(1, "file is empty") from None
        if [h.strip().lower() for h in header] != ["learner_id", "variable", "value"]:
            raise MalformedRowError(
                1, f"expected header 'learner_id,variable,value', got {','.join(header)!r}"
            )
        for line, row in enumerate(reader, start=2):
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

    records = []
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
        records.append(BehaviorRecord(learner_id=learner, features=features))
    return records, report
