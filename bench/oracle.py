"""Independent reference computations for the benchmark's output checks.

Nothing here imports the package under test. The rule base is read from
the bundled ``.fvars``/``.frules`` text with a small parser of its own, and
memberships, labels and centroids are computed from their definitions:

- a trapezoid (a, b, c, d) has membership 0 outside [a, d], 1 on [b, c] and
  is linear on the ramps;
- a rule's firing strength is the product of its clause memberships;
- the output envelope is the pointwise max of strength-scaled consequent
  terms, and the crisp score is its centre of gravity;
- the label is the term of maximal membership at the crisp score, ties to
  the earliest-declared term.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_UNIVERSE = (0.0, 100.0)
DEFAULT_TERMS = (
    ("low", (0.0, 0.0, 25.0, 40.0)),
    ("medium", (25.0, 40.0, 60.0, 75.0)),
    ("much", (60.0, 75.0, 100.0, 100.0)),
)
DIMENSIONS = ("processing", "perception", "entrance", "understanding")

# Cells per universe in the dense-grid centroid. Every term corner is a
# cell edge, so the midpoint rule is exact on the envelope's linear pieces
# and only the crossings of scaled terms leave an O(h^2) error.
CENTROID_CELLS = 24_000
ZERO_AREA = 1e-12


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    dimension: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, tuple[float, float, float, float]], ...]
    aggregation: str = "sum"
    max_expected: float | None = None

    def term(self, label: str) -> tuple[float, float, float, float]:
        return dict(self.terms)[label]


@dataclass(frozen=True)
class Rule:
    rule_id: str
    antecedent: tuple[tuple[str, str], ...]
    output: str
    label: str


@dataclass(frozen=True)
class RuleBase:
    variables: dict[str, Variable]
    rules: tuple[Rule, ...]

    def inputs(self) -> list[Variable]:
        return [v for v in self.variables.values() if v.kind == "input"]

    def output(self, dimension: str) -> Variable:
        return next(
            v for v in self.variables.values() if v.kind == "output" and v.dimension == dimension
        )

    def dimensions(self) -> tuple[str, ...]:
        present = {self.variables[r.output].dimension for r in self.rules}
        return tuple(d for d in DIMENSIONS if d in present)

    def rules_for(self, dimension: str) -> list[Rule]:
        return [r for r in self.rules if self.variables[r.output].dimension == dimension]

    def producers(self, dimension: str, label: str) -> list[Rule]:
        return [r for r in self.rules_for(dimension) if r.label == label]


_NUMBER = r"-?(?:\d+\.\d*|\.\d+|\d+)"
_TERM_RE = re.compile(
    rf"([A-Za-z_]\w*)\s*=\s*\(\s*({_NUMBER})\s*,\s*({_NUMBER})\s*,\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\)"
)
_RULE_RE = re.compile(
    r"^\s*rule\s+(\w+)\s*:\s*if\s+(.*?)\s+then\s+(\w+)\s+is\s+(\w+)\s*$", re.IGNORECASE
)
_CLAUSE_RE = re.compile(r"^\s*(\w+)\s+is\s+(\w+)\s*$", re.IGNORECASE)


def _lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_rulebase(fvars: str, frules: str) -> RuleBase:
    variables: dict[str, Variable] = {}
    for line in _lines(fvars):
        head, _, rest = line.partition("{")
        words = head.split()
        attrs = dict(
            (k.lower(), v) for k, v in re.findall(r"(\w+)\s*=\s*(\[[^\]]*\]|[^\s]+)", head)
        )
        universe = DEFAULT_UNIVERSE
        if "universe" in attrs:
            lo, hi = (float(x) for x in attrs["universe"].strip("[]").split(","))
            universe = (lo, hi)
        terms = tuple(
            (m[0], (float(m[1]), float(m[2]), float(m[3]), float(m[4])))
            for m in _TERM_RE.findall(rest)
        ) or DEFAULT_TERMS
        variables[words[1]] = Variable(
            name=words[1],
            kind=words[0].lower(),
            dimension=attrs["dim"].lower(),
            universe=universe,
            terms=terms,
            aggregation=attrs.get("agg", "sum").lower(),
            max_expected=float(attrs["max_expected"]) if "max_expected" in attrs else None,
        )
    rules = []
    for line in _lines(frules):
        match = _RULE_RE.match(line)
        if match is None:
            raise ValueError(f"unreadable rule line: {line!r}")
        clauses = tuple(
            _CLAUSE_RE.match(part).groups()
            for part in re.split(r"\s+and\s+", match[2], flags=re.IGNORECASE)
        )
        rules.append(Rule(match[1], clauses, match[3], match[4]))
    return RuleBase(variables=variables, rules=tuple(rules))


def load_bundled(src: Path) -> RuleBase:
    data = src / "stylegroup" / "data"
    return parse_rulebase(
        (data / "default.fvars").read_text(encoding="utf-8"),
        (data / "default.frules").read_text(encoding="utf-8"),
    )


def membership(trap: tuple[float, float, float, float], x: float) -> float:
    a, b, c, d = trap
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def label_at(var: Variable, score: float) -> str:
    best_label, best = var.terms[0][0], -1.0
    for label, trap in var.terms:
        degree = membership(trap, score)
        if degree > best:
            best_label, best = label, degree
    return best_label


def _membership_grid(trap, xs: np.ndarray) -> np.ndarray:
    a, b, c, d = trap
    rising = np.clip((xs - a) / (b - a), 0.0, 1.0) if b > a else (xs >= a).astype(float)
    falling = np.clip((d - xs) / (d - c), 0.0, 1.0) if d > c else (xs <= d).astype(float)
    return np.minimum(rising, falling)


class CentroidOracle:
    """Dense-grid centroid per (features, dimension), cached per output variable grid."""

    def __init__(self, rb: RuleBase):
        self.rb = rb
        self._grids: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _grid(self, var: Variable) -> tuple[np.ndarray, np.ndarray]:
        if var.name not in self._grids:
            lo, hi = var.universe
            h = (hi - lo) / CENTROID_CELLS
            corners = sorted({lo, hi, *(p for _, t in var.terms for p in t if lo < p < hi)})
            edges = np.concatenate(
                [
                    np.linspace(x0, x1, max(1, math.ceil((x1 - x0) / h)) + 1)[:-1]
                    for x0, x1 in zip(corners, corners[1:])
                ]
                + [np.array([hi])]
            )
            mids = (edges[:-1] + edges[1:]) / 2.0
            self._grids[var.name] = (mids, np.diff(edges))
        return self._grids[var.name]

    def strengths(self, dimension: str, features: dict[str, float]) -> list[tuple[float, str]]:
        fired = []
        for rule in self.rb.rules_for(dimension):
            strength = 1.0
            for name, label in rule.antecedent:
                strength *= membership(self.rb.variables[name].term(label), features[name])
            if strength > 0.0:
                fired.append((strength, rule.label))
        return fired

    def centroid(self, dimension: str, features: dict[str, float]) -> float | None:
        """Crisp score, or None when the envelope is empty."""
        var = self.rb.output(dimension)
        mids, widths = self._grid(var)
        env = np.zeros_like(mids)
        for strength, label in self.strengths(dimension, features):
            np.maximum(env, strength * _membership_grid(var.term(label), mids), out=env)
        area = float(np.sum(env * widths))
        if area < ZERO_AREA:
            return None
        return float(np.sum(mids * env * widths)) / area


def aggregate_behaviors(path: Path, rb: RuleBase) -> dict[str, dict[str, float]]:
    """Per-learner features from a long-format CSV, as the file format defines them.

    Repeated rows aggregate by the variable's mode in file order, declared
    ceilings rescale to percent, values clamp into the universe and
    undeclared variables are skipped.
    """
    observations: dict[str, dict[str, list[float]]] = {}
    inputs = {v.name: v for v in rb.inputs()}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if not row:
                continue
            learner, name, value = row[0].strip(), row[1].strip(), row[2].strip()
            if name in inputs:
                observations.setdefault(learner, {}).setdefault(name, []).append(float(value))
    features = {}
    for learner, per_var in observations.items():
        out = {}
        for name, values in per_var.items():
            var = inputs[name]
            if var.aggregation == "sum":
                value = sum(values)
            elif var.aggregation == "mean":
                value = sum(values) / len(values)
            else:
                value = max(values)
            if var.max_expected is not None:
                value = value * 100.0 / var.max_expected
            lo, hi = var.universe
            out[name] = min(max(value, lo), hi)
        features[learner] = out
    return features

