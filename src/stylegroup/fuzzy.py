"""Trapezoidal fuzzy sets, Mamdani product inference, centroid defuzzification.

A linguistic variable is a named variable over a closed universe whose values
("low", "medium", "much", ...) are trapezoidal fuzzy sets. Inference follows
the Mamdani product scheme: a rule's firing strength is the product of its
antecedent membership degrees, implication scales the consequent term by the
strength, and the per-rule outputs aggregate into one envelope by pointwise
max. The envelope collapses to a crisp score through its centre of gravity.

Inference runs on arrays: `compile_rules` resolves one dimension's rules
once, then `firing_strengths`, `term_strengths` and `centroids` handle a
whole block of inputs per call. `infer` and `defuzzify_centroid` are the
one-input case of the same kernel.

All types are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Integrated envelope area below this is treated as "no rule fired".
ZERO_AREA_TOL = 1e-12


class FuzzyError(Exception):
    """Base class for inference failures."""


class OutOfUniverseError(FuzzyError):
    """A crisp value lies outside the variable's universe of discourse."""


class EmptyAntecedentError(FuzzyError):
    """A firing strength was requested for an empty antecedent."""


class MissingInputError(FuzzyError):
    """A rule references an input variable with no supplied value."""

    def __init__(self, variable: str):
        super().__init__(f"no value supplied for input variable {variable!r}")
        self.variable = variable


class NoRuleFiredError(FuzzyError):
    """The aggregated output envelope is identically zero."""


@dataclass(frozen=True)
class Trapezoid:
    """Trapezoidal fuzzy number (a, b, c, d).

    Membership is 0 outside [a, d], 1 on the plateau [b, c], and linear on
    the ramps [a, b] and [c, d]. A degenerate ramp (a == b or c == d)
    behaves as a step.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(
                f"trapezoid corners must satisfy a <= b <= c <= d, "
                f"got ({self.a}, {self.b}, {self.c}, {self.d})"
            )

    def membership(self, x: float) -> float:
        """Degree of membership of x, exact at the corner points."""
        if x < self.a or x > self.d:
            return 0.0
        if self.b <= x <= self.c:
            return 1.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)

    def membership_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership over an array of points."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        out[(xs >= self.a) & (xs <= self.d)] = 1.0
        if self.b > self.a:
            rise = (xs >= self.a) & (xs < self.b)
            out[rise] = (xs[rise] - self.a) / (self.b - self.a)
        if self.d > self.c:
            fall = (xs > self.c) & (xs <= self.d)
            out[fall] = (self.d - xs[fall]) / (self.d - self.c)
        return out

    @property
    def plateau_midpoint(self) -> float:
        return (self.b + self.c) / 2.0

    def corners(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with a closed universe and ordered, labelled terms."""

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, Trapezoid], ...]

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        lo, hi = self.universe
        if not lo < hi:
            raise ValueError(f"variable {self.name!r}: universe bounds must satisfy lo < hi")
        if not self.terms:
            raise ValueError(f"variable {self.name!r} declares no terms")
        seen = set()
        for label, trap in self.terms:
            if label in seen:
                raise ValueError(f"variable {self.name!r}: duplicate term {label!r}")
            seen.add(label)
            if trap.a < lo or trap.d > hi:
                raise ValueError(
                    f"variable {self.name!r}: term {label!r} extends outside "
                    f"the universe [{lo}, {hi}]"
                )

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.terms)

    def term(self, label: str) -> Trapezoid:
        for term_label, trap in self.terms:
            if term_label == label:
                return trap
        raise KeyError(f"variable {self.name!r} has no term {label!r}")

    def _require_in_universe(self, x: float) -> None:
        lo, hi = self.universe
        if not lo <= x <= hi:
            raise OutOfUniverseError(
                f"{x} is outside the universe [{lo}, {hi}] of variable {self.name!r}"
            )

    def fuzzify(self, x: float) -> dict[str, float]:
        """Membership degree of x in every term; degrees need not sum to 1."""
        self._require_in_universe(x)
        return {label: trap.membership(x) for label, trap in self.terms}

    def classify(self, score: float) -> str:
        """Label of the term with maximal membership at the score.

        Ties break in favour of the earliest-declared term.
        """
        self._require_in_universe(score)
        best_label = self.terms[0][0]
        best = -1.0
        for label, trap in self.terms:
            degree = trap.membership(score)
            if degree > best:
                best = degree
                best_label = label
        return best_label


def rule_strength(degrees: Sequence[float]) -> float:
    """Mamdani product: firing strength is the product of all antecedent degrees."""
    if len(degrees) == 0:
        raise EmptyAntecedentError("rule has no antecedent clauses")
    strength = 1.0
    for degree in degrees:
        strength *= degree
    return strength


@dataclass(frozen=True)
class InferenceRule:
    """One IF/THEN rule bound to concrete variables and term labels."""

    rule_id: str
    antecedent: tuple[tuple[LinguisticVariable, str], ...]
    consequent_variable: LinguisticVariable
    consequent_term: str


@dataclass(frozen=True)
class FuzzyOutput:
    """Aggregated inference result over one output variable.

    The envelope is the pointwise max of the strength-scaled consequent
    terms of every rule that fired; `fired` keeps (rule id, strength,
    consequent trapezoid) for strengths > 0.
    """

    variable: LinguisticVariable
    fired: tuple[tuple[str, float, Trapezoid], ...]

    def envelope(self, x: float) -> float:
        value = 0.0
        for _, strength, trap in self.fired:
            value = max(value, strength * trap.membership(x))
        return value

    @property
    def is_empty(self) -> bool:
        return not self.fired


@dataclass(frozen=True)
class CompiledRules:
    """One output variable's rules, resolved once for inference over many inputs.

    `inputs` names the feature columns in the order the rules and their
    clauses first reference them, so the first missing column is the first
    missing variable a rule-by-rule, clause-by-clause walk would meet.
    """

    rule_ids: tuple[str, ...]
    inputs: tuple[str, ...]
    clauses: tuple[tuple[tuple[int, Trapezoid], ...], ...]  # per rule: (column, term)
    consequents: tuple[int, ...]  # per rule: index into variable.terms
    variable: LinguisticVariable


def compile_rules(rules: Sequence[InferenceRule]) -> CompiledRules:
    """Resolve one dimension's rules into feature columns and term indices."""
    if not rules:
        raise ValueError("cannot infer from an empty rule list")
    out_var = rules[0].consequent_variable
    for rule in rules:
        if rule.consequent_variable.name != out_var.name:
            raise ValueError("all rules passed to infer must share one output variable")
        if not rule.antecedent:
            raise EmptyAntecedentError(f"rule {rule.rule_id!r} has no antecedent clauses")
    term_index = {label: i for i, (label, _) in enumerate(out_var.terms)}
    columns: dict[str, int] = {}
    clauses = tuple(
        tuple(
            (columns.setdefault(variable.name, len(columns)), variable.term(label))
            for variable, label in rule.antecedent
        )
        for rule in rules
    )
    return CompiledRules(
        rule_ids=tuple(rule.rule_id for rule in rules),
        inputs=tuple(columns),
        clauses=clauses,
        consequents=tuple(term_index[rule.consequent_term] for rule in rules),
        variable=out_var,
    )


def firing_strengths(compiled: CompiledRules, features: np.ndarray) -> np.ndarray:
    """N x R Mamdani product strengths for an N x len(inputs) feature matrix.

    Degrees multiply in clause order, as in `rule_strength`, so every
    strength equals the scalar product bit for bit.
    """
    strengths = np.ones((features.shape[0], len(compiled.clauses)))
    for r, clauses in enumerate(compiled.clauses):
        for column, term in clauses:
            strengths[:, r] *= term.membership_grid(features[:, column])
    return strengths


def term_strengths(compiled: CompiledRules, strengths: np.ndarray) -> np.ndarray:
    """N x T scale of each output term: the max strength of the rules concluding it.

    Scaling is monotone, so max over rules of s * term(x) equals
    (max s) * term(x) exactly and the envelope is unchanged.
    """
    scales = np.zeros((strengths.shape[0], len(compiled.variable.terms)))
    consequents = np.asarray(compiled.consequents)
    for t in np.unique(consequents):
        scales[:, t] = strengths[:, consequents == t].max(axis=1)
    return scales


def centroids(
    universe: tuple[float, float], terms: Sequence[Trapezoid], scales: np.ndarray
) -> np.ndarray:
    """Exact centre of gravity of max_t scales[n, t] * terms[t](x), per row n.

    Each envelope is linear between its breakpoints: the universe bounds,
    the term corners, and the crossings of every pair of scaled terms. The
    corners are shared by all rows; the crossings are closed-form per
    segment between corners, one slot per (pair, segment), and a slot with
    no crossing holds the segment start (a zero-width segment). Both
    moments are then integrated exactly from two interior samples per
    segment, so step edges (one-sided limits) need no special case.

    Rows whose envelope area is below ZERO_AREA_TOL come back as NaN.
    """
    lo, hi = universe
    corners = np.array([trap.corners() for trap in terms], dtype=float).reshape(-1)
    base = np.unique(np.clip(np.concatenate(([lo, hi], corners)), lo, hi))
    x0, x1 = base[:-1], base[1:]
    third = (x1 - x0) / 3.0
    q1, q2 = x0 + third, x0 + 2.0 * third
    mu1 = np.array([trap.membership_grid(q1) for trap in terms]).reshape(len(terms), x0.size)
    mu2 = np.array([trap.membership_grid(q2) for trap in terms]).reshape(len(terms), x0.size)

    first, second = np.triu_indices(len(terms), k=1)
    fs, gs = scales[:, first, None], scales[:, second, None]
    d1 = fs * mu1[first] - gs * mu1[second]
    d2 = fs * mu2[first] - gs * mu2[second]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = q1 - d1 * (q2 - q1) / (d2 - d1)
    inside = (d1 != d2) & (crossing > x0) & (crossing < x1)
    crossing = np.where(inside, crossing, x0)
    rows = scales.shape[0]
    nodes = np.concatenate(
        (np.broadcast_to(base, (rows, base.size)), crossing.reshape(rows, -1)), axis=1
    )
    nodes.sort(axis=1)

    x0, x1 = nodes[:, :-1], nodes[:, 1:]
    h = x1 - x0
    third = h / 3.0
    yq1 = _envelope(terms, scales, x0 + third)
    yq2 = _envelope(terms, scales, x1 - third)
    # One-sided limits at the segment ends, extrapolated from the interior
    # samples; the envelope is linear on each open segment.
    y0 = 2.0 * yq1 - yq2
    y1 = 2.0 * yq2 - yq1
    area = np.sum(h * (y0 + y1) / 2.0, axis=1)
    first_moment = np.sum(h * x0 * (y0 + y1) / 2.0 + h * h * (y0 + 2.0 * y1) / 6.0, axis=1)
    return np.divide(
        first_moment, area, out=np.full(rows, np.nan), where=area >= ZERO_AREA_TOL
    )


def _envelope(terms: Sequence[Trapezoid], scales: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise max of the scaled terms at an N x K array of points."""
    env = np.zeros(xs.shape)
    for t, trap in enumerate(terms):
        np.maximum(env, scales[:, t, None] * trap.membership_grid(xs), out=env)
    return env


def infer(rules: Sequence[InferenceRule], inputs: Mapping[str, float]) -> FuzzyOutput:
    """Run Mamdani product inference for one dimension's rules and one input.

    An identically-zero envelope (no rule fired) is a valid result here;
    defuzzification reports it.
    """
    compiled = compile_rules(rules)
    for name in compiled.inputs:
        if name not in inputs:
            raise MissingInputError(name)
    features = np.array([[inputs[name] for name in compiled.inputs]], dtype=float)
    strengths = firing_strengths(compiled, features)[0].tolist()
    terms = compiled.variable.terms
    return FuzzyOutput(
        variable=compiled.variable,
        fired=tuple(
            (rule_id, strength, terms[t][1])
            for rule_id, strength, t in zip(compiled.rule_ids, strengths, compiled.consequents)
            if strength > 0.0
        ),
    )


def defuzzify_centroid(out: FuzzyOutput) -> float:
    """Centre-of-gravity of the output envelope over the variable's universe.

    Computes integral(x * env(x)) / integral(env(x)) exactly, with no
    sampling grid (see `centroids`).
    """
    terms = [trap for _, _, trap in out.fired]
    scales = np.array([[strength for _, strength, _ in out.fired]], dtype=float)
    crisp = centroids(out.variable.universe, terms, scales)[0]
    if np.isnan(crisp):
        raise NoRuleFiredError(
            f"output envelope of {out.variable.name!r} is identically zero"
        )
    return float(crisp)
