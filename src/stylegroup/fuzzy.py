"""Trapezoidal fuzzy sets, Mamdani product inference, centroid defuzzification.

A linguistic variable is a named variable over a closed universe whose values
("low", "medium", "much", ...) are trapezoidal fuzzy sets. Inference follows
the Mamdani product scheme: a rule's firing strength is the product of its
antecedent membership degrees, implication scales the consequent term by the
strength, and the per-rule outputs aggregate into one envelope by pointwise
max. The envelope collapses to a crisp score through its centre of gravity.

Inference runs on arrays. `RuleBase.compile_dimension` (`dsl`) resolves one
dimension's rules once into `CompiledRules`; `kernel.firing_strengths`,
`kernel.term_strengths` and `kernel.centroids` then handle a whole block of
inputs per call. `infer` and `defuzzify_centroid` wrap the same kernel for
one input and import it when called, so loading this module does not load
numpy.

All types are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


class FuzzyError(Exception):
    """Base class for inference failures."""


class OutOfUniverseError(FuzzyError):
    """A crisp value lies outside the variable's universe of discourse."""


class EmptyAntecedentError(FuzzyError):
    """A rule has no antecedent clauses, so it would fire for every input."""


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

    @property
    def plateau_midpoint(self) -> float:
        return (self.b + self.c) / 2.0

    def corners(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with a closed universe and ordered, labelled terms.

    The other fields hold the rest of its `.fvars` declaration (see `dsl`).
    """

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, Trapezoid], ...]
    kind: str = "input"  # "input" | "output"
    dimension: str | None = None
    aggregation: str = "sum"
    max_expected: float | None = None

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

    def fuzzify(self, x: float) -> dict[str, float]:
        """Membership degree of x in every term; degrees need not sum to 1."""
        lo, hi = self.universe
        if not lo <= x <= hi:
            raise OutOfUniverseError(
                f"{x} is outside the universe [{lo}, {hi}] of variable {self.name!r}"
            )
        return {label: trap.membership(x) for label, trap in self.terms}

    def classify(self, score: float) -> str:
        """Label of the term with maximal membership at the score.

        Ties break in favour of the earliest-declared term.
        """
        memberships = self.fuzzify(score)
        return max(memberships, key=memberships.__getitem__)


@dataclass(frozen=True)
class FuzzyOutput:
    """Aggregated inference result over one output variable.

    The envelope is the pointwise max of the strength-scaled consequent
    terms of every rule that fired; `fired` keeps (rule id, strength,
    consequent trapezoid) for strengths > 0.
    """

    variable: LinguisticVariable
    fired: tuple[tuple[str, float, Trapezoid], ...]


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


def infer(compiled: CompiledRules, inputs: Mapping[str, float]) -> FuzzyOutput:
    """Mamdani product inference of one input: one row of `kernel.firing_strengths`.

    An identically-zero envelope (no rule fired) is a valid result here;
    defuzzification reports it.
    """
    for name in compiled.inputs:
        if name not in inputs:
            raise MissingInputError(name)
    from . import kernel

    features = [[inputs[name] for name in compiled.inputs]]
    strengths = kernel.firing_strengths(compiled, features)[0].tolist()
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
    sampling grid (see `kernel.centroids`).
    """
    from . import kernel

    terms = [trap for _, _, trap in out.fired]
    scales = [[strength for _, strength, _ in out.fired]]
    crisp = float(kernel.centroids(out.variable.universe, terms, scales)[0])
    if math.isnan(crisp):
        raise NoRuleFiredError(
            f"output envelope of {out.variable.name!r} is identically zero"
        )
    return crisp
