"""Trapezoidal fuzzy sets, linguistic variables and compiled rules for Mamdani inference.

A linguistic variable is a named variable over a closed universe whose values
("low", "medium", "much", ...) are trapezoidal fuzzy sets. Inference follows
the Mamdani product scheme: a rule's firing strength is the product of its
antecedent membership degrees, implication scales the consequent term by the
strength, and the per-rule outputs aggregate into one envelope by pointwise
max. The envelope collapses to a crisp score through its centre of gravity.

This module declares the types; inference itself runs on arrays, and only
through `classify.classify_cohort`. `RuleBase.compile_dimension` (`dsl`)
resolves one dimension's rules once into `CompiledRules`, and
`kernel.score_block` scores a whole block of inputs per call. Loading this
module does not load numpy.

All types are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from typing import NamedTuple


class FuzzyError(Exception):
    """Base class for inference failures."""


class OutOfUniverseError(FuzzyError):
    """A crisp value lies outside the variable's universe of discourse."""


class EmptyAntecedentError(FuzzyError):
    """A rule has no antecedent clauses, so it would fire for every input."""


class _Corners(NamedTuple):
    a: float
    b: float
    c: float
    d: float


class Trapezoid(_Corners):
    """Trapezoidal fuzzy number (a, b, c, d).

    Membership is 0 outside [a, d], 1 on the plateau [b, c], and linear on
    the ramps [a, b] and [c, d]. A degenerate ramp (a == b or c == d)
    behaves as a step.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float, d: float):
        if not (a <= b <= c <= d):
            raise ValueError(
                f"trapezoid corners must satisfy a <= b <= c <= d, "
                f"got ({a}, {b}, {c}, {d})"
            )
        return tuple.__new__(cls, (a, b, c, d))

    @classmethod
    def _make(cls, corners):  # `_replace` builds through here; check its corners too
        return cls(*corners)

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


class _Declaration(NamedTuple):
    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, Trapezoid], ...]
    kind: str  # "input" | "output"
    dimension: str | None
    aggregation: str
    max_expected: float | None


class LinguisticVariable(_Declaration):
    """A named variable with a closed universe and ordered, labelled terms.

    The other fields hold the rest of its `.fvars` declaration (see `dsl`).
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        universe: tuple[float, float],
        terms: tuple[tuple[str, Trapezoid], ...],
        kind: str = "input",
        dimension: str | None = None,
        aggregation: str = "sum",
        max_expected: float | None = None,
    ):
        universe = tuple(universe)
        terms = tuple(tuple(t) for t in terms)
        lo, hi = universe
        if not lo < hi:
            raise ValueError(f"variable {name!r}: universe bounds must satisfy lo < hi")
        if not terms:
            raise ValueError(f"variable {name!r} declares no terms")
        seen = set()
        for label, trap in terms:
            if label in seen:
                raise ValueError(f"variable {name!r}: duplicate term {label!r}")
            seen.add(label)
            if trap.a < lo or trap.d > hi:
                raise ValueError(
                    f"variable {name!r}: term {label!r} extends outside "
                    f"the universe [{lo}, {hi}]"
                )
        return tuple.__new__(
            cls, (name, universe, terms, kind, dimension, aggregation, max_expected)
        )

    @classmethod
    def _make(cls, fields):  # `_replace` builds through here; check its fields too
        return cls(*fields)

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


def strongest_term(memberships: dict[str, float]) -> str:
    """The term of maximal membership; ties break in favour of the earliest-declared term."""
    return max(memberships, key=memberships.__getitem__)


class CompiledRules(NamedTuple):
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

