"""Per-dimension fuzzy classification of learners and questionnaire validation.

`classify_cohort` is the one classify entry point; one learner is
`classify_cohort([record], rb)`. Each dimension compiles once
(`RuleBase.compile_dimension`), then blocks of learners run through
`kernel.score_block`: Mamdani firing strengths, the exact centroid of the
output envelope as the crisp score, and as label the term of maximal
membership at that score. Classification is deterministic and per-learner
independent: cohort order never changes an individual profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dsl import DIMENSIONS, RuleBase
from .fuzzy import CompiledRules
from .ingest import BehaviorRecord, IngestError, QuestionnaireRecord, csv_rows, csv_text
from .stats import pearson_r


class ClassificationError(Exception):
    """Base class for per-learner classification failures."""


class MissingFeatureError(ClassificationError):
    def __init__(self, learner_id: str, variable: str):
        super().__init__(f"learner {learner_id!r} has no value for {variable!r}")
        self.learner_id = learner_id
        self.variable = variable


class NoRuleFiredError(ClassificationError):
    def __init__(self, learner_id: str, dimension: str):
        super().__init__(
            f"no rule fired for learner {learner_id!r} in dimension {dimension!r}"
        )
        self.learner_id = learner_id
        self.dimension = dimension


class InsufficientPairsError(ClassificationError):
    def __init__(self, dimension: str, count: int):
        super().__init__(
            f"dimension {dimension!r} has {count} paired learners, need at least 3"
        )
        self.dimension = dimension


@dataclass(frozen=True)
class DimensionResult:
    dimension: str
    crisp_score: float
    label: str
    term_memberships: dict[str, float]
    fired_rules: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class StyleProfile:
    """One learner's result per dimension, in fixed dimension order."""

    learner_id: str
    results: tuple[DimensionResult, ...]

    def result(self, dimension: str) -> DimensionResult:
        for result in self.results:
            if result.dimension == dimension:
                return result
        raise KeyError(f"profile of {self.learner_id!r} has no dimension {dimension!r}")

    @property
    def signature(self) -> tuple[str, ...]:
        return tuple(result.label for result in self.results)


@dataclass(frozen=True)
class ClassificationFailure:
    learner_id: str
    dimension: str | None
    reason: str


# Learners per kernel pass: bounds the (learners x centroid nodes) arrays, so
# peak memory stays flat in the cohort size.
_BLOCK = 256


def _classify_block(
    records: Sequence[BehaviorRecord], dimensions: tuple[tuple[str, CompiledRules], ...]
) -> list[StyleProfile | ClassificationError]:
    """One outcome per record: its profile, or the error of its first failing dimension.

    Within a dimension a missing feature (the first in rule/clause order)
    is reported before an empty envelope.
    """
    from . import kernel

    features = [record.features for record in records]
    columns = [
        (dimension, compiled, *kernel.score_block(compiled, features))
        for dimension, compiled in dimensions
    ]

    def result(n: int, learner_id: str, column) -> DimensionResult:
        dimension, compiled, first_missing, crisp, strengths = column
        if first_missing[n] >= 0:
            raise MissingFeatureError(learner_id, compiled.inputs[first_missing[n]])
        if crisp[n] != crisp[n]:  # NaN: the envelope is empty
            raise NoRuleFiredError(learner_id, dimension)
        memberships = compiled.variable.fuzzify(crisp[n])
        return DimensionResult(
            dimension=dimension,
            crisp_score=crisp[n],
            # as `LinguisticVariable.classify`: the first term of maximal membership
            label=max(memberships, key=memberships.__getitem__),
            term_memberships=memberships,
            fired_rules=tuple(
                (rule_id, strength)
                for rule_id, strength in zip(compiled.rule_ids, strengths[n])
                if strength > 0.0
            ),
        )

    outcomes: list[StyleProfile | ClassificationError] = []
    for n, record in enumerate(records):
        try:
            results = tuple(result(n, record.learner_id, column) for column in columns)
        except ClassificationError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(StyleProfile(learner_id=record.learner_id, results=results))
    return outcomes


def classify_cohort(
    records: Iterable[BehaviorRecord], rb: RuleBase
) -> tuple[list[StyleProfile], list[ClassificationFailure]]:
    """Classify every learner independently; failures are collected, not fatal.

    The rule base compiles once; learners then run through the array
    kernel in fixed-size blocks. Cohort order never changes a profile.
    """
    records = list(records)
    dimensions = tuple((d, rb.compile_dimension(d)) for d in rb.dimensions())
    profiles = []
    failures = []
    for start in range(0, len(records), _BLOCK):
        block = records[start : start + _BLOCK]
        for record, outcome in zip(block, _classify_block(block, dimensions)):
            if isinstance(outcome, StyleProfile):
                profiles.append(outcome)
            else:
                dimension = outcome.dimension if isinstance(outcome, NoRuleFiredError) else None
                failures.append(ClassificationFailure(record.learner_id, dimension, str(outcome)))
    return profiles, failures


# --------------------------------------------------------------------------
# Validation against questionnaire ground truth


@dataclass(frozen=True)
class PairedRow:
    learner_id: str
    dimension: str
    crisp_score: float
    questionnaire_score: float


@dataclass(frozen=True)
class ValidationReport:
    """Correlation between crisp scores and questionnaire scores.

    ``overall_r`` pools every paired (dimension, learner) row and is the
    canonical overall figure; the mean of the per-dimension coefficients
    is reported alongside. The saved rows make every coefficient
    reproducible from the report alone.
    """

    per_dimension_r: dict[str, float]
    overall_r: float
    mean_dimension_r: float
    rows: tuple[PairedRow, ...]
    unmatched_profile_entries: int
    unmatched_questionnaire_entries: int

    def to_json_dict(self) -> dict:
        return {
            "per_dimension_r": dict(self.per_dimension_r),
            "overall_r": self.overall_r,
            "mean_dimension_r": self.mean_dimension_r,
            "unmatched_profile_entries": self.unmatched_profile_entries,
            "unmatched_questionnaire_entries": self.unmatched_questionnaire_entries,
            "rows": [
                {
                    "learner_id": row.learner_id,
                    "dimension": row.dimension,
                    "crisp_score": row.crisp_score,
                    "questionnaire_score": row.questionnaire_score,
                }
                for row in self.rows
            ],
        }


def validate_against_questionnaire(
    profiles: Sequence[StyleProfile],
    questionnaire: Sequence[QuestionnaireRecord],
) -> ValidationReport:
    """Pearson correlation per dimension plus the pooled overall coefficient.

    Learners appearing in only one source are dropped (inner join) and
    counted. Every dimension the profiles cover needs at least 3 pairs.
    """
    scores = {
        (record.learner_id, record.dimension): record.score for record in questionnaire
    }
    dimensions = [
        d for d in DIMENSIONS if any(r.dimension == d for p in profiles for r in p.results)
    ]

    rows = []
    matched_keys = set()
    for dimension in dimensions:
        for profile in profiles:
            key = (profile.learner_id, dimension)
            if key in scores:
                matched_keys.add(key)
                rows.append(
                    PairedRow(
                        learner_id=profile.learner_id,
                        dimension=dimension,
                        crisp_score=profile.result(dimension).crisp_score,
                        questionnaire_score=scores[key],
                    )
                )

    per_dimension = {}
    for dimension in dimensions:
        dim_rows = [row for row in rows if row.dimension == dimension]
        if len(dim_rows) < 3:
            raise InsufficientPairsError(dimension, len(dim_rows))
        per_dimension[dimension] = pearson_r(
            [row.crisp_score for row in dim_rows],
            [row.questionnaire_score for row in dim_rows],
        )

    overall = pearson_r(
        [row.crisp_score for row in rows],
        [row.questionnaire_score for row in rows],
    )
    total_profile_entries = sum(len(p.results) for p in profiles)
    return ValidationReport(
        per_dimension_r=per_dimension,
        overall_r=overall,
        mean_dimension_r=sum(per_dimension.values()) / len(per_dimension),
        rows=tuple(rows),
        unmatched_profile_entries=total_profile_entries - len(rows),
        unmatched_questionnaire_entries=len(scores) - len(matched_keys),
    )


# --------------------------------------------------------------------------
# Export


PROFILE_HEADER = ["learner_id", "dimension", "crisp_score", "label"]


def profiles_to_csv(profiles: Sequence[StyleProfile]) -> str:
    """Flat export: one row per (learner, dimension)."""
    return csv_text(
        PROFILE_HEADER,
        (
            (profile.learner_id, result.dimension, repr(result.crisp_score), result.label)
            for profile in profiles
            for result in profile.results
        ),
    )


def profiles_from_csv(text: str) -> list[StyleProfile]:
    """Rebuild profiles from the flat export (fired-rule detail is not kept there)."""
    rows = csv_rows(text)
    if not rows or rows[0] != PROFILE_HEADER:
        raise IngestError("not a profile export: bad header")
    grouped: dict[str, list[DimensionResult]] = {}
    for row in rows[1:]:
        if len(row) != len(PROFILE_HEADER):
            raise IngestError(
                f"learner {row[0]!r}: profile row has {len(row)} fields, "
                f"expected {len(PROFILE_HEADER)}"
            )
        learner_id, dimension, crisp, label = row
        if not learner_id.strip():
            raise IngestError(f"learner {learner_id!r}: empty learner id")
        try:
            score = float(crisp)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise IngestError(
                f"learner {learner_id!r}: crisp score {crisp!r} for {dimension!r} "
                "is not a finite number"
            )
        grouped.setdefault(learner_id, []).append(
            DimensionResult(
                dimension=dimension,
                crisp_score=score,
                label=label,
                term_memberships={},
                fired_rules=(),
            )
        )
    profiles = [StyleProfile(learner_id=lid, results=tuple(r)) for lid, r in grouped.items()]
    # Grouping compares crisp-score vectors position by position.
    expected = [r.dimension for r in profiles[0].results] if profiles else []
    for profile in profiles:
        found = [r.dimension for r in profile.results]
        if found != expected:
            raise IngestError(
                f"learner {profile.learner_id!r}: dimensions {', '.join(found)} "
                f"differ from the first learner's {', '.join(expected)}"
            )
    # Every learner lists the first one's dimensions, so a repeat shows there.
    repeated = [d for n, d in enumerate(expected) if d in expected[:n]]
    if repeated:
        raise IngestError(
            f"learner {profiles[0].learner_id!r}: dimension {repeated[0]!r} listed twice"
        )
    return profiles


def profiles_to_json(profiles: Sequence[StyleProfile]) -> str:
    """Detailed export including fired rules and term memberships.

    A JSON array with one learner per line: compact objects keep the C
    encoder in use and the file diffable line by line.
    """
    payload = (
        {
            "learner_id": profile.learner_id,
            "results": [
                {
                    "dimension": result.dimension,
                    "crisp_score": result.crisp_score,
                    "label": result.label,
                    "term_memberships": result.term_memberships,
                    "fired_rules": [
                        {"rule_id": rule_id, "strength": strength}
                        for rule_id, strength in result.fired_rules
                    ],
                }
                for result in profile.results
            ],
        }
        for profile in profiles
    )
    return "[\n" + ",\n".join(json.dumps(item, sort_keys=True) for item in payload) + "\n]\n"
