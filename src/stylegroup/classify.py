"""Per-dimension fuzzy classification of learners and questionnaire validation.

`classify_cohort` is the one classify entry point; one learner is
`classify_cohort([record], rb)`. Each dimension compiles once
(`RuleBase.compile_dimension`), then all learners run through one
`kernel.score_block` call: Mamdani firing strengths, the exact centroid of the
output envelope as the crisp score, and as label the term of maximal
membership at that score. Classification is deterministic and per-learner
independent: cohort order never changes an individual profile.
"""

from __future__ import annotations

import json
import logging
import marshal
from itertools import compress
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .dsl import DIMENSIONS, RuleBase
from .fuzzy import CompiledRules, strongest_term
from .ingest import BehaviorRecord, IngestError, QuestionnaireRecord, csv_text
from .ingest import learner_rows, parse_float
from .stats import ZeroVarianceError, pearson_r

log = logging.getLogger(__name__)


class ClassificationError(Exception):
    """Base class for per-learner classification failures."""


class InsufficientPairsError(ClassificationError):
    def __init__(self, dimension: str, count: int):
        super().__init__(
            f"dimension {dimension!r} has {count} paired learners, need at least 3"
        )
        self.dimension = dimension


class DimensionResult(NamedTuple):
    dimension: str
    crisp_score: float
    label: str
    term_memberships: dict[str, float]
    fired_rules: tuple[tuple[str, float], ...]


class StyleProfile(NamedTuple):
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


class ClassificationFailure(NamedTuple):
    learner_id: str
    dimension: str | None
    reason: str


class _Dimension(NamedTuple):
    """One dimension as a `classify_cohort` call runs it.

    `columns` index the call's feature matrix in `compiled.inputs` order;
    `labels` memoises (memberships, label) per crisp score for this call.
    """

    name: str
    compiled: CompiledRules
    table: tuple  # kernel.term_table(compiled.variable)
    columns: list[int]
    labels: dict[float | str, tuple[dict[str, float], str]]


def classify_cohort(
    records: Iterable[BehaviorRecord], rb: RuleBase
) -> tuple[list[StyleProfile], list[ClassificationFailure]]:
    """Classify every learner independently; failures are collected, not fatal.

    The rule base compiles once; each dimension then runs through the array
    kernel in one pass over all learners. Work that depends only on the
    rule base (each output term's centroid) or on a crisp score
    (memberships and label) is done once per call. Cohort order never
    changes a profile.

    A learner gets a profile, or the failure of its first failing
    dimension. Within a dimension a missing feature (the first in
    rule/clause order) is reported before an empty envelope.
    """
    from . import kernel

    records = list(records)
    compiled = [(d, rb.compile_dimension(d)) for d in rb.dimensions()]
    names = list(dict.fromkeys(name for _, c in compiled for name in c.inputs))
    dimensions = [
        _Dimension(
            name=d,
            compiled=c,
            table=kernel.term_table(c.variable),
            columns=[names.index(name) for name in c.inputs],
            labels={},
        )
        for d, c in compiled
    ]
    values, missing = kernel.feature_matrix(names, [record.features for record in records])
    columns = [
        (
            dim,
            *kernel.score_block(
                dim.compiled,
                dim.table,
                values[:, dim.columns],
                missing[:, dim.columns],
            ),
        )
        for dim in dimensions
    ]
    profiles: list[StyleProfile] = []
    failures: list[ClassificationFailure] = []
    for n, learner_id in enumerate(record.learner_id for record in records):
        results = []
        for dim, first_missing, crisp, strengths in columns:
            if first_missing[n] >= 0:
                variable = dim.compiled.inputs[first_missing[n]]
                reason = f"learner {learner_id!r} has no value for {variable!r}"
                failures.append(ClassificationFailure(learner_id, None, reason))
                break
            score = crisp[n]
            if score != score:  # NaN: the envelope is empty
                reason = f"no rule fired for learner {learner_id!r} in dimension {dim.name!r}"
                failures.append(ClassificationFailure(learner_id, dim.name, reason))
                break
            key = score or score.hex()  # 0.0 and -0.0 are one float key, two hex strings
            if key not in dim.labels:
                memberships = dim.compiled.variable.fuzzify(score)
                dim.labels[key] = (memberships, strongest_term(memberships))
            memberships, label = dim.labels[key]
            # One row at a time: the whole N x R matrix as lists of floats would
            # outweigh the profiles. Strengths are products of memberships, so
            # nonzero means positive.
            row = strengths[n].tolist()
            fired = tuple(compress(zip(dim.compiled.rule_ids, row), row))
            results.append(DimensionResult(dim.name, score, label, dict(memberships), fired))
        else:  # no dimension failed
            profiles.append(StyleProfile(learner_id, tuple(results)))
    missing_count = sum(failure.dimension is None for failure in failures)
    log.info(
        "cohort: %d learners, %d classified, %d missing-feature, %d no-rule-fired, "
        "distinct crisp scores %s",
        len(records), len(profiles), missing_count, len(failures) - missing_count,
        ",".join(f"{dim.name}={len(dim.labels)}" for dim in dimensions),
    )
    return profiles, failures


# --------------------------------------------------------------------------
# Validation against questionnaire ground truth


class PairedRow(NamedTuple):
    learner_id: str
    dimension: str
    crisp_score: float
    questionnaire_score: float


class ValidationReport(NamedTuple):
    """Correlation between crisp scores and questionnaire scores.

    ``overall_r`` pools every paired (dimension, learner) row and is the
    canonical overall figure; the mean of the defined per-dimension
    coefficients is reported alongside. A coefficient over a constant
    sequence (a homogeneous cohort) is undefined and is None. The saved
    rows make every coefficient reproducible from the report alone.
    """

    per_dimension_r: dict[str, float | None]
    overall_r: float | None
    mean_dimension_r: float | None
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
    counted. Every dimension the profiles cover needs at least 3 pairs. A
    dimension whose crisp or questionnaire scores are constant gets None
    and a warning naming it, as does the pooled coefficient if its scores
    are.
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

    def correlation(rows: list[PairedRow], scope: str) -> float | None:
        try:
            return pearson_r(
                [row.crisp_score for row in rows], [row.questionnaire_score for row in rows]
            )
        except ZeroVarianceError as exc:
            log.warning("validation: %s: %s; its coefficient is null", scope, exc)
            return None

    per_dimension = {}
    for dimension in dimensions:
        dim_rows = [row for row in rows if row.dimension == dimension]
        if len(dim_rows) < 3:
            raise InsufficientPairsError(dimension, len(dim_rows))
        per_dimension[dimension] = correlation(dim_rows, f"dimension {dimension!r}")

    overall = correlation(rows, "all dimensions pooled")
    defined = [r for r in per_dimension.values() if r is not None]
    total_profile_entries = sum(len(p.results) for p in profiles)
    return ValidationReport(
        per_dimension_r=per_dimension,
        overall_r=overall,
        mean_dimension_r=sum(defined) / len(defined) if defined else None,
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


def profiles_from_csv(path: str | Path) -> list[StyleProfile]:
    """Rebuild profiles from the flat export (fired-rule detail is not kept there)."""
    grouped: dict[str, list[DimensionResult]] = {}
    for line, (_, dimension, crisp, label), learner in learner_rows(path, PROFILE_HEADER):
        score = parse_float(line, crisp, "crisp_score")
        grouped.setdefault(learner, []).append(DimensionResult(dimension, score, label, {}, ()))
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


# How `json.dumps` writes the non-finite floats; `repr` writes every other one.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _result_ends(dimension, score, label, memberships) -> tuple[str, str]:
    """A result object's text before and after its fired rules."""
    dumps = json.dumps
    return (
        f'{{"crisp_score": {dumps(score)}, "dimension": {dumps(dimension)}, "fired_rules": [',
        f'], "label": {dumps(label)}, '
        f'"term_memberships": {dumps(memberships, sort_keys=True)}}}',
    )


def profiles_to_json(profiles: Sequence[StyleProfile]) -> str:
    """Detailed export including fired rules and term memberships.

    A JSON array with one learner per line, each line what
    `json.dumps(..., sort_keys=True)` writes for
    `{"learner_id", "results": [{"crisp_score", "dimension", "fired_rules":
    [{"rule_id", "strength"}], "label", "term_memberships"}]}`.

    A result is written as a head (up to the fired rules) and a tail (after
    them), formatted once per distinct (dimension, crisp score, label,
    memberships) of the call. Per learner only the id and the fired
    strengths are formatted.
    """
    fragments: dict[bytes, tuple[str, str]] = {}
    prefixes: dict[str, str] = {}
    dumps = json.dumps
    lines = []
    for profile in profiles:
        parts = []
        for result in profile.results:
            try:
                # marshal writes each value's type and exact bits, so 0.0 and
                # -0.0, or 1 and 1.0, are two keys.
                key = marshal.dumps(result[:4], 2)
            except ValueError:  # a value marshal cannot write: format it here
                ends = _result_ends(*result[:4])
            else:
                ends = fragments.get(key)
                if ends is None:
                    ends = fragments[key] = _result_ends(*result[:4])
            rules = []
            for rule_id, strength in result.fired_rules:
                prefix = prefixes.get(rule_id)
                if prefix is None:
                    prefix = prefixes[rule_id] = f'{{"rule_id": {dumps(rule_id)}, "strength": '
                text = repr(strength) if type(strength) is float else dumps(strength)
                rules.append(prefix + _NON_FINITE.get(text, text) + "}")
            parts.append(ends[0] + ", ".join(rules) + ends[1])
        learner = dumps(profile.learner_id)
        lines.append(f'{{"learner_id": {learner}, "results": [{", ".join(parts)}]}}')
    log.info(
        "JSON export: %d learners, %d distinct results formatted",
        len(profiles), len(fragments),
    )
    return "[\n" + ",\n".join(lines) + "\n]\n"
