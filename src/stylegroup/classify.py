"""Per-dimension fuzzy classification of learners and questionnaire validation.

`classify_cohort(behaviors, rb)`, over an `ingest.BehaviorTable`, is the one
classify entry point. Each dimension compiles once
(`RuleBase.compile_dimension`), then the matrix of its input columns runs
through one `kernel.score_block` call: Mamdani firing strengths, the exact
centroid of the output envelope as the crisp score, and as label the term of
maximal membership at that score. Classification is deterministic and per-learner
independent: cohort order never changes a learner's results.
"""

from __future__ import annotations

import json
import logging
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import fuzzy, stats
from .ingest import BehaviorTable, IngestError, QuestionnaireRecord, csv_field, csv_line
from .ingest import learner_rows, parse_float

if TYPE_CHECKING:
    from .dsl import RuleBase

log = logging.getLogger(__name__)

# What `json.dumps` writes for a str, and with `sort_keys=True` for anything.
_JSON_STR = json.encoder.encode_basestring_ascii
_SORTED_JSON = json.JSONEncoder(sort_keys=True).encode


class ClassificationError(Exception):
    """Base class for per-learner classification failures."""


class InsufficientPairsError(ClassificationError):
    def __init__(self, dimension: str, count: int):
        super().__init__(
            f"dimension {dimension!r} has {count} paired learners, need at least 3"
        )
        self.dimension = dimension


class ClassificationFailure(NamedTuple):
    learner_id: str
    dimension: str | None
    reason: str


class _Column(NamedTuple):
    dimension: str
    results: list[tuple]  # (crisp_score, label, term_memberships)
    codes: list[int]  # per row: its index into `results`
    rule_ids: tuple[str, ...]
    strengths: Sequence  # per row: the strength of each rule of `rule_ids`

    def cells(self, k: int) -> Iterator:
        """Per row, field k of its result: 0 crisp score, 1 label."""
        return map([result[k] for result in self.results].__getitem__, self.codes)


# Grouping compares crisp-score vectors by position, so every row lists the same dimensions.
def _check_dimensions(learners: Iterable[tuple[str, list[str]]]) -> None:
    """Refuse (learner id, dimensions) pairs unless all list the first one's, once each."""
    learners = iter(learners)
    first, expected = next(learners, (None, []))
    for learner, found in learners:
        if found != expected:
            raise IngestError(
                f"learner {learner!r}: dimensions {', '.join(found)} "
                f"differ from the first learner's {', '.join(expected)}"
            )
    # Every learner lists the first one's dimensions, so a repeat shows there.
    repeated = [d for n, d in enumerate(expected) if d in expected[:n]]
    if repeated:
        raise IngestError(f"learner {first!r}: dimension {repeated[0]!r} listed twice")


class CohortTable:
    """Classified learners by columns: what every later stage reads.

    It holds the learner ids and one `_Column` per dimension, in rule-base
    order; every row has a result in each, and rows may share a result of a
    column. Row n's fired rules are the rules of `rule_ids` with a nonzero
    `strengths[n]`. `classify_cohort` builds a table from the kernel's
    strength matrix; `profiles_from_csv` builds one with no rules and empty
    memberships, as `profiles.csv` keeps neither.
    """

    __slots__ = ("ids", "columns")

    def __init__(self, ids: list[str], columns: list[_Column]):
        self.ids, self.columns = ids, columns

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, k: int) -> Iterator[tuple]:
        """Per row, field k of each of its results, as `_Column.cells`."""
        cells = [column.cells(k) for column in self.columns]
        return zip(*cells) if cells else repeat((), len(self))

    def result_count(self) -> int:
        return len(self) * len(self.columns)


def classify_cohort(
    behaviors: BehaviorTable, rb: RuleBase
) -> tuple[CohortTable, list[ClassificationFailure]]:
    """Classify every learner independently; failures are collected, not fatal.

    The rule base compiles once; each dimension then runs through the array
    kernel in one pass over all learners. The classified learners come
    back as one `CohortTable`, with per dimension the crisp scores, the
    kernel's strength matrix and, once per distinct crisp score, the
    memberships and the label. Cohort order never changes a learner's row.

    A learner gets a row, or the failure of its first failing dimension.
    Within a dimension a missing feature (the first in rule/clause order;
    NaN, or a column the table lacks) is reported before an empty envelope.
    A repeated learner id is a `ValueError`: grouping keys learners by id.
    """
    ids = behaviors.ids
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for learner_id in ids:
            if learner_id in seen:
                raise ValueError(f"learner {learner_id!r} is listed twice in the behaviours")
            seen.add(learner_id)
    from . import kernel

    np = kernel.np  # numpy through the kernel, the one module that imports it
    compiled = [(d, rb.compile_dimension(d)) for d in rb.dimensions()]
    blocks = []
    failed: dict[int, ClassificationFailure] = {}  # by row, for the first failing dimension
    for dimension, c in compiled:
        # N x len(c.inputs) (never 0: a rule has clauses); `fromiter` converts faster than `array`
        columns = [np.fromiter(behaviors.column(name), float, len(ids)) for name in c.inputs]
        first_missing, crisp, strengths = kernel.score_block(c, np.array(columns).T)
        for n in ((first_missing >= 0) | (crisp != crisp)).nonzero()[0].tolist():
            if n in failed:
                continue
            learner_id = ids[n]
            if first_missing[n] >= 0:
                reason = f"learner {learner_id!r} has no value for {c.inputs[first_missing[n]]!r}"
                failed[n] = ClassificationFailure(learner_id, None, reason)
            else:  # a NaN crisp score: the envelope is empty
                reason = f"no rule fired for learner {learner_id!r} in dimension {dimension!r}"
                failed[n] = ClassificationFailure(learner_id, dimension, reason)
        blocks.append((dimension, c, crisp, strengths))
    rows = [n for n in range(len(ids)) if n not in failed]
    columns = []
    for dimension, c, crisp, strengths in blocks:
        # Memberships and label once per distinct crisp score; the bits key keeps -0.0 from 0.0
        crisp = crisp[rows]
        bits = crisp.view("int64").tolist()
        score_of = dict(zip(bits, crisp.tolist()))
        codes = list(map({key: code for code, key in enumerate(score_of)}.__getitem__, bits))
        results = []
        for score in score_of.values():
            memberships = c.variable.fuzzify(score)
            results.append((score, fuzzy.strongest_term(memberships), memberships))
        columns.append(_Column(dimension, results, codes, c.rule_ids, strengths[rows]))
    table = CohortTable([ids[n] for n in rows], columns)
    failures = [failed[n] for n in sorted(failed)]
    missing_count = sum(failure.dimension is None for failure in failures)
    log.info(
        "cohort: %d learners, %d classified, %d missing-feature, %d no-rule-fired, "
        "distinct crisp scores %s",
        len(ids), len(table), missing_count, len(failures) - missing_count,
        ",".join(f"{column.dimension}={len(column.results)}" for column in table.columns),
    )
    return table, failures


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
            "rows": [row._asdict() for row in self.rows],
        }


def validate_against_questionnaire(
    table: CohortTable, questionnaire: Sequence[QuestionnaireRecord]
) -> ValidationReport:
    """Pearson correlation per dimension plus the pooled overall coefficient.

    Learners appearing in only one source are dropped (inner join) and
    counted. Every dimension of the table needs at least 3 pairs, also
    where it has no rows. A dimension whose crisp or questionnaire scores
    are constant gets None and a warning naming it, as does the pooled
    coefficient if its scores are.
    """
    scores = {(record.learner_id, record.dimension): record.score for record in questionnaire}
    dimensions = [column.dimension for column in table.columns]
    rows = []
    matched_keys = set()
    for column in table.columns:
        for learner_id, score in zip(table.ids, column.cells(0)):
            key = (learner_id, column.dimension)
            if key in scores:
                matched_keys.add(key)
                rows.append(PairedRow(*key, score, scores[key]))

    def correlation(rows: list[PairedRow], scope: str) -> float | None:
        try:
            return stats.pearson_r(
                [row.crisp_score for row in rows], [row.questionnaire_score for row in rows]
            )
        except stats.ZeroVarianceError as exc:
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
    return ValidationReport(
        per_dimension_r=per_dimension,
        overall_r=overall,
        mean_dimension_r=sum(defined) / len(defined) if defined else None,
        rows=tuple(rows),
        unmatched_profile_entries=table.result_count() - len(rows),
        unmatched_questionnaire_entries=len(scores) - len(matched_keys),
    )


# One `PairedRow` as `json.dumps(..., indent=2, sort_keys=True)` writes it in the rows list.
_PAIRED_ROW = (
    '    {\n      "crisp_score": %s,\n      "dimension": %s,\n'
    '      "learner_id": %s,\n      "questionnaire_score": %s\n    }'
)


def _json_numbers(values: Iterable) -> list[str]:
    """What `json.dumps` writes for each number: a finite float is its repr."""
    return [repr(x) if type(x) is float and x - x == 0.0 else json.dumps(x) for x in values]


def _json_strs(values: Iterable) -> list[str]:
    """What `json.dumps` writes for each value: a str goes through the C escaper."""
    return [_JSON_STR(v) if type(v) is str else json.dumps(v) for v in values]


def validation_to_json(report: ValidationReport) -> str:
    """validation.json: `json.dumps(report.to_json_dict(), indent=2, sort_keys=True)` and a newline.

    The top-level keys go through `json.dumps`; each row fills one template,
    which spares the pure-Python encoder that `indent` selects.
    """
    text = json.dumps(report._replace(rows=()).to_json_dict(), indent=2, sort_keys=True) + "\n"
    if not report.rows:
        return text
    learners, dimensions, crisp, questionnaire = zip(*report.rows)
    dimension_json = {d: json.dumps(d) for d in set(dimensions)}
    cells = zip(
        _json_numbers(crisp),
        map(dimension_json.__getitem__, dimensions),
        _json_strs(learners),
        _json_numbers(questionnaire),
    )
    rows = ",\n".join(map(_PAIRED_ROW.__mod__, cells))
    # Only top-level keys sit at indent 2, and JSON strings escape newlines: one match.
    return text.replace('\n  "rows": [],', '\n  "rows": [\n' + rows + "\n  ],", 1)


# --------------------------------------------------------------------------
# Export


PROFILE_HEADER = ["learner_id", "dimension", "crisp_score", "label"]


def profiles_to_csv(table: CohortTable) -> str:
    """Flat export: one row per (learner, dimension).

    Each result's `,dimension,crisp_score,label` text is formatted once per
    column; per learner only the id is.
    """
    ids = list(map(csv_field, table.ids))
    cells: list[Iterable[str]] = []
    for column in table.columns:
        d = column.dimension
        ends = [csv_line(("", d, repr(score), label)) for score, label, _ in column.results]
        cells += [ids, map(ends.__getitem__, column.codes)]
    rows = map(("%s%s" * len(table.columns)).__mod__, zip(*cells))
    return csv_line(PROFILE_HEADER) + "".join(rows)


def profiles_from_csv(path: str | Path) -> CohortTable:
    """Rebuild the table from the flat export, with no rules and empty memberships.

    `profiles.csv` keeps neither fired rules nor memberships: every row of a
    column has empty strengths, and every result one shared empty dict.
    """
    grouped: dict[str, list[tuple]] = {}  # learner -> (dimension, crisp score, label) per row
    for line, (_, dimension, crisp, label), learner in learner_rows(path, PROFILE_HEADER):
        score = parse_float(line, crisp, "crisp_score")
        grouped.setdefault(learner, []).append((dimension, score, label))
    _check_dimensions((learner, [r[0] for r in results]) for learner, results in grouped.items())
    codes, no_rules, memberships = list(range(len(grouped))), [()] * len(grouped), {}
    columns = []
    for cells in zip(*grouped.values()):
        results = [(score, label, memberships) for _, score, label in cells]
        columns.append(_Column(cells[0][0], results, codes, (), no_rules))
    return CohortTable(list(grouped), columns)


def _result_ends(dimension, score, label, memberships) -> tuple[str, str]:
    """A result object's text before and after its fired rules."""
    dumps = json.dumps
    return (
        f'{{"crisp_score": {dumps(score)}, "dimension": {dumps(dimension)}, "fired_rules": [',
        f'], "label": {dumps(label)}, "term_memberships": {_SORTED_JSON(memberships)}}}',
    )


def _fired_json(column: _Column) -> list[str]:
    """Each row's fired rules as `profiles_to_json` writes them, without the brackets."""
    if not column.rule_ids:  # nothing fired, as in a table read from profiles.csv
        return [""] * len(column.codes)
    ids = list(map(json.dumps, column.rule_ids))
    return [
        ", ".join([f'{{"rule_id": {i}, "strength": {s!r}}}' for i, s in zip(ids, row) if s > 0.0])
        for row in column.strengths.tolist()
    ]


def profiles_to_json(table: CohortTable) -> str:
    """Detailed export including fired rules and term memberships.

    A JSON array with one learner per line, each line what
    `json.dumps(..., sort_keys=True)` writes for
    `{"learner_id", "results": [{"crisp_score", "dimension", "fired_rules":
    [{"rule_id", "strength"}], "label", "term_memberships"}]}`. A result's
    text before and after its fired rules is formatted once per entry of its
    column; per learner only the id and the fired strengths are.
    """
    cells: list[Iterable[str]] = [_json_strs(table.ids)]
    for c in table.columns:
        ends = [_result_ends(c.dimension, *result) for result in c.results]
        heads, tails = [head for head, _ in ends], [tail for _, tail in ends]
        cells += [map(heads.__getitem__, c.codes), _fired_json(c), map(tails.__getitem__, c.codes)]
    template = '{"learner_id": %s, "results": [' + ", ".join(["%s%s%s"] * len(table.columns)) + "]}"
    lines = list(map(template.__mod__, zip(*cells))) or [""]
    lines[0] = "[\n" + lines[0]
    lines[-1] += "\n]\n"
    log.info(
        "JSON export: %d learners, %d distinct results formatted",
        len(table), sum(len(column.results) for column in table.columns),
    )
    return ",\n".join(lines)
