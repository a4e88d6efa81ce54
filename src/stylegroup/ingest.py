"""Load, validate, and clamp per-learner behaviour data from CSV files.

All files are UTF-8 CSV with RFC-4180 quoting and a header row. Behaviour
observations arrive in long format (one row per observation) so new
behaviour variables never require a schema change:

    learner_id,variable,value

Repeated (learner, variable) rows aggregate, in file order, according to
the variable's declared mode (sum by default). Variables declaring
``max_expected`` are rescaled to percent of that ceiling before universe
checks. Blank rows are skipped in every file.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .dsl import DIMENSIONS, RuleBase, VariableSpec

QUESTIONNAIRE_RANGE = (0.0, 11.0)

GENDERS = ("f", "m")
EMPLOYMENT = ("student", "employed")
AGE_BANDS = ("20-25", "25-30", "30-35")
EXPERIENCE_BANDS = ("<5", "5-10", ">10")
CERTIFICATES = ("associate", "bsc", "msc")


class IngestError(Exception):
    """Base class for data-loading failures."""


class MalformedRowError(IngestError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UndeclaredVariableError(IngestError):
    """Strict policy only: the CSV names a variable absent from the fvars file."""


class NonFiniteValueError(IngestError):
    pass


class ValueOutOfUniverseError(IngestError):
    """Strict policy only: a value falls outside its variable's universe."""


class DuplicateEntryError(IngestError):
    pass


class ScoreOutOfRangeError(IngestError):
    pass


class UnknownDimensionError(IngestError):
    pass


class InvalidCategoryError(IngestError):
    pass


@dataclass(frozen=True)
class BehaviorRecord:
    learner_id: str
    features: dict[str, float]


@dataclass(frozen=True)
class QuestionnaireRecord:
    learner_id: str
    dimension: str
    score: float


@dataclass(frozen=True)
class Demographics:
    learner_id: str
    gender: str
    employment: str
    age_band: str
    experience_band: str
    certificate: str


@dataclass
class ClampReport:
    """What the clamp policy changed or skipped while loading behaviours."""

    clamped: list[tuple[str, str, float, float]] = field(default_factory=list)
    skipped_unknown: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clamp_count(self) -> int:
        return len(self.clamped)

    def format_lines(self) -> list[str]:
        lines = [
            f"clamped {learner} {variable} {raw!r} -> {new!r}"
            for learner, variable, raw, new in self.clamped
        ]
        lines.extend(
            f"skipped-unknown {learner} {variable}"
            for learner, variable in self.skipped_unknown
        )
        return lines


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """RFC-4180 text with "\n" line ends; a field is quoted only where it must be."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def csv_rows(text: str) -> list[list[str]]:
    """The rows of RFC-4180 text, header included, skipping blank lines."""
    return [row for row in csv.reader(io.StringIO(text)) if not _blank(row)]


def _blank(row: list[str]) -> bool:
    return not row or all(not cell.strip() for cell in row)


@contextmanager
def _read_rows(
    path: str | Path, expected_header: list[str]
) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """Check the header, then give the (record number, row) pairs after it.

    Blank rows are not filtered here: a blank row always fails the caller's
    field-count or empty-learner check, and the caller skips it there.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(1, "file is empty") from None
        if [h.strip().lower() for h in header] != expected_header:
            raise MalformedRowError(
                1, f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        yield enumerate(reader, start=2)


def _learner_rows(
    path: str | Path, expected_header: list[str]
) -> Iterator[tuple[int, list[str], str]]:
    """Yield (line, row, stripped learner id) per non-blank row.

    A row of another width than the header, or with an empty id, raises.
    """
    width = len(expected_header)
    with _read_rows(path, expected_header) as rows:
        for line, row in rows:
            if len(row) != width:
                if _blank(row):
                    continue
                raise MalformedRowError(line, f"expected {width} fields, got {len(row)}")
            learner = row[0].strip()
            if not learner:
                if _blank(row):
                    continue
                raise MalformedRowError(line, "empty learner_id")
            yield line, row, learner


def _parse_float(line: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(line, f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise NonFiniteValueError(f"line {line}: {what} {text!r} is not finite")
    return value


def load_behaviors(
    path: str | Path,
    variables: Sequence[VariableSpec],
    policy: str = "clamp",
) -> tuple[list[BehaviorRecord], ClampReport]:
    """Load long-format behaviour observations into one record per learner.

    Under the ``clamp`` policy, values outside a variable's universe move to
    the nearer bound and unknown variables are skipped; both are tallied in
    the returned report. Under ``strict`` either situation is an error.
    """
    if policy not in ("clamp", "strict"):
        raise ValueError(f"policy must be 'clamp' or 'strict', got {policy!r}")
    by_name = {v.name: v for v in variables if v.kind == "input"}
    report = ClampReport()
    isfinite = math.isfinite

    # One list of values per (learner, variable), in file order. A key already
    # in the table has a learner id and a declared variable, so later rows of
    # it only need their number checked. The keys share one string object per
    # distinct id or name; every row's cells are new objects.
    table: dict[tuple[str, str], list[float]] = {}
    get = table.get
    names: dict[str, str] = {}
    with _read_rows(path, ["learner_id", "variable", "value"]) as rows:
        for line, row in rows:
            try:
                learner, variable, raw = row
            except ValueError:
                if _blank(row):
                    continue
                raise MalformedRowError(line, f"expected 3 fields, got {len(row)}") from None
            learner, variable = learner.strip(), variable.strip()
            values = get((learner, variable))
            if values is None and not learner:
                if _blank(row):
                    continue
                raise MalformedRowError(line, "empty learner_id")
            # float() strips only part of what str.strip() does (not U+001C-U+001F),
            # so a value it accepts is the stripped cell's value; anything else is
            # parsed again from the stripped cell, for its value or this row's error.
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not isfinite(value):
                value = _parse_float(line, raw.strip(), "value")
            if values is None:
                if variable not in by_name:
                    if policy == "strict":
                        raise UndeclaredVariableError(
                            f"line {line}: variable {variable!r} is not declared"
                        )
                    report.skipped_unknown.append((learner, variable))
                    continue
                key = (names.setdefault(learner, learner), names.setdefault(variable, variable))
                values = table[key] = []
            values.append(value)

    observations: dict[str, dict[str, list[float]]] = {}
    for (learner, variable), values in table.items():
        observations.setdefault(learner, {})[variable] = values

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


def load_questionnaire(path: str | Path) -> list[QuestionnaireRecord]:
    """Load per-learner, per-dimension questionnaire scores."""
    records = []
    seen = set()
    lo, hi = QUESTIONNAIRE_RANGE
    for line, row, learner in _learner_rows(path, ["learner_id", "dimension", "score"]):
        dimension, raw_score = row[1].strip(), row[2].strip()
        if dimension not in DIMENSIONS:
            raise UnknownDimensionError(
                f"line {line}: dimension {dimension!r} is not one of {', '.join(DIMENSIONS)}"
            )
        score = _parse_float(line, raw_score, "score")
        if score < lo or score > hi:
            raise ScoreOutOfRangeError(
                f"line {line}: score {score!r} outside [{lo}, {hi}]"
            )
        key = (learner, dimension)
        if key in seen:
            raise DuplicateEntryError(
                f"line {line}: duplicate entry for learner {learner!r}, dimension {dimension!r}"
            )
        seen.add(key)
        records.append(QuestionnaireRecord(learner, dimension, score))
    return records


def load_scores(path: str | Path) -> dict[str, float]:
    """Load final test scores: header learner_id,score."""
    scores: dict[str, float] = {}
    for line, row, learner in _learner_rows(path, ["learner_id", "score"]):
        if learner in scores:
            raise DuplicateEntryError(f"line {line}: duplicate score for {learner!r}")
        scores[learner] = _parse_float(line, row[1].strip(), "score")
    return scores


def load_satisfaction(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Load 7-item satisfaction responses: header learner_id,q1,...,q7."""
    header = ["learner_id"] + [f"q{i}" for i in range(1, 8)]
    responses: dict[str, tuple[float, ...]] = {}
    for line, row, learner in _learner_rows(path, header):
        if learner in responses:
            raise DuplicateEntryError(f"line {line}: duplicate responses for {learner!r}")
        responses[learner] = tuple(
            _parse_float(line, cell.strip(), f"q{i}") for i, cell in enumerate(row[1:], 1)
        )
    return responses


def load_demographics(path: str | Path) -> list[Demographics]:
    """Load demographic records with closed category sets."""
    allowed = {
        "gender": GENDERS,
        "employment": EMPLOYMENT,
        "age_band": AGE_BANDS,
        "experience_band": EXPERIENCE_BANDS,
        "certificate": CERTIFICATES,
    }
    header = ["learner_id", *allowed]
    records = []
    for line, row, learner in _learner_rows(path, header):
        values = {}
        for (column, categories), cell in zip(allowed.items(), row[1:]):
            value = cell.strip().lower()
            if value not in categories:
                raise InvalidCategoryError(
                    f"line {line}: {column}={cell.strip()!r} not in {', '.join(categories)}"
                )
            values[column] = value
        records.append(Demographics(learner, **values))
    return records


@dataclass(frozen=True)
class DimensionCoverage:
    dimension: str
    required: tuple[str, ...]
    learners: int
    covered: int
    flagged: tuple[tuple[str, tuple[str, ...]], ...]  # (learner, missing variables)

    @property
    def fraction(self) -> float:
        return self.covered / self.learners if self.learners else 1.0


@dataclass(frozen=True)
class CoverageReport:
    total_learners: int
    dimensions: tuple[DimensionCoverage, ...]

    def format_lines(self) -> list[str]:
        lines = [f"learners {self.total_learners}"]
        for cov in self.dimensions:
            lines.append(
                f"{cov.dimension} coverage {cov.fraction:.4f} "
                f"({cov.covered}/{cov.learners})"
            )
            for learner, missing in cov.flagged:
                lines.append(f"  missing {learner}: {', '.join(missing)}")
        return lines


def feature_coverage(records: Sequence[BehaviorRecord], rb: RuleBase) -> CoverageReport:
    """Per dimension, the fraction of learners carrying every variable its rules use.

    Learners below full coverage are flagged; the classifier will error on them.
    """
    coverages = []
    for dimension in rb.dimensions():
        required = rb.referenced_inputs(dimension)
        flagged = []
        covered = 0
        for record in records:
            missing = tuple(v for v in required if v not in record.features)
            if missing:
                flagged.append((record.learner_id, missing))
            else:
                covered += 1
        coverages.append(
            DimensionCoverage(
                dimension=dimension,
                required=required,
                learners=len(records),
                covered=covered,
                flagged=tuple(flagged),
            )
        )
    return CoverageReport(total_learners=len(records), dimensions=tuple(coverages))
