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
import json
import logging
import math
import os
import re
import stat
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import dsl, stats

if TYPE_CHECKING:
    from .dsl import RuleBase
    from .fuzzy import LinguisticVariable

QUESTIONNAIRE_RANGE = (0.0, 11.0)
# The headers of the files `simulate` writes and these readers take.
BEHAVIORS_HEADER = ["learner_id", "variable", "value"]
SCORES_HEADER = ["learner_id", "score"]

log = logging.getLogger(__name__)


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


_SCAN_CHUNK = 1 << 20


class BehaviorTable(NamedTuple):
    """Behaviour values by column: `columns[name][n]` is learner `ids[n]`'s value of `name`.

    NaN marks an absent value, and only that: readers refuse non-finite values.
    """

    ids: list[str]
    columns: dict[str, list[float]]

    @classmethod
    def of(cls, learners: Iterable[tuple[str, Mapping[str, float]]]) -> BehaviorTable:
        """The table of (learner id, {variable: value}) pairs, a column per variable named."""
        learners = list(learners)
        columns: dict[str, list[float]] = {}
        for n, (learner, features) in enumerate(learners):
            for name, value in features.items():
                if not math.isfinite(value):
                    raise ValueError(f"learner {learner!r}: {name} value {value!r} is not finite")
                columns.setdefault(name, [math.nan] * len(learners))[n] = float(value)
        return cls([learner for learner, _ in learners], columns)

    def column(self, name: str) -> list[float]:
        """The values of `name`, all NaN if the table has no such column."""
        column = self.columns.get(name)
        return [math.nan] * len(self.ids) if column is None else column

    def __eq__(self, other):
        """The same ids and column names, and each cell equal or NaN in both."""
        if not isinstance(other, BehaviorTable):
            return NotImplemented
        if self.ids != other.ids or self.columns.keys() != other.columns.keys():
            return False
        for name, column in self.columns.items():
            theirs = other.columns[name]
            if column != theirs and (len(column) != len(theirs) or any(
                a != b and (a == a or b == b) for a, b in zip(column, theirs)
            )):
                return False
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


class QuestionnaireRecord(NamedTuple):
    learner_id: str
    dimension: str
    score: float


class ClampReport:
    """What the clamp policy changed or skipped while loading behaviours."""

    __slots__ = ("clamped", "skipped_unknown")
    __hash__ = None  # mutable: equal by value, so not hashable

    def __init__(
        self,
        clamped: list[tuple[str, str, float, float]] | None = None,
        skipped_unknown: list[tuple[str, str]] | None = None,
    ):
        self.clamped = [] if clamped is None else clamped
        self.skipped_unknown = [] if skipped_unknown is None else skipped_unknown

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.clamped, self.skipped_unknown) == (other.clamped, other.skipped_unknown)

    def __repr__(self) -> str:
        return f"ClampReport(clamped={self.clamped!r}, skipped_unknown={self.skipped_unknown!r})"

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


# A field that holds one of these is quoted, and a quote in it doubled.
_QUOTED = re.compile('[,"\r\n]')


def csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def csv_line(fields: Iterable[str]) -> str:
    """One record of `csv_text`."""
    return ",".join(map(csv_field, fields)) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """RFC-4180 text with "\\n" line ends; a field is quoted only where it must be.

    The records are joined once. If that text holds no '"' or "\\r" and one ","
    or "\\n" per field, the separator after it, no field needs quoting.
    """
    records = [header, *rows]
    text = "\n".join(map(",".join, records)) + "\n"
    if '"' in text or "\r" in text or text.count(",") + text.count("\n") != sum(map(len, records)):
        return "".join(map(csv_line, records))
    return text


def written_value(value: float, ceiling: float) -> float:
    """What a behaviours file holds for a value in percent of its `max_expected` ceiling."""
    return value * ceiling / 100.0


def read_value(raw: float, ceiling: float) -> float:
    """A raw behaviours value in percent of its ceiling: `written_value` undone, up to rounding."""
    return raw * 100.0 / ceiling


@contextmanager
def _read_rows(
    path: str | Path, expected_header: list[str]
) -> Iterator[tuple[io.TextIOWrapper, Iterator[list[str]]]]:
    """Check the header, then give the open file and a reader of the rows after it.

    The rows are records 2 on, blank rows included.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(1, "file is empty") from None
        except csv.Error as exc:
            raise MalformedRowError(1, str(exc)) from None
        if [h.strip().lower() for h in header] != expected_header:
            raise MalformedRowError(
                1, f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        yield handle, reader


def learner_rows(
    path: str | Path, expected_header: list[str]
) -> Iterator[tuple[int, list[str], str]]:
    """Yield (line, row, stripped learner id) per non-blank row of a learner-keyed file.

    Every CSV input but the behaviours log is read here, profiles and
    assignments included. The header compares case-insensitively; a row of
    another width than the header, or with an empty id, raises.
    """
    with _read_rows(path, expected_header) as (_, reader):
        for line, row, learner in _records(reader, 2, len(expected_header)):
            if learner:  # not a blank row
                yield line, row, learner


def _records(reader, line: int, width: int) -> Iterator[tuple[int, list[str], str]]:
    """(line, row, stripped learner id) per record of `reader`, numbered from `line`.

    A blank row gives an empty id. Any other row of another width than
    `width`, or with an empty id, raises a `MalformedRowError`, and so does
    `csv.reader`'s error, for the record it was reading.
    """
    line -= 1
    try:
        for line, row in enumerate(reader, line + 1):
            learner = row[0].strip() if len(row) == width else ""
            if not learner and any(cell.strip() for cell in row):  # not a blank row
                if len(row) != width:
                    raise MalformedRowError(line, f"expected {width} fields, got {len(row)}")
                raise MalformedRowError(line, "empty learner_id")
            yield line, row, learner
    except csv.Error as exc:  # raised while reading the record after `line`
        raise MalformedRowError(line + 1, str(exc)) from None


def parse_float(line: int, text: str, what: str) -> float:
    """The finite number in a cell, or an error naming the line and the column `what`."""
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(line, f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise NonFiniteValueError(f"line {line}: {what} {text!r} is not finite")
    return value


# A variable's value from its values in file order, by its aggregation mode.
_AGGREGATE = {"sum": sum, "mean": lambda values: sum(values) / len(values), "max": max}


def load_behaviors(
    path: str | Path,
    variables: Sequence[LinguisticVariable],
    policy: str = "clamp",
) -> tuple[BehaviorTable, ClampReport]:
    """Load long-format behaviour observations: learners by first declared row, a column per input.

    Under the ``clamp`` policy, values outside a variable's universe move to
    the nearer bound and unknown variables are skipped; both are tallied in
    the returned report. Under ``strict`` either situation is an error.

    A regular file whose header is one line is read by `_plain` for as long
    as its rows are plain; from the first row that is not, `_fill` reads
    the rest with `csv.reader`, and only it raises a row's error. Both fill
    `learners`: learner -> declared variable -> values in file order. One
    pass over it aggregates the cells.
    """
    if policy not in ("clamp", "strict"):
        raise ValueError(f"policy must be 'clamp' or 'strict', got {policy!r}")
    by_name = {v.name: v for v in variables if v.kind == "input"}
    report = ClampReport()

    learners: dict[str, dict[str, list[float]]] = {}  # each in order of its first row
    state = (by_name, policy, learners, report.skipped_unknown)
    with _read_rows(path, BEHAVIORS_HEADER) as (handle, _):
        fd = handle.fileno()
        start = _records_start(fd)  # None: the header is not plain, so no row is read plainly
        line, plain = (2, False) if start is None else _plain(fd, start, 2, *state)
        if not plain:  # `_fill` reads on through `handle`, which stands after the header
            next(islice(handle, line - 2, line - 2), None)  # skip the lines before record `line`
            line = _fill(csv.reader(handle), line, *state)

    columns = {name: [math.nan] * len(learners) for name in by_name}
    rules = {  # each variable's, looked up once
        name: (_AGGREGATE[v.aggregation], v.max_expected, *v.universe, columns[name])
        for name, v in by_name.items()
    }
    for n, (learner, values_of) in enumerate(learners.items()):
        for variable, values in values_of.items():
            aggregate, ceiling, lo, hi, column = rules[variable]
            value = aggregate(values)
            if ceiling is not None:
                value = read_value(value, ceiling)
            if value < lo or value > hi:
                if policy == "strict":
                    raise ValueOutOfUniverseError(
                        f"{learner}: {variable}={value!r} outside its universe [{lo}, {hi}]"
                    )
                report.clamped.append((learner, variable, value, min(max(value, lo), hi)))
                value = min(max(value, lo), hi)
            column[n] = value
    log.info(
        "behaviours %s: %d rows, %d learners, %d keys, %d clamped, %d skipped-unknown",
        path, line - 2, len(learners), sum(map(len, learners.values())), report.clamp_count,
        len(report.skipped_unknown),
    )
    return BehaviorTable(list(learners), columns), report


def _fill(reader, line, by_name, policy, learners, skipped) -> int:
    """Read `reader`'s records, numbered from `line`, into `learners` and `skipped`.

    Gives the number the next record would have. This is the code that
    raises every behaviours row's error.
    """
    line -= 1
    for line, row, learner in _records(reader, line + 1, 3):
        if not learner:  # a blank row
            continue
        value = parse_float(line, row[2].strip(), "value")
        variable = row[1].strip()
        values = _admit(learner, variable, by_name, policy, learners, skipped)
        if values is None:
            raise UndeclaredVariableError(f"line {line}: variable {variable!r} is not declared")
        values.append(value)
    return line + 1


def _admit(learner, variable, by_name, policy, learners, skipped):
    """Where the values of `learner`'s rows of `variable` go, or None if the policy refuses them.

    A declared variable's go to the end of the learner's list of it in
    `learners`, made on first use. Under the clamp policy an undeclared
    one's go to a `_Skip`, which adds the pair to `skipped` for each value.
    """
    spec = by_name.get(variable)
    if spec is None:
        return None if policy == "strict" else _Skip((learner, variable), skipped)
    # `or`: nothing is made for a learner or key already there
    values_of = learners.get(learner) or learners.setdefault(learner, {})
    return values_of.get(variable) or values_of.setdefault(spec.name, [])


class _Skip(NamedTuple):
    """The values of a (learner, undeclared variable) pair: each adds the pair to `skipped`."""

    pair: tuple[str, str]
    skipped: list[tuple[str, str]]

    def append(self, value: float) -> None:
        self.skipped.append(self.pair)


# --------------------------------------------------------------------------
# Plain rows


def _records_start(fd: int) -> int | None:
    r"""The byte offset of record 2 if `_plain` can read the file open on `fd`, else None.

    It can if the file is regular (a pipe cannot be read from an offset)
    and the header is one line, with no '"' and no "\r" but in its "\r\n".
    """
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        return None
    first = next(_pieces(fd, 0), b"")
    end = first.find(b"\n") + 1
    if not end or b'"' in first[:end] or b"\r" in first[: end - 2]:
        return None
    return end


def _pieces(fd: int, start: int) -> Iterator[bytes]:
    """The bytes of the file open on `fd` from byte `start` to its end, in pieces.

    Each piece is `_SCAN_CHUNK` bytes or more, up to the last "\\n" in it,
    read with os.pread. The last piece may end without a "\\n", and so may
    one of more than four bytes per character of `csv.field_size_limit()`
    with no "\\n": its line is too long to be plain, whatever it decodes to.
    """
    limit = csv.field_size_limit()
    position, rest = start, b""
    while True:
        block = os.pread(fd, _SCAN_CHUNK, position)
        if not block:
            if rest:
                yield rest
            return
        position += len(block)
        rest += block
        cut = rest.rfind(b"\n") + 1 or (len(rest) if len(rest) > 4 * limit else 0)
        if cut:
            yield rest[:cut]
            rest = rest[cut:]


def _plain(fd, start, line, by_name, policy, learners, skipped) -> tuple[int, bool]:
    r"""Read plain records from byte `start` on, numbered from `line`.

    Reads `_pieces` of whole lines. A piece that holds a '"', a "\r" outside
    a "\r\n" or a NUL (which `csv.reader` refuses before Python 3.11), is
    not UTF-8, or has a line longer than `csv.field_size_limit()` is not
    plain. In a plain piece each line is a record. A blank row is skipped.
    Any other row is plain if its value is a finite number (`float` of the
    raw text) and its head, the raw text before its last ",", is a learner
    id and a variable that `_admit` takes. A head is split, stripped and
    given to `_admit` only the first time it is seen, and the list (or
    `_Skip`) it gives is kept for the head; after that a row costs one
    `rpartition`, one `float`, one dict lookup and one `append`.

    Gives (the number of the first record that is not plain, False), or
    (the next record's number, True) when every record was. Everything
    before that record is read as `_fill` would read it.
    """
    targets: dict[str, list[float] | _Skip] = {}  # by head
    get = targets.get
    limit = csv.field_size_limit()
    for piece in _pieces(fd, start):
        if b'"' in piece or b"\0" in piece or (
            b"\r" in piece and piece.count(b"\r") != piece.count(b"\r\n")
        ):
            return line, False
        try:
            rows = piece.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            return line, False
        if piece.endswith(b"\n"):
            rows.pop()
        if max(map(len, rows)) > limit:
            return line, False
        for text in rows:
            head, _, raw = text.rpartition(",")
            # float() strips only part of what str.strip() does (not U+001C-U+001F), so
            # a value it reads is the value `_fill` reads from the stripped cell.
            try:
                value = float(raw)
            except ValueError:
                if text.replace(",", "").strip():
                    break
                continue  # a blank row
            if value - value:  # inf or nan
                break
            values = get(head)
            if values is None:
                cells = head.split(",")
                learner = cells[0].strip()
                if len(cells) != 2 or not learner:
                    break
                values = _admit(learner, cells[1].strip(), by_name, policy, learners, skipped)
                if values is None:
                    break
                targets[head] = values
            values.append(value)
        else:
            line += len(rows)
            continue
        # A row's text alone decides whether it is plain, so this is its first line.
        return line + rows.index(text), False
    return line, True


def load_questionnaire(path: str | Path) -> list[QuestionnaireRecord]:
    """Load per-learner, per-dimension questionnaire scores."""
    records = []
    seen = set()
    lo, hi = QUESTIONNAIRE_RANGE
    for line, row, learner in learner_rows(path, ["learner_id", "dimension", "score"]):
        dimension, raw_score = row[1].strip(), row[2].strip()
        if dimension not in dsl.DIMENSIONS:
            raise UnknownDimensionError(
                f"line {line}: dimension {dimension!r} is not one of {', '.join(dsl.DIMENSIONS)}"
            )
        score = parse_float(line, raw_score, "score")
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
    for line, row, learner in learner_rows(path, SCORES_HEADER):
        if learner in scores:
            raise DuplicateEntryError(f"line {line}: duplicate score for {learner!r}")
        scores[learner] = parse_float(line, row[1].strip(), "score")
    return scores


def load_satisfaction(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Load 7-item satisfaction responses: header learner_id,q1,...,q7, items in `LIKERT_RANGE`."""
    header = ["learner_id"] + [f"q{i}" for i in range(1, stats.SATISFACTION_ITEMS + 1)]
    lo, hi = stats.LIKERT_RANGE
    responses: dict[str, tuple[float, ...]] = {}
    for line, row, learner in learner_rows(path, header):
        if learner in responses:
            raise DuplicateEntryError(f"line {line}: duplicate responses for {learner!r}")
        items = tuple(parse_float(line, cell.strip(), f"q{i}") for i, cell in enumerate(row[1:], 1))
        for i, item in enumerate(items, 1):
            if item < lo or item > hi:
                raise ScoreOutOfRangeError(f"line {line}: q{i} {item!r} outside [{lo}, {hi}]")
        responses[learner] = items
    return responses


def read_json(path: str | Path):
    """A JSON file's value; bad syntax or a repeated key raises a `ValueError` naming the path."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"repeated key {key!r}")
            obj[key] = value
        return obj

    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=unique_keys)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


class DimensionCoverage(NamedTuple):
    dimension: str
    required: tuple[str, ...]  # `CompiledRules.inputs`: in the order the rules reference them
    learners: int
    covered: int
    flagged: tuple[tuple[str, tuple[str, ...]], ...]  # (learner, missing variables in that order)

    @property
    def fraction(self) -> float:
        return self.covered / self.learners if self.learners else 1.0


class CoverageReport(NamedTuple):
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


def feature_coverage(table: BehaviorTable, rb: RuleBase) -> CoverageReport:
    """Per dimension, the fraction of learners carrying every variable its rules use.

    Learners below full coverage are flagged; the classifier will error on them.
    """
    coverages = []
    learners = len(table.ids)
    for dimension in rb.dimensions():
        required = rb.compile_dimension(dimension).inputs
        missing: dict[int, list[str]] = {}
        for name in required:
            for n in [n for n, value in enumerate(table.column(name)) if value != value]:
                missing.setdefault(n, []).append(name)
        flagged = tuple((table.ids[n], tuple(missing[n])) for n in sorted(missing))
        coverages.append(
            DimensionCoverage(
                dimension=dimension,
                required=required,
                learners=learners,
                covered=learners - len(flagged),
                flagged=flagged,
            )
        )
    return CoverageReport(total_learners=learners, dimensions=tuple(coverages))
