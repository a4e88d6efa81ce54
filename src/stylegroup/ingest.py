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
import logging
import marshal
import math
import os
import stat
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, ContextManager, Iterable, Iterator, Sequence

from .dsl import DIMENSIONS, RuleBase
from .fuzzy import LinguisticVariable

QUESTIONNAIRE_RANGE = (0.0, 11.0)

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


@dataclass(frozen=True)
class BehaviorRecord:
    learner_id: str
    features: dict[str, float]


@dataclass(frozen=True)
class QuestionnaireRecord:
    learner_id: str
    dimension: str
    score: float


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
) -> Iterator[tuple[io.TextIOWrapper, Iterator[list[str]]]]:
    """Check the header, then give the open file and a reader of the rows after it.

    The rows are records 2 on. Blank rows are not filtered here: a blank row
    always fails the caller's field-count or empty-learner check, and the
    caller skips it there.
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
        yield handle, reader


def _learner_rows(
    path: str | Path, expected_header: list[str]
) -> Iterator[tuple[int, list[str], str]]:
    """Yield (line, row, stripped learner id) per non-blank row.

    A row of another width than the header, or with an empty id, raises.
    """
    width = len(expected_header)
    with _read_rows(path, expected_header) as (_, reader):
        for line, row in enumerate(reader, start=2):
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
    variables: Sequence[LinguisticVariable],
    policy: str = "clamp",
) -> tuple[list[BehaviorRecord], ClampReport]:
    """Load long-format behaviour observations into one record per learner.

    Under the ``clamp`` policy, values outside a variable's universe move to
    the nearer bound and unknown variables are skipped; both are tallied in
    the returned report. Under ``strict`` either situation is an error.

    Where `_split_point` allows, a forked child reads the second half of the
    file while this process reads the first, and the halves merge in file
    order. If the child gives no result (a bad row, bad UTF-8, a killed
    child), this process reads the second half itself, so records, report
    and errors are those of reading in one part.
    """
    return _load(path, variables, policy, _split_point, _forked)


def _load(
    path: str | Path,
    variables: Sequence[LinguisticVariable],
    policy: str,
    plan: Callable[[int], tuple[tuple[int, int] | None, str]],
    run: Callable[[Callable[[], bytes]], ContextManager[Callable[[], bytes]]],
) -> tuple[list[BehaviorRecord], ClampReport]:
    """`load_behaviors`, given where to split the file and how to run its second half.

    ``plan(fd)``, given the open file's descriptor, gives ``((lines, offset),
    "")`` or ``(None, reason)`` as `_split_point` does; ``run`` is a context
    manager like `_forked`.
    """
    if policy not in ("clamp", "strict"):
        raise ValueError(f"policy must be 'clamp' or 'strict', got {policy!r}")
    by_name = {v.name: v for v in variables if v.kind == "input"}
    report = ClampReport()

    # One list of values per (learner, variable), in file order. The keys
    # share one string object per distinct id or name.
    table: dict[tuple[str, str], list[float]] = {}
    names: dict[str, str] = {}
    state = (by_name, policy, table, names, report.skipped_unknown)
    with _read_rows(path, ["learner_id", "variable", "value"]) as (handle, reader):
        split, reason = plan(handle.fileno())
        if split is None:
            end = _fill(reader, 2, *state)
        else:
            end, reason = _read_in_two(handle, split, state, run)

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
    log.info(
        "behaviours %s: %d rows, %d learners, %d keys, %d clamped, %d skipped-unknown, parts=%s",
        path, end - 2, len(records), len(table), report.clamp_count,
        len(report.skipped_unknown), f"1 ({reason})" if reason else "2",
    )
    return records, report


def _fill(reader, line, by_name, policy, table, names, skipped) -> int:
    """Read `reader`'s records, numbered from `line`, into `table` and `skipped`.

    Gives the number the next record would have. A key already in the table
    has a learner id and a declared variable, so later rows of it only need
    their number checked; every row's cells are new objects.
    """
    get = table.get
    isfinite = math.isfinite
    line -= 1
    for line, row in enumerate(reader, line + 1):
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
                skipped.append((learner, variable))
                continue
            key = (names.setdefault(learner, learner), names.setdefault(variable, variable))
            values = table[key] = []
        values.append(value)
    return line + 1


# --------------------------------------------------------------------------
# Reading behaviours in two parts


class _FileRange(io.RawIOBase):
    """Bytes `start` to `stop` (or the end) of the file open on `fd`.

    They are read with os.pread, which leaves the descriptor's position
    alone, so this reader and any other of the same open file, a forked
    child's included, do not disturb each other.
    """

    def __init__(self, fd: int, start: int, stop: int | None = None):
        self._fd, self._position, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = len(buffer)
        if self._stop is not None:
            size = min(size, self._stop - self._position)
        data = os.pread(self._fd, size, self._position)
        buffer[: len(data)] = data
        self._position += len(data)
        return len(data)


def _split_point(fd: int) -> tuple[tuple[int, int] | None, str]:
    r"""Where a second process can start reading the file open on `fd`, or why it cannot.

    The split falls after the first "\n" at or after the byte midpoint. If
    the bytes before it hold no '"' and no "\r" outside a "\r\n", every
    line end there ends a record, so those bytes hold exactly as many
    records, header included, as "\n"s. Gives ((that count, the split's
    byte offset), "") or (None, the reason to read in one part).
    """
    if not hasattr(os, "fork"):
        return None, "no fork"
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None, "one CPU"
    if threading.active_count() > 1:
        return None, "threads"
    status = os.fstat(fd)
    if not stat.S_ISREG(status.st_mode):  # a pipe cannot be read from an offset
        return None, "not a regular file"
    middle = status.st_size // 2
    offset = middle + len(io.BufferedReader(_FileRange(fd, middle)).readline())
    if offset >= status.st_size:
        return None, "no second half"
    lines, after_cr, first_half = 0, False, _FileRange(fd, 0, offset)
    while chunk := first_half.read(_SCAN_CHUNK):
        if b'"' in chunk:
            return None, "quote in first half"
        # Every "\r" must start a "\r\n". The range ends with "\n", so a
        # chunk that ends with "\r" has its "\n" at the next one's start.
        if (after_cr and not chunk.startswith(b"\n")) or (
            b"\r" in chunk
            and chunk.count(b"\r") != chunk.count(b"\r\n") + chunk.endswith(b"\r")
        ):
            return None, "CR in first half"
        after_cr = chunk.endswith(b"\r")
        lines += chunk.count(b"\n")
    return (lines, offset), ""


def _read_in_two(handle, split, state, run) -> tuple[int, str]:
    """Read records 2..lines from `handle` while `run` reads the rest; merge in file order.

    `handle` stands just after the header. Gives the next record's number,
    and a reason if the second part had to be read here after all.

    An error in this half comes first in the file, so it wins. If the other
    half gives no result, this process reads it from where `handle` stands,
    as a one-part read would, so any error there is raised by the same code
    at the same record.
    """
    lines, offset = split
    by_name, policy, table, names, skipped = state
    with run(partial(_tail, handle.fileno(), offset, lines + 1, by_name, policy)) as result:
        _fill(csv.reader(islice(handle, lines - 1)), 2, *state)
        payload = result()
    try:
        end, tail_table, tail_skipped = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return _fill(csv.reader(handle), lines + 1, *state), "second part failed"
    get = table.get
    for (learner, variable), values in tail_table.items():
        mine = get((learner, variable))
        if mine is None:
            key = (names.setdefault(learner, learner), names.setdefault(variable, variable))
            table[key] = values
        else:
            mine.extend(values)
    skipped.extend(tail_skipped)
    return end, ""


def _tail(fd, offset, line, by_name, policy) -> bytes:
    """Read the file open on `fd` from byte `offset` on, numbering records from `line`.

    Gives the marshal'd (next record's number, the table of values per key,
    skipped unknowns), or b"" if the read raised anything.
    """
    table: dict[tuple[str, str], list[float]] = {}
    skipped: list[tuple[str, str]] = []
    try:
        raw = io.BufferedReader(_FileRange(fd, offset))
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as handle:
            end = _fill(csv.reader(handle), line, by_name, policy, table, {}, skipped)
    except Exception:
        return b""
    return marshal.dumps((end, table, skipped))


@contextmanager
def _forked(work: Callable[[], bytes]) -> Iterator[Callable[[], bytes]]:
    """Run `work` in a forked child; give a function that waits for the bytes it returns.

    That function gives b"" if the child could not start, or less than all
    if it died first. On leaving, the child is killed if it still runs, and
    reaped.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no child: the read end gives b"" once write_fd is closed
        pid = None
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(work())
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            yield pipe.read
    finally:
        if pid is not None:
            import signal  # kept out of start-up: only a fork needs it

            os.kill(pid, signal.SIGKILL)  # an exited child is a zombie until reaped
            os.waitpid(pid, 0)


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
