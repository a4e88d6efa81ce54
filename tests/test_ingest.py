import _thread
import csv
import errno
import logging
import os
import random
import threading
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import learner_values, reference_csv_text, reference_load_behaviors
from stylegroup import ingest
from stylegroup.dsl import parse_variables
from stylegroup.ingest import (
    BehaviorTable,
    DuplicateEntryError,
    IngestError,
    MalformedRowError,
    NonFiniteValueError,
    ScoreOutOfRangeError,
    UndeclaredVariableError,
    UnknownDimensionError,
    ValueOutOfUniverseError,
    csv_text,
    feature_coverage,
    load_behaviors,
    load_questionnaire,
    load_satisfaction,
    load_scores,
)

VARS = parse_variables(
    """
    input discussion_participation dim=processing universe=[0,15] { low=(0,0,3,5) medium=(3,5,8,10) much=(8,10,15,15) }
    input test_time dim=processing
    input lesson_minutes dim=perception max_expected=200
    input peak_difficulty dim=perception agg=max
    input mean_gap dim=understanding agg=mean
    output processing_score dim=processing universe=[0,12] { reactive=(0,0,6,8) reflective=(6,8,12,12) }
    """
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_repeated_rows_sum(tmp_path):
    path = _write(
        tmp_path,
        "b.csv",
        "learner_id,variable,value\nL1,discussion_participation,2\nL1,discussion_participation,2\n",
    )
    table, report = load_behaviors(path, VARS)
    assert table.ids == ["L1"]
    assert table.columns["discussion_participation"] == [4.0]
    assert report.clamp_count == 0


def test_clamp_to_bound(tmp_path):
    path = _write(
        tmp_path, "b.csv", "learner_id,variable,value\nL1,discussion_participation,99\n"
    )
    table, report = load_behaviors(path, VARS, policy="clamp")
    assert table.columns["discussion_participation"] == [15.0]
    assert report.clamp_count == 1
    assert report.clamped[0] == ("L1", "discussion_participation", 99.0, 15.0)


def test_clamp_never_moves_in_range_values(tmp_path):
    path = _write(
        tmp_path, "b.csv", "learner_id,variable,value\nL1,discussion_participation,7.25\n"
    )
    table, report = load_behaviors(path, VARS, policy="clamp")
    assert table.columns["discussion_participation"] == [7.25]
    assert report.clamp_count == 0


def test_strict_rejects_out_of_universe(tmp_path):
    path = _write(
        tmp_path, "b.csv", "learner_id,variable,value\nL1,discussion_participation,99\n"
    )
    with pytest.raises(ValueOutOfUniverseError):
        load_behaviors(path, VARS, policy="strict")


def test_malformed_value(tmp_path):
    path = _write(tmp_path, "b.csv", "learner_id,variable,value\nL1,test_time,abc\n")
    with pytest.raises(MalformedRowError) as exc_info:
        load_behaviors(path, VARS)
    assert exc_info.value.line == 2


def test_malformed_header(tmp_path):
    path = _write(tmp_path, "b.csv", "who,what,how\nL1,test_time,3\n")
    with pytest.raises(MalformedRowError):
        load_behaviors(path, VARS)


def test_csv_text_ends_records_with_newline_and_quotes_carriage_returns():
    # A "\r" in a field is quoted, as "\n" is; a quoted "\r\n" stays as it is.
    assert csv_text(["learner_id", "note"], [("L\r1", 'a"\r\nb'), ("L2", ""), ("L,3", "x")]) == (
        'learner_id,note\n"L\r1","a""\r\nb"\nL2,\n"L,3",x\n'
    )


_FIELDS = st.text(alphabet=',"\r\n ab\té\x00', max_size=4)


@given(st.lists(st.lists(_FIELDS, min_size=2, max_size=4), max_size=5))
@example([["a,b"]])  # one field short of the header, so its comma is not a separator
def test_csv_text_quotes_as_csv_writer_does(rows):
    header = ["learner_id", "note"]
    assert csv_text(header, rows) == reference_csv_text(header, rows)


def test_non_finite_value(tmp_path):
    path = _write(tmp_path, "b.csv", "learner_id,variable,value\nL1,test_time,inf\n")
    with pytest.raises(NonFiniteValueError):
        load_behaviors(path, VARS)


def test_unknown_variable_strict_vs_clamp(tmp_path):
    path = _write(
        tmp_path,
        "b.csv",
        "learner_id,variable,value\nL1,mystery,3\nL1,test_time,10\n",
    )
    with pytest.raises(UndeclaredVariableError):
        load_behaviors(path, VARS, policy="strict")
    table, report = load_behaviors(path, VARS, policy="clamp")
    assert learner_values(table) == [("L1", {"test_time": 10.0})]
    assert report.skipped_unknown == [("L1", "mystery")]


def test_max_expected_rescales_to_percent(tmp_path):
    path = _write(tmp_path, "b.csv", "learner_id,variable,value\nL1,lesson_minutes,50\n")
    table, _ = load_behaviors(path, VARS)
    assert table.columns["lesson_minutes"] == [25.0]


def test_aggregation_modes(tmp_path):
    path = _write(
        tmp_path,
        "b.csv",
        "learner_id,variable,value\n"
        "L1,peak_difficulty,30\nL1,peak_difficulty,80\nL1,peak_difficulty,55\n"
        "L1,mean_gap,10\nL1,mean_gap,30\n",
    )
    table, _ = load_behaviors(path, VARS)
    assert table.columns["peak_difficulty"] == [80.0]
    assert table.columns["mean_gap"] == [20.0]


def test_row_order_does_not_matter_for_sum(tmp_path):
    rows = [
        ("L1", "discussion_participation", "2"),
        ("L1", "test_time", "30"),
        ("L2", "discussion_participation", "5"),
        ("L1", "discussion_participation", "3"),
        ("L2", "test_time", "60"),
    ]
    rng = random.Random(3)
    baseline = None
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        text = "learner_id,variable,value\n" + "\n".join(",".join(r) for r in shuffled)
        table, _ = load_behaviors(_write(tmp_path, "b.csv", text), VARS)
        snapshot = dict(learner_values(table))
        if baseline is None:
            baseline = snapshot
        assert snapshot == baseline


def test_strict_pass_implies_clamp_identical(tmp_path):
    path = _write(
        tmp_path,
        "b.csv",
        "learner_id,variable,value\nL1,discussion_participation,4\nL1,test_time,55\n",
    )
    strict_table, _ = load_behaviors(path, VARS, policy="strict")
    clamp_table, report = load_behaviors(path, VARS, policy="clamp")
    assert strict_table == clamp_table
    assert report.clamp_count == 0 and not report.skipped_unknown


def test_rfc4180_quoting(tmp_path):
    path = _write(
        tmp_path, "b.csv", 'learner_id,variable,value\n"L 1",discussion_participation,"3"\n'
    )
    table, _ = load_behaviors(path, VARS)
    assert table.ids == ["L 1"]


# -- the row loop against the row-at-a-time reference --------------------------

# Whitespace that str.strip removes: ASCII, Unicode, and U+001C-U+001F,
# which float() does not strip.
_PAD = st.sampled_from(
    ["", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
)
_LEARNERS = st.sampled_from(["L1", "L2", "L3", "Doe, Jane", 'Roe "Rick", Jr.', "two\nlines"])
_VARIABLES = st.sampled_from(
    ["discussion_participation", "test_time", "lesson_minutes", "peak_difficulty", "mean_gap",
     "mystery", ""]
)
_BAD_VALUES = st.sampled_from(
    ["abc", "", "inf", "-Infinity", "nan", "1e400", "1_5", "0x10", "3,5"]
)


def _padded(text):
    return st.tuples(_PAD, text, _PAD).map("".join)


@st.composite
def _value_text(draw, bad_values=_BAD_VALUES):
    if draw(st.integers(0, 11)) == 0:
        return draw(_padded(bad_values))
    value = draw(st.floats(-40.0, 120.0) | st.integers(-40, 120))
    return draw(_padded(st.just(repr(value))))


@st.composite
def _row(draw, learners=_LEARNERS, bad_values=_BAD_VALUES):
    kind = draw(st.integers(0, 39))
    if kind < 5:  # blank: 0 to 4 whitespace-only cells
        return draw(st.lists(_PAD, min_size=kind, max_size=kind))
    if kind == 5:  # non-blank, wrong width
        cells = [draw(_padded(learners)), draw(_VARIABLES), draw(_value_text(bad_values))]
        return cells[: draw(st.integers(1, 2))] if draw(st.booleans()) else cells + ["x"]
    learner = draw(_PAD) if kind == 6 else draw(_padded(learners))
    return [learner, draw(_padded(_VARIABLES)), draw(_value_text(bad_values))]


_DECLARED = ["discussion_participation", "test_time", "lesson_minutes", "peak_difficulty", "mean_gap"]
# Files whose heads, a row's learner id and variable as written, repeat in
# each way the plain reader's per-head lookup can meet them.
_HEAD_SHAPES = [
    # heads that interleave: A, B, A (sums clamped at both ends of the universe)
    [["L1", "test_time", "1"], ["L2", "test_time", "2"], ["L1", "test_time", "3"],
     ["L2", "discussion_participation", "99"], ["L1", "discussion_participation", "-4"],
     ["L2", "discussion_participation", "1"]],
    # heads that never repeat while learners do
    [[f"L{n}", name, f"{n + 3 * i}.5"] for i, name in enumerate(_DECLARED) for n in (1, 2)],
    # undeclared heads between declared ones
    [["L1", "test_time", "1"], ["L1", "mystery", "2"], ["L2", "test_time", "3"],
     ["L2", "idle", "4"], ["L1", "mystery", "5"], ["L1", "test_time", "6"]],
    # heads that differ only by surrounding spaces
    [["L1", "test_time", "1"], [" L1", "test_time ", "2"], ["L1 ", " test_time", "3"],
     ["L2", " mean_gap", "4"], ["\tL2 ", "mean_gap", "5"], ["L1", "test_time", "6"]],
]


def _head_shapes(first=(), **arguments):
    """`_HEAD_SHAPES` under each policy as examples, each after the rows `first`."""

    def add(test):
        for rows in _HEAD_SHAPES:
            for policy in ("clamp", "strict"):
                test = example(rows=[*first, *rows], policy=policy, **arguments)(test)
        return test

    return add


def _outcome(load, path, policy):
    try:
        table, report = load(path, VARS, policy=policy)
    except IngestError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    # Each learner's values by repr; a table has no order of features within a learner.
    present = [(learner, {name: repr(value) for name, value in values.items()})
               for learner, values in learner_values(table)]
    return present, repr(report)


@settings(max_examples=300, deadline=None)
# the checks of one row run in order: width, learner id, number, finite, declared
@example(rows=[["L1", "mystery", "abc"]], policy="strict", quoting=0, terminator="\n")
@example(
    rows=[["L1", "test_time", "1"], [" ", "test_time", "inf"]],
    policy="clamp", quoting=0, terminator="\n",
)
@example(
    rows=[[" ", "", "\t"], ["L1", "test_time", "1\x1c"], ["L1", "test_time", "2"]],
    policy="strict", quoting=0, terminator="\n",
)
# a quoted row first: `csv.reader` reads every row
@_head_shapes(first=[["Doe, Jane", "test_time", "1"]], quoting=csv.QUOTE_MINIMAL, terminator="\n")
@given(
    rows=st.lists(_row(), max_size=40),
    policy=st.sampled_from(["clamp", "strict"]),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    terminator=st.sampled_from(["\n", "\r\n"]),
)
def test_load_behaviors_matches_reference_loader(
    tmp_path_factory, rows, policy, quoting, terminator
):
    path = tmp_path_factory.mktemp("rows") / "b.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=quoting, lineterminator=terminator)
        writer.writerow(["learner_id", "variable", "value"])
        writer.writerows(rows)
    expected = _outcome(reference_load_behaviors, path, policy)
    assert _outcome(load_behaviors, path, policy) == expected


# -- reading in two parts ------------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    """Let `load_behaviors` read in two parts on any host: two usable CPUs, no other thread.

    A one-CPU host, a CPU-pinned run or a test plugin's thread would
    otherwise send every file down the one-part path.
    """
    if not hasattr(os, "fork"):
        pytest.skip("reading in two parts needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ingest, "_thread_count", lambda: 1)


@contextmanager
def _in_process(work):
    """Run a second part's work here, in place of `ingest._forked`."""
    yield work


def _splits(path):
    """The byte offset after each line end: `_splits(path)[n]` follows records 1 to n + 1."""
    data = path.read_bytes()
    return [offset for offset in range(1, len(data) + 1) if data[offset - 1 : offset] == b"\n"]


def _split_at(split, run=_in_process):
    """A loader that splits the file at `split` and runs its second part with `run`."""
    return lambda path, variables, policy: ingest._load(
        path, variables, policy, lambda _: (split, ""), run
    )


def _write_rows(path, rows, terminator="\n"):
    text = "".join(",".join(row) + terminator for row in [["learner_id", "variable", "value"], *rows])
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=150, deadline=None)
@example(
    rows=[["L1", "test_time", "1"], ["L1", "test_time", "abc"], ["L2", "test_time", "inf"]],
    policy="clamp", terminator="\n",
)
@example(
    rows=[["L1", "mystery", "1"], ["L2", "test_time", "2"], ["L1", "mystery", "3"]],
    policy="strict", terminator="\r\n",
)
@_head_shapes(terminator="\n")
@given(
    rows=st.lists(
        _row(learners=st.sampled_from(["L1", "L2", "L3"]), bad_values=_BAD_VALUES.filter(
            lambda text: "," not in text)),
        max_size=40,
    ),
    policy=st.sampled_from(["clamp", "strict"]),
    terminator=st.sampled_from(["\n", "\r\n"]),
)
def test_every_split_matches_reference_loader(tmp_path_factory, rows, policy, terminator):
    path = _write_rows(tmp_path_factory.mktemp("rows") / "b.csv", rows, terminator)
    assert b'"' not in path.read_bytes()
    expected = _outcome(reference_load_behaviors, path, policy)
    for split in [None, *_splits(path)]:  # one part, then two at every line end
        assert _outcome(_split_at(split), path, policy) == expected, split


# Every (learner, variable) key once: learner by learner, as `simulate` writes, or interleaved.
_EACH_KEY_ONCE = [[f"L{n}", name, f"{(3 * n + i) % 11}.25"] for n in range(5)
                  for i, name in enumerate(_DECLARED)]


@st.composite
def _keyed_rows(draw):
    """Rows of a few (learner, variable) keys, each 1-3 times, in any order.

    Values fall in and out of each universe, so a split can put a clamp or
    a strict error on either side, before or after its key's other rows.
    """
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["L1", "L2", "L3", "L4", "L5"]),
                  st.sampled_from(_DECLARED + ["mystery"])),
        unique=True, max_size=15,
    ))
    values = st.floats(-5.0, 20.0) | st.floats(-40.0, 400.0)
    rows = [[learner, variable, repr(draw(values))]
            for learner, variable in keys for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@example(rows=_EACH_KEY_ONCE, policy="clamp")
@example(rows=sorted(_EACH_KEY_ONCE, key=lambda row: row[1]), policy="clamp")
# a learner whose later rows add a variable; a learner met only at the end
@example(rows=[["L1", "test_time", "1"], ["L2", "test_time", "2"], ["L1", "test_time", "3"],
               ["L2", "mean_gap", "4"], ["L1", "mean_gap", "5"], ["L9", "peak_difficulty", "6"],
               ["L9", "test_time", "7"]], policy="clamp")
# values out of universe near each end, clamped in learner order or refused at the first
@example(rows=[["L2", "discussion_participation", "99"], ["L3", "test_time", "1"],
               ["L1", "test_time", "2"], ["L3", "lesson_minutes", "999"],
               ["L1", "discussion_participation", "-4"]], policy="clamp")
@example(rows=[["L2", "discussion_participation", "99"], ["L3", "test_time", "1"],
               ["L1", "test_time", "2"], ["L3", "lesson_minutes", "999"],
               ["L1", "discussion_participation", "-4"]], policy="strict")
@example(rows=[["L3", "test_time", "1"], ["L1", "test_time", "2"],
               ["L3", "lesson_minutes", "999"]], policy="strict")
@given(rows=_keyed_rows(), policy=st.sampled_from(["clamp", "strict"]))
def test_every_split_merges_learners_and_variables_as_the_reference_loader(
    tmp_path_factory, rows, policy
):
    path = _write_rows(tmp_path_factory.mktemp("rows") / "b.csv", rows)
    expected = _outcome(reference_load_behaviors, path, policy)
    for split in _splits(path):
        assert _outcome(_split_at(split), path, policy) == expected, split
        assert _outcome(_split_at(split, ingest._forked), path, policy) == expected, split


_GOOD = [[f"L{i % 7}", "test_time", f"{i % 13}.5"] for i in range(40)]


@pytest.mark.parametrize(
    "rows, policy, error, line",
    [
        # both halves hold a bad row: the first half's comes first in the file
        (_GOOD[:5] + [["L1", "test_time", "abc"]] + _GOOD[5:] + [["L2", "test_time", "x"]],
         "clamp", MalformedRowError, 7),
        (_GOOD[:5] + [["L1", "mystery", "1"]] + _GOOD[5:] + [["L2", "test_time", "x"]],
         "strict", UndeclaredVariableError, None),
        # only the second half's
        (_GOOD + [["L2", "test_time", "x"]] + _GOOD, "clamp", MalformedRowError, 42),
        (_GOOD + [["L2", "test_time"]] + _GOOD, "clamp", MalformedRowError, 42),
        (_GOOD + [["", "test_time", "1"]] + _GOOD, "clamp", MalformedRowError, 42),
        (_GOOD + [["L2", "test_time", "nan"]] + _GOOD, "clamp", NonFiniteValueError, None),
        (_GOOD + [["L2", "mystery", "1"]] + _GOOD, "strict", UndeclaredVariableError, None),
        (_GOOD + [["L2", "lesson_minutes", "999"]] + _GOOD, "strict", ValueOutOfUniverseError, None),
    ],
)
def test_second_process_errors_match_reference_loader(tmp_path, rows, policy, error, line):
    path = _write_rows(tmp_path / "b.csv", rows)
    expected = _outcome(reference_load_behaviors, path, policy)
    assert expected[0] is error and expected[2] == line
    # records 1-30 here, records 31 on in the second process
    split = _splits(path)[29]
    assert _outcome(_split_at(split, ingest._forked), path, policy) == expected


def _padded_row(size):
    """A good row of exactly `size` bytes."""
    return b"L1,test_time,1.25" + b" " * (size - 18) + b"\n"


def test_undecodable_second_half_is_read_again_here(tmp_path):
    """A bad row loses to bad UTF-8 after it that a one-part read decodes first.

    Text is decoded 8 KiB at a time from where the reader starts. The split
    sits half a chunk off the one-part read's chunk grid, and the bad row
    ends the first chunk of a reader started there: such a reader parses
    the row before it reaches the bad byte, while a one-part read decodes
    both at once and fails on the byte. The second process gives no result,
    and this process reads the second half on the one-part read's grid.
    """
    header = b"learner_id,variable,value\n"
    bad_row, bad_byte = b"L2,test_time,abc\n", b"L3,test_time,\xff\n"
    offset = 8192 * 2 + 4096
    first = header + _padded_row(18) * 1135 + _padded_row(24)
    second = _padded_row(18) * 453 + _padded_row(21) + bad_row
    assert (len(first), len(first + second)) == (offset, offset + 8192)
    path = tmp_path / "b.csv"
    path.write_bytes(first + second + bad_byte + _padded_row(18) * 200)
    expected = _exception(reference_load_behaviors, path)
    assert type(expected) is UnicodeDecodeError
    for run in (_in_process, ingest._forked):
        got = _exception(_split_at(offset, run), path)
        assert (type(got), str(got)) == (type(expected), str(expected))
    # With the bad byte out of the way, the row error is raised at its record.
    path.write_bytes(first + second + _padded_row(18) * 200)
    assert _exception(_split_at(offset, ingest._forked), path).line == 1137 + 455


@contextmanager
def _gives_nothing(work):
    yield lambda: b""


@contextmanager
def _gives_half(work):
    payload = work()
    yield lambda: payload[: len(payload) // 2]


@contextmanager
def _child_exits_first(work):
    with ingest._forked(lambda: os._exit(1)) as result:
        yield result


@pytest.mark.parametrize("run", [_gives_nothing, _gives_half, _child_exits_first])
@pytest.mark.parametrize(
    "rows, policy, error",
    [
        (_GOOD * 3, "clamp", None),
        (_GOOD * 2 + [["L2", "test_time", "x"]] + _GOOD, "clamp", MalformedRowError),
        (_GOOD * 2 + [["L2", "mystery", "1"]] + _GOOD, "strict", UndeclaredVariableError),
    ],
)
def test_failed_second_part_is_read_here(tmp_path, caplog, two_cpus, run, rows, policy, error):
    """A second part that gives nothing or a cut payload, or whose child dies, is read again here."""
    path = _write_rows(tmp_path / "b.csv", rows)
    with open(path, "rb") as handle:
        split, _ = ingest._split_point(handle.fileno())
    # a bad row is in the second half
    assert path.read_bytes().count(b"\n", 0, split) < len(_GOOD) * 2 + 2
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        got = _outcome(
            lambda *args, policy: ingest._load(*args, policy, ingest._split_point, run),
            path, policy,
        )
    expected = _outcome(reference_load_behaviors, path, policy)
    assert got == expected
    if error is None:
        assert _parts(caplog) == "1 (second part failed)"
    else:
        assert expected[0] is error


def _exception(load, path):
    with pytest.raises(Exception) as info:
        load(path, VARS, policy="clamp")
    return info.value


def _parts(caplog):
    (message,) = [r.getMessage() for r in caplog.records if r.name == "stylegroup.ingest"]
    return message.split("parts=")[1]


@pytest.mark.parametrize(
    "first, parts",
    [
        ('"L1",test_time,1\n', "1 (first half not plain)"),
        ("L1,test_time,1\r", "1 (first half not plain)"),
        ("L1,test_time,1\r\n", "2"),
        ("L1,test_time,1\n", "2"),
    ],
)
def test_quote_or_lone_cr_in_first_half_reads_in_one_part(tmp_path, caplog, two_cpus, first, parts):
    text = "learner_id,variable,value\n" + first + "".join(
        f"L{i % 7},test_time,{i % 13}.5\n" for i in range(60)
    )
    path = tmp_path / "b.csv"
    path.write_bytes(text.encode("utf-8"))
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        got = _outcome(load_behaviors, path, "clamp")
    assert _parts(caplog) == parts
    assert got == _outcome(reference_load_behaviors, path, "clamp")


def test_quote_in_second_half_only_is_read_here(tmp_path, caplog, two_cpus):
    """The child meets the only quoted row, gives nothing, and this process reads its half."""
    path = _write_rows(tmp_path / "b.csv", _GOOD * 3 + [['"L1"', "test_time", "1"]] + _GOOD)
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        got = _outcome(load_behaviors, path, "clamp")
    assert _parts(caplog) == "1 (second part failed)"
    assert got == _outcome(reference_load_behaviors, path, "clamp")


def test_info_line_counts_what_was_read(tmp_path, caplog, two_cpus):
    path = _write_rows(
        tmp_path / "b.csv",
        [["L1", "test_time", "1"], ["L1", "mystery", "2"], [], ["L2", "discussion_participation", "99"],
         ["L1", "test_time", "3"], ["L2", "test_time", "4"]],
    )
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        load_behaviors(path, VARS)
    (message,) = [r.getMessage() for r in caplog.records if r.name == "stylegroup.ingest"]
    assert message == (
        f"behaviours {path}: 6 rows, 2 learners, 3 keys, 1 clamped, 1 skipped-unknown, parts=2"
    )


def test_no_second_process_is_left_behind(tmp_path, caplog, two_cpus):
    forks = []

    @contextmanager
    def counted(work):
        forks.append(work)
        with ingest._forked(work) as result:
            yield result

    def load(*args, policy):
        return ingest._load(*args, policy, ingest._split_point, counted)

    good = _write_rows(tmp_path / "good.csv", _GOOD * 3)
    bad = _write_rows(tmp_path / "bad.csv", [["L1", "test_time", "x"]] + _GOOD * 3)
    # the first half is not plain: nothing waits for the child's result
    quoted = _write_rows(tmp_path / "quoted.csv", [['"L1"', "test_time", "1"]] + _GOOD * 3)
    for path, parts in ((good, "2"), (quoted, "1 (first half not plain)")):
        caplog.clear()
        expected = _outcome(reference_load_behaviors, path, "clamp")
        with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
            assert _outcome(load, path, "clamp") == expected
        assert _parts(caplog) == parts
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    with pytest.raises(MalformedRowError):
        load(bad, VARS, policy="clamp")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 3


@pytest.mark.parametrize(
    "cpus, threads, parts",
    [({0}, 1, "1 (one CPU)"), ({0, 1}, 2, "1 (threads)"), ({0, 1}, 1, "2")],
)
def test_one_cpu_or_another_thread_reads_in_one_part(
    tmp_path, caplog, monkeypatch, cpus, threads, parts
):
    if not hasattr(os, "fork"):
        pytest.skip("reading in two parts needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
    monkeypatch.setattr(ingest, "_thread_count", lambda: threads)
    path = _write_rows(tmp_path / "b.csv", _GOOD)
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        got = _outcome(load_behaviors, path, "clamp")
    assert _parts(caplog) == parts
    assert got == _outcome(reference_load_behaviors, path, "clamp")


def test_thread_unknown_to_threading_reads_in_one_part(tmp_path, caplog, monkeypatch):
    """A thread started by `_thread`, as native code starts its own, is not in `threading`'s count."""
    if not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"):
        pytest.skip("needs os.fork and a listing of the process's threads")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = _write_rows(tmp_path / "b.csv", _GOOD)
    go, done = _thread.allocate_lock(), _thread.allocate_lock()
    go.acquire()
    done.acquire()
    before, known = ingest._thread_count(), threading.active_count()

    def wait():
        go.acquire()
        done.release()

    _thread.start_new_thread(wait, ())
    try:
        assert (ingest._thread_count(), threading.active_count()) == (before + 1, known)
        with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
            got = _outcome(load_behaviors, path, "clamp")
    finally:
        go.release()
        done.acquire()
    assert _parts(caplog) == "1 (threads)"
    assert got == _outcome(reference_load_behaviors, path, "clamp")


def test_no_pipe_reads_in_one_part(tmp_path, caplog, monkeypatch, two_cpus):
    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    path = _write_rows(tmp_path / "b.csv", _GOOD * 3)
    expected = _outcome(reference_load_behaviors, path, "clamp")
    monkeypatch.setattr(os, "pipe", no_pipe)
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        assert _outcome(load_behaviors, path, "clamp") == expected
    assert _parts(caplog) == "1 (second part failed)"


def test_pipe_reads_in_one_part(tmp_path, caplog, two_cpus):
    """A pipe (process substitution, /dev/stdin) has no offsets to split at; it reads as before."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("needs /dev/fd to name a pipe")
    path = _write_rows(tmp_path / "b.csv", _GOOD * 3)
    expected = _outcome(reference_load_behaviors, path, "clamp")
    data = path.read_bytes()
    read_fd, write_fd = os.pipe()
    try:
        assert os.write(write_fd, data) == len(data)  # fits the pipe's buffer
        os.close(write_fd)
        with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
            assert _outcome(load_behaviors, f"/dev/fd/{read_fd}", "clamp") == expected
    finally:
        os.close(read_fd)
    assert _parts(caplog) == "1 (not a regular file)"


def test_second_process_reads_the_open_file_not_the_path(tmp_path, two_cpus):
    """Replacing the file at `path` after it is opened changes neither half."""
    path = _write_rows(tmp_path / "b.csv", _GOOD * 3)
    expected = _outcome(reference_load_behaviors, path, "clamp")
    replacement = _write_rows(tmp_path / "other.csv", [["L9", "test_time", "1"]] * 200)

    def split_then_replace(fd):
        split = ingest._split_point(fd)
        assert split[0] is not None, split
        os.replace(replacement, path)
        return split

    assert _outcome(
        lambda *args, policy: ingest._load(*args, policy, split_then_replace, ingest._forked),
        path, "clamp",
    ) == expected


# -- plain rows ----------------------------------------------------------------


def _csv_rows(path, rows, terminator="\n"):
    """Rows as `csv.writer` writes them: a cell holding ',', '"' or a line end is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator=terminator).writerows(
            [["learner_id", "variable", "value"], *rows]
        )
    return path


_PLAIN = [["L1", "test_time", "1.5"], [" L2 ", "test_time", "2"], ["L1", " mean_gap", "3"],
          ["L2", "mystery", "4"], ["L1", "test_time ", "5"], ["L1", "test_time", "6"]]


@seed(22)
@settings(max_examples=100, deadline=None)
# a '"' first seen in a later piece, after heads that repeat out of order
@example(rows=_PLAIN + [['Roe "Rick", Jr.', "test_time", "7"]] + _PLAIN, policy="clamp",
         terminator="\r\n", chunk=16)
# a blank row ends a piece; an undeclared variable under each policy
@example(rows=_PLAIN[:3] + [[" ", "", "\t"], []] + _PLAIN, policy="strict", terminator="\n",
         chunk=40)
@example(rows=_PLAIN + [["L3", "test_time", "inf"]], policy="clamp", terminator="\n", chunk=3)
@given(
    rows=st.lists(_row(learners=st.sampled_from(["L1", "L2", "L3", 'Roe "Rick", Jr.'])),
                  max_size=30),
    policy=st.sampled_from(["clamp", "strict"]),
    terminator=st.sampled_from(["\n", "\r\n"]),
    chunk=st.integers(1, 64),
)
def test_plain_pieces_match_reference_loader_at_every_split(
    tmp_path_factory, rows, policy, terminator, chunk
):
    """Pieces of a few bytes put a piece boundary at every place in some file."""
    path = _csv_rows(tmp_path_factory.mktemp("rows") / "b.csv", rows, terminator)
    expected = _outcome(reference_load_behaviors, path, policy)
    with patch.object(ingest, "_SCAN_CHUNK", chunk):
        assert _outcome(_split_at(None), path, policy) == expected
        for split in _splits(path):
            assert _outcome(_split_at(split), path, policy) == expected, split


def test_plain_rows_never_reach_the_csv_reader(tmp_path, caplog, monkeypatch, two_cpus):
    """Blank rows, padded cells, undeclared variables and CRLF ends are all read plainly."""
    rows = (_PLAIN + [[], ["  ", " "], ["L3", "peak_difficulty", " 7.25 "]]) * 40
    path = _write_rows(tmp_path / "b.csv", rows, "\r\n")
    expected = _outcome(reference_load_behaviors, path, "clamp")

    def refuse(*args):
        raise AssertionError("a plain row reached the csv reader")

    monkeypatch.setattr(ingest, "_fill", refuse)
    monkeypatch.setattr(ingest, "_SCAN_CHUNK", 100)
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        assert _outcome(load_behaviors, path, "clamp") == expected
    assert _parts(caplog) == "2"
    assert _outcome(_split_at(None), path, "clamp") == expected


@pytest.mark.parametrize(
    "end",
    [
        # a last line without a line end
        "", "\r", "\r\n", " ", "L2,test_time", "L2,test_time,x",
        # a "\r" outside a "\r\n" ends a record, unquoted
        "L3\r,test_time,1\n", "L3,test_time\r,1\n", "L3,test_time,1\rL3,test_time,2\n",
    ],
)
def test_last_lines_match_reference_loader(tmp_path, end):
    path = tmp_path / "b.csv"
    path.write_bytes(("learner_id,variable,value\nL1,test_time,1\nL2,test_time,2\n" + end).encode())
    expected = _outcome(reference_load_behaviors, path, "clamp")
    with patch.object(ingest, "_SCAN_CHUNK", 8):
        assert _outcome(_split_at(None), path, "clamp") == expected
        for split in _splits(path):
            assert _outcome(_split_at(split), path, "clamp") == expected, split


def test_split_inside_a_quoted_line_end_matches_one_part_read(tmp_path):
    """A split need not end a record: `_plain` stops at the quote before it, so no merge."""
    rows = [["L1", "test_time", "1"], ["two\nlines", "test_time", "2"], ["L2", "test_time", "3"]]
    path = _csv_rows(tmp_path / "b.csv", rows * 3)
    split = path.read_bytes().index(b"two\n") + len(b"two\n")
    assert split in _splits(path)
    expected = _outcome(_split_at(None), path, "clamp")
    assert expected == _outcome(reference_load_behaviors, path, "clamp")
    assert _outcome(_split_at(split), path, "clamp") == expected


# A value `float` reads but `csv.reader` refuses: longer than its field size limit.
_LONG = " " * csv.field_size_limit() + "1"


@pytest.mark.parametrize("records_before", [5, 45])
def test_field_over_the_size_limit_is_a_row_error_in_either_half(tmp_path, records_before):
    rows = _GOOD + _GOOD[:5]
    rows.insert(records_before - 1, ["L3", "test_time", _LONG])
    path = _write_rows(tmp_path / "b.csv", rows)
    expected = _outcome(reference_load_behaviors, path, "clamp")
    message = f"line {records_before + 1}: field larger than field limit ({csv.field_size_limit()})"
    assert expected == (MalformedRowError, message, records_before + 1)
    split = _splits(path)[24]  # after record 25
    assert _outcome(_split_at(split, ingest._forked), path, "clamp") == expected
    assert _outcome(_split_at(None), path, "clamp") == expected


@pytest.mark.parametrize(
    "text, line",
    [(f"learner_id,score\nL1,1\n\nL2,{_LONG}\nL3,2\n", 4), (f"learner_id,{_LONG}\nL1,1\n", 1)],
)
def test_field_over_the_size_limit_is_a_row_error_in_a_learner_file(tmp_path, text, line):
    path = _write(tmp_path, "s.csv", text)
    with pytest.raises(MalformedRowError) as exc_info:
        load_scores(path)
    assert exc_info.value.line == line
    assert str(exc_info.value) == (
        f"line {line}: field larger than field limit ({csv.field_size_limit()})"
    )


# -- questionnaire -----------------------------------------------------------


def test_questionnaire_valid_row(tmp_path):
    path = _write(tmp_path, "q.csv", "learner_id,dimension,score\n\nL1,entrance,8\n , ,\t\n \n")
    records = load_questionnaire(path)
    assert len(records) == 1
    assert records[0].learner_id == "L1"
    assert records[0].dimension == "entrance"
    assert records[0].score == 8.0


def test_questionnaire_score_out_of_range(tmp_path):
    path = _write(tmp_path, "q.csv", "learner_id,dimension,score\nL1,entrance,12\n")
    with pytest.raises(ScoreOutOfRangeError):
        load_questionnaire(path)


def test_questionnaire_duplicate_entry(tmp_path):
    path = _write(
        tmp_path,
        "q.csv",
        "learner_id,dimension,score\nL1,entrance,8\nL1,entrance,8\n",
    )
    with pytest.raises(DuplicateEntryError):
        load_questionnaire(path)


def test_questionnaire_unknown_dimension(tmp_path):
    path = _write(tmp_path, "q.csv", "learner_id,dimension,score\nL1,sideways,8\n")
    with pytest.raises(UnknownDimensionError):
        load_questionnaire(path)


# -- scores and satisfaction -------------------------------------------------


def test_load_scores(tmp_path):
    path = _write(tmp_path, "s.csv", "learner_id,score\nL1,17.5\n\n , \n,,\nL2,12\n")
    assert load_scores(path) == {"L1": 17.5, "L2": 12.0}


def test_load_scores_duplicate(tmp_path):
    path = _write(tmp_path, "s.csv", "learner_id,score\nL1,17.5\n\t\nL1,12\n")
    with pytest.raises(DuplicateEntryError, match="^line 4: "):
        load_scores(path)


def test_load_satisfaction(tmp_path):
    path = _write(
        tmp_path,
        "sat.csv",
        "learner_id,q1,q2,q3,q4,q5,q6,q7\n , , , , , , , \nL1,5,4,3,4,5,4,5\n\n",
    )
    assert load_satisfaction(path) == {"L1": (5.0, 4.0, 3.0, 4.0, 5.0, 4.0, 5.0)}


@pytest.mark.parametrize(
    "row, message",
    [("L1,9,4,4,4,4,4,4", "line 3: q1 9.0 outside [1.0, 5.0]"),
     ("L1,4,4,4,4,4,4,0.5", "line 3: q7 0.5 outside [1.0, 5.0]"),
     ("L1,4,0,4,4,4,4,9", "line 3: q2 0.0 outside [1.0, 5.0]")],
)
def test_satisfaction_item_outside_the_likert_range_is_a_row_error(tmp_path, row, message):
    path = _write(tmp_path, "sat.csv", f"learner_id,q1,q2,q3,q4,q5,q6,q7\nL0,1,2,3,4,5,4,3\n{row}\n")
    with pytest.raises(ScoreOutOfRangeError) as exc_info:
        load_satisfaction(path)
    assert str(exc_info.value) == message


# -- coverage ----------------------------------------------------------------


def test_coverage_flags_missing_feature(rb, tmp_path):
    complete = {v.name: 1.0 for v in rb.variables if v.kind == "input"}
    partial = {k: v for k, v in complete.items() if k != "exam_time"}
    report = feature_coverage(BehaviorTable.of([("L1", complete), ("L2", partial)]), rb)
    by_dim = {c.dimension: c for c in report.dimensions}
    assert by_dim["perception"].covered == 1
    assert by_dim["perception"].flagged == (("L2", ("exam_time",)),)
    assert by_dim["processing"].fraction == 1.0


def test_coverage_full_cohort(rb):
    complete = {v.name: 1.0 for v in rb.variables if v.kind == "input"}
    report = feature_coverage(BehaviorTable.of((f"L{i}", complete) for i in range(5)), rb)
    assert all(c.fraction == 1.0 for c in report.dimensions)


def test_coverage_empty_cohort(rb):
    report = feature_coverage(BehaviorTable.of([]), rb)
    assert report.total_learners == 0
    assert all(c.learners == 0 for c in report.dimensions)


# -- the behaviours table ------------------------------------------------------


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_table_of_refuses_a_value_that_is_not_finite(value):
    # NaN marks an absent value, so a pair may not give one as a value.
    with pytest.raises(ValueError) as exc_info:
        BehaviorTable.of([("L1", {"effort": 1.0}), ("L 2", {"effort": 2.0, "pace": value})])
    assert str(exc_info.value) == f"learner 'L 2': pace value {value!r} is not finite"


def test_table_of_gives_a_column_per_variable_named():
    table = BehaviorTable.of([("L1", {"effort": 1}), ("L2", {"pace": 2.5, "effort": 3.0})])
    assert table.ids == ["L1", "L2"]
    assert list(table.columns) == ["effort", "pace"]
    assert table.columns["effort"] == [1.0, 3.0]
    assert repr(table.columns["pace"]) == "[nan, 2.5]"
    assert repr(table.column("idle")) == "[nan, nan]"
    assert learner_values(table) == [("L1", {"effort": 1.0}), ("L2", {"effort": 3.0, "pace": 2.5})]


def test_tables_with_the_same_absent_cells_are_equal():
    # Each NaN below is its own object, and list equality matches NaN only by identity.
    pairs = BehaviorTable.of([("L1", {"x": 1.0}), ("L2", {"y": 2.0})])
    columns = BehaviorTable(["L1", "L2"], {"x": [1.0, float("nan")], "y": [float("nan"), 2.0]})
    assert pairs == columns and not pairs != columns
    assert pairs != BehaviorTable(["L1", "L2"], {"x": [1.0, 2.0], "y": [float("nan"), 2.0]})
    assert pairs != BehaviorTable(["L1", "L2"], {"x": [float("nan"), 1.0], "y": [float("nan"), 2.0]})
    assert pairs != BehaviorTable(["L1", "L2"], {"x": [1.0, float("nan")]})
    assert pairs != BehaviorTable(["L2", "L1"], {"x": [1.0, float("nan")], "y": [float("nan"), 2.0]})
    assert pairs != BehaviorTable(["L1", "L2"], {"x": [1.0], "y": [float("nan"), 2.0]})
