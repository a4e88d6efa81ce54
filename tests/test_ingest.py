import csv
import logging
import os
import random
import threading
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_load_behaviors
from stylegroup import ingest
from stylegroup.dsl import parse_variables
from stylegroup.ingest import (
    DuplicateEntryError,
    IngestError,
    MalformedRowError,
    NonFiniteValueError,
    ScoreOutOfRangeError,
    UndeclaredVariableError,
    UnknownDimensionError,
    ValueOutOfUniverseError,
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
    records, report = load_behaviors(path, VARS)
    assert len(records) == 1
    assert records[0].features["discussion_participation"] == 4.0
    assert report.clamp_count == 0


def test_clamp_to_bound(tmp_path):
    path = _write(
        tmp_path, "b.csv", "learner_id,variable,value\nL1,discussion_participation,99\n"
    )
    records, report = load_behaviors(path, VARS, policy="clamp")
    assert records[0].features["discussion_participation"] == 15.0
    assert report.clamp_count == 1
    assert report.clamped[0] == ("L1", "discussion_participation", 99.0, 15.0)


def test_clamp_never_moves_in_range_values(tmp_path):
    path = _write(
        tmp_path, "b.csv", "learner_id,variable,value\nL1,discussion_participation,7.25\n"
    )
    records, report = load_behaviors(path, VARS, policy="clamp")
    assert records[0].features["discussion_participation"] == 7.25
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
    records, report = load_behaviors(path, VARS, policy="clamp")
    assert records[0].features == {"test_time": 10.0}
    assert report.skipped_unknown == [("L1", "mystery")]


def test_max_expected_rescales_to_percent(tmp_path):
    path = _write(tmp_path, "b.csv", "learner_id,variable,value\nL1,lesson_minutes,50\n")
    records, _ = load_behaviors(path, VARS)
    assert records[0].features["lesson_minutes"] == 25.0


def test_aggregation_modes(tmp_path):
    path = _write(
        tmp_path,
        "b.csv",
        "learner_id,variable,value\n"
        "L1,peak_difficulty,30\nL1,peak_difficulty,80\nL1,peak_difficulty,55\n"
        "L1,mean_gap,10\nL1,mean_gap,30\n",
    )
    records, _ = load_behaviors(path, VARS)
    assert records[0].features["peak_difficulty"] == 80.0
    assert records[0].features["mean_gap"] == 20.0


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
        records, _ = load_behaviors(_write(tmp_path, "b.csv", text), VARS)
        snapshot = {r.learner_id: dict(r.features) for r in records}
        if baseline is None:
            baseline = snapshot
        assert snapshot == baseline


def test_strict_pass_implies_clamp_identical(tmp_path):
    path = _write(
        tmp_path,
        "b.csv",
        "learner_id,variable,value\nL1,discussion_participation,4\nL1,test_time,55\n",
    )
    strict_records, _ = load_behaviors(path, VARS, policy="strict")
    clamp_records, report = load_behaviors(path, VARS, policy="clamp")
    assert strict_records == clamp_records
    assert report.clamp_count == 0 and not report.skipped_unknown


def test_rfc4180_quoting(tmp_path):
    path = _write(
        tmp_path, "b.csv", 'learner_id,variable,value\n"L 1",discussion_participation,"3"\n'
    )
    records, _ = load_behaviors(path, VARS)
    assert records[0].learner_id == "L 1"


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


def _outcome(load, path, policy):
    try:
        records, report = load(path, VARS, policy=policy)
    except IngestError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(r.learner_id, repr(list(r.features.items()))) for r in records], repr(report)


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
    monkeypatch.setattr(threading, "active_count", lambda: 1)


@contextmanager
def _in_process(work):
    """Run a second part's work here, in place of `ingest._forked`."""
    yield work


def _splits(path):
    """Every (records before, byte offset) split at a line end after the header."""
    data = path.read_bytes()
    header_end = data.index(b"\n") + 1
    return [
        (data.count(b"\n", 0, offset), offset)
        for offset in range(header_end, len(data) + 1)
        if data[offset - 1 : offset] == b"\n"
    ]


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
    for split in _splits(path):
        assert _outcome(_split_at(split), path, policy) == expected, split


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
    (split,) = [split for split in _splits(path) if split[0] == 30]
    assert _outcome(_split_at(split, ingest._forked), path, policy) == expected


def _padded_row(size):
    """A good row of exactly `size` bytes."""
    return b"L1,test_time,1.25" + b" " * (size - 18) + b"\n"


def test_undecodable_second_half_is_read_again_here(tmp_path):
    """A row error the second process meets first loses to bad UTF-8 that a one-part read decodes first.

    Text is decoded 8 KiB at a time from where the reader starts. The split
    sits half a chunk off the one-part read's chunk grid, and the bad row
    ends the second process's first chunk: that process parses the row
    before it reaches the bad byte, while a one-part read decodes both at
    once and fails on the byte. The second process gives no result, and
    this process reads the second half again on the one-part read's grid.
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
    split = (first.count(b"\n"), offset)
    for run in (_in_process, ingest._forked):
        got = _exception(_split_at(split, run), path)
        assert (type(got), str(got)) == (type(expected), str(expected))
    # With the bad byte out of the way, the row error is raised at its record.
    path.write_bytes(first + second + _padded_row(18) * 200)
    assert _exception(_split_at(split, ingest._forked), path).line == 1137 + 455


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
        (lines, _), _ = ingest._split_point(handle.fileno())
    assert lines < len(_GOOD) * 2 + 2  # a bad row is in the second half
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
        ('"L1",test_time,1\n', "1 (quote in first half)"),
        ("L1,test_time,1\r", "1 (CR in first half)"),
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

    good = _write_rows(tmp_path / "good.csv", _GOOD * 3)
    bad = _write_rows(tmp_path / "bad.csv", [["L1", "test_time", "x"]] + _GOOD * 3)
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        assert _outcome(
            lambda *args, policy: ingest._load(*args, policy, ingest._split_point, counted),
            good, "clamp",
        ) == _outcome(reference_load_behaviors, good, "clamp")
    assert _parts(caplog) == "2"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(MalformedRowError):
        ingest._load(bad, VARS, "clamp", ingest._split_point, counted)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2


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
    monkeypatch.setattr(threading, "active_count", lambda: threads)
    path = _write_rows(tmp_path / "b.csv", _GOOD)
    with caplog.at_level(logging.INFO, logger="stylegroup.ingest"):
        got = _outcome(load_behaviors, path, "clamp")
    assert _parts(caplog) == parts
    assert got == _outcome(reference_load_behaviors, path, "clamp")


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


# -- coverage ----------------------------------------------------------------


def test_coverage_flags_missing_feature(rb, tmp_path):
    complete = {v.name: 1.0 for v in rb.variables if v.kind == "input"}
    partial = {k: v for k, v in complete.items() if k != "exam_time"}
    from stylegroup.ingest import BehaviorRecord

    records = [BehaviorRecord("L1", complete), BehaviorRecord("L2", partial)]
    report = feature_coverage(records, rb)
    by_dim = {c.dimension: c for c in report.dimensions}
    assert by_dim["perception"].covered == 1
    assert by_dim["perception"].flagged == (("L2", ("exam_time",)),)
    assert by_dim["processing"].fraction == 1.0


def test_coverage_full_cohort(rb):
    from stylegroup.ingest import BehaviorRecord

    complete = {v.name: 1.0 for v in rb.variables if v.kind == "input"}
    records = [BehaviorRecord(f"L{i}", dict(complete)) for i in range(5)]
    report = feature_coverage(records, rb)
    assert all(c.fraction == 1.0 for c in report.dimensions)


def test_coverage_empty_cohort(rb):
    report = feature_coverage([], rb)
    assert report.total_learners == 0
    assert all(c.learners == 0 for c in report.dimensions)
