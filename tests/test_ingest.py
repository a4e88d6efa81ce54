import csv
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_load_behaviors
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
def _value_text(draw):
    if draw(st.integers(0, 11)) == 0:
        return draw(_padded(_BAD_VALUES))
    value = draw(st.floats(-40.0, 120.0) | st.integers(-40, 120))
    return draw(_padded(st.just(repr(value))))


@st.composite
def _row(draw):
    kind = draw(st.integers(0, 39))
    if kind < 5:  # blank: 0 to 4 whitespace-only cells
        return draw(st.lists(_PAD, min_size=kind, max_size=kind))
    if kind == 5:  # non-blank, wrong width
        cells = [draw(_padded(_LEARNERS)), draw(_VARIABLES), draw(_value_text())]
        return cells[: draw(st.integers(1, 2))] if draw(st.booleans()) else cells + ["x"]
    learner = draw(_PAD) if kind == 6 else draw(_padded(_LEARNERS))
    return [learner, draw(_padded(_VARIABLES)), draw(_value_text())]


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
