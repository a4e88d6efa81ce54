import json
import logging
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from stylegroup.classify import (
    CohortTable,
    InsufficientPairsError,
    PairedRow,
    ValidationReport,
    classify_cohort,
    profiles_from_csv,
    profiles_to_csv,
    profiles_to_json,
    validate_against_questionnaire,
    validation_to_json,
)
from stylegroup.dsl import DIMENSIONS, load_rulebase, parse_rulebase
from stylegroup.fuzzy import strongest_term
from stylegroup.ingest import BehaviorTable, IngestError, QuestionnaireRecord, csv_text
from stylegroup.ingest import feature_coverage
from stylegroup.simulate import CohortSpec, generate
from stylegroup.stats import pearson_r

from conftest import cohort_table, learner_values, reference_csv_text, reference_profiles_csv
from conftest import reference_profiles_to_json
from conftest import riemann_centroid, rule_strength
from conftest import scaled_trap_envelope, table_rows
from test_cli import _cases


def _classify_one(learner, rb):
    """One (id, features) learner's (crisp score, label, memberships, fired rules) by dimension."""
    table, failures = classify_cohort(BehaviorTable.of([learner]), rb)
    assert not failures, failures
    [(_, results)] = table_rows(table)
    return {dimension: rest for dimension, *rest in results}


def _classify_failure(learner, rb):
    """The (learner, dimension, reason) failure of one learner that cannot be classified."""
    table, failures = classify_cohort(BehaviorTable.of([learner]), rb)
    assert len(table) == 0
    return (failures[0].learner_id, failures[0].dimension, failures[0].reason)


def _full_features(rb, overrides=None):
    """Feature set sitting on the prototype of one rule per dimension.

    Mid-universe values would leave some dimension with no firing rule, so
    the base values come from the first rule of each dimension.
    """
    features = {}
    for dimension in DIMENSIONS:
        rule = rb.rules_for(dimension)[0]
        features.update(_prototype_features(rb, rule))
    if overrides:
        features.update(overrides)
    return features


def _term_mid(rb, variable, label):
    spec = rb.variable(variable)
    trap = dict(spec.terms)[label]
    return trap.plateau_midpoint


def _prototype_features(rb, rule):
    return {
        name: _term_mid(rb, name, label) for name, label in rule.antecedent
    }


def test_reactive_prototype_classifies_reactive(rb):
    rule = next(r for r in rb.rules if r.rule_id == "proc1")
    record = ("L1", _full_features(rb, _prototype_features(rb, rule)))
    score, label, memberships, fired = _classify_one(record, rb)["processing"]
    assert label == "reactive"
    assert fired == (("proc1", 1.0),)
    # single-rule firing: the crisp score is the centroid of the consequent
    # trapezoid (0,0,6,8), inside its plateau
    oracle = riemann_centroid(scaled_trap_envelope([(1.0, (0, 0, 6, 8))]), 0.0, 12.0)
    assert score == pytest.approx(oracle, abs=1e-4)
    assert 0.0 <= score <= 6.0
    assert memberships["reactive"] == 1.0


def test_reflection_prototype_classifies_reflection(rb):
    rule = next(r for r in rb.rules if r.rule_id == "proc5")
    record = ("L1", _full_features(rb, _prototype_features(rb, rule)))
    _, label, _, _ = _classify_one(record, rb)["processing"]
    assert label == "reflection"


def test_profile_covers_all_dimensions_in_order(rb):
    table, _ = classify_cohort(BehaviorTable.of([("L1", _full_features(rb))]), rb)
    [(_, results)] = table_rows(table)
    assert tuple(r[0] for r in results) == DIMENSIONS
    [signature] = table.rows(1)
    assert len(signature) == 4


def test_balanced_inputs_fire_competing_rules_equally(mini_rulebase):
    # effort 6 gives both terms membership 0.5, so both rules fire at 0.5
    # and the crisp score is the centroid of the symmetric max-envelope.
    record = ("L1", {"effort": 6.0})
    score, _, _, fired = _classify_one(record, mini_rulebase)["processing"]
    assert dict(fired) == {"r_low": 0.5, "r_high": 0.5}
    oracle = riemann_centroid(
        scaled_trap_envelope([(0.5, (0, 0, 6, 8)), (0.5, (6, 8, 12, 12))]), 0.0, 12.0
    )
    assert score == pytest.approx(oracle, abs=1e-4)
    assert score == pytest.approx(34.25 / 5.75, abs=1e-9)


def test_single_rule_strength_does_not_move_centroid():
    # One-rule dimension: membership of "low" is 0.3 at effort 6.8 and 0.9
    # at effort 4.4, so only the strength changes, never the centroid.
    rb = parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,4,8) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) }

        RULE only: IF effort IS low THEN processing_score IS calm
        """
    )
    weak_score, _, _, weak_fired = _classify_one(("L1", {"effort": 6.8}), rb)["processing"]
    strong_score, _, _, strong_fired = _classify_one(("L2", {"effort": 4.4}), rb)["processing"]
    assert dict(weak_fired) == {"only": pytest.approx(0.3)}
    assert dict(strong_fired) == {"only": pytest.approx(0.9)}
    assert weak_score == pytest.approx(strong_score, abs=1e-12)


def test_missing_feature_error(rb):
    features = _full_features(rb)
    del features["exam_time"]
    assert _classify_failure(("L1", features), rb) == (
        "L1",
        None,
        "learner 'L1' has no value for 'exam_time'",
    )


def test_an_absent_column_and_a_nan_cell_fail_alike_in_rule_order(rb):
    # Rule proc1 reads discussion, chat, troubleshooting, test_time, ...: of
    # the two absent inputs, chat_participation comes first.
    features = _full_features(rb)
    lacking = {k: v for k, v in features.items() if k not in ("test_time", "chat_participation")}
    reason = "learner 'L1' has no value for 'chat_participation'"
    alone = BehaviorTable.of([("L1", lacking)])  # no such columns at all
    assert "chat_participation" not in alone.columns
    beside = BehaviorTable.of([("L1", lacking), ("L2", features)])  # NaN cells
    assert math.isnan(beside.columns["chat_participation"][0])
    for table in (alone, beside):
        classified, failures = classify_cohort(table, rb)
        assert classified.ids == table.ids[1:]
        assert [tuple(f) for f in failures] == [("L1", None, reason)]
    coverage = {c.dimension: c.flagged for c in feature_coverage(alone, rb).dimensions}
    assert coverage["processing"] == (("L1", ("chat_participation", "test_time")),)


def test_no_rule_fired_error():
    rb = parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,2,4) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) }

        RULE only: IF effort IS low THEN processing_score IS calm
        """
    )
    assert _classify_failure(("L1", {"effort": 10.0}), rb) == (
        "L1",
        "processing",
        "no rule fired for learner 'L1' in dimension 'processing'",
    )


def test_cohort_empty(rb):
    table, failures = classify_cohort(BehaviorTable.of([]), rb)
    assert (table.ids, table_rows(table), failures) == ([], [], [])
    # every dimension keeps its column, with no rows
    assert [(c.dimension, c.results, c.codes) for c in table.columns] == [
        (d, [], []) for d in DIMENSIONS
    ]


def test_cohort_refuses_a_repeated_learner_id(rb):
    # Grouping keys scores and signatures by id: a repeat would be grouped and in the control.
    features = _full_features(rb)
    ids = ["L0001", "L0002", "L0003", "L0002", "L0001", "L0004"]
    behaviors = BehaviorTable.of([(i, features) for i in ids])
    assert behaviors.ids == ids
    with pytest.raises(ValueError) as exc_info:
        classify_cohort(behaviors, rb)
    assert str(exc_info.value) == "learner 'L0002' is listed twice in the behaviours"
    # a hand-built table is refused alike
    with pytest.raises(ValueError, match="'L1' is listed twice"):
        classify_cohort(BehaviorTable(["L1", "L1"], {"x": [1.0, 2.0]}), rb)


def test_cohort_collects_failures(rb):
    good = ("L1", _full_features(rb))
    bad_features = _full_features(rb)
    del bad_features["audio_time"]
    bad = ("L2", bad_features)
    table, failures = classify_cohort(BehaviorTable.of([good, bad]), rb)
    assert table.ids == ["L1"]
    assert [f.learner_id for f in failures] == ["L2"]
    assert "audio_time" in failures[0].reason


def test_cohort_logs_one_line_only_at_info(caplog):
    rb = parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,2,4) high=(6,8,12,12) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) busy=(4,6,12,12) }

        RULE a: IF effort IS low THEN processing_score IS calm
        RULE b: IF effort IS high THEN processing_score IS busy
        """
    )
    behaviors = BehaviorTable.of([
        ("L1", {"effort": 1.0}),
        ("L2", {"effort": 1.0}),
        ("L3", {"effort": 10.0}),
        ("L4", {"effort": 5.0}),  # between the ramps: no rule fires
        ("L5", {}),
    ])
    with caplog.at_level(logging.WARNING, logger="stylegroup.classify"):
        classify_cohort(behaviors, rb)
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger="stylegroup.classify"):
        classify_cohort(behaviors, rb)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        (
            "stylegroup.classify",
            logging.INFO,
            "cohort: 5 learners, 3 classified, 1 missing-feature, 1 no-rule-fired, "
            "distinct crisp scores processing=2",
        )
    ]


def test_cohort_keeps_zero_and_negative_zero_apart(monkeypatch):
    # Results sharing a crisp score share memberships and label; 0.0 and
    # -0.0 compare equal but are written apart, so they are two results.
    from stylegroup import kernel

    rb = parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,2,4) high=(6,8,12,12) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) busy=(4,6,12,12) }

        RULE a: IF effort IS low THEN processing_score IS calm
        RULE b: IF effort IS high THEN processing_score IS busy
        """
    )
    crisp = np.array([0.0, -0.0, 0.0, -0.0, 7.0])

    def score_block(compiled, values):
        strengths = np.tile([1.0, 0.0], (len(values), 1))
        return np.full(len(values), -1), crisp[: len(values)], strengths

    monkeypatch.setattr(kernel, "score_block", score_block)
    behaviors = BehaviorTable.of((f"L{i}", {"effort": 1.0}) for i in range(5))
    table, failures = classify_cohort(behaviors, rb)
    assert not failures
    scores = [score for (score,) in table.rows(0)]
    assert [math.copysign(1.0, s) for s in scores] == [1.0, -1.0, 1.0, -1.0, 1.0]
    assert len(table.columns[0].results) == 3
    assert profiles_to_csv(table).splitlines()[1:] == [
        "L0,processing,0.0,calm", "L1,processing,-0.0,calm", "L2,processing,0.0,calm",
        "L3,processing,-0.0,calm", "L4,processing,7.0,busy",
    ]
    assert profiles_to_json(table) == reference_profiles_to_json(table_rows(table))


def test_cohort_determinism_and_permutation_invariance(rb):
    # audio_time walks down the "low" ramp so each learner differs slightly
    records = [(f"L{i}", _full_features(rb, {"audio_time": 20.0 + 3.0 * i})) for i in range(6)]
    first, _ = classify_cohort(BehaviorTable.of(records), rb)
    second, _ = classify_cohort(BehaviorTable.of(records), rb)
    assert table_rows(first) == table_rows(second)  # bit-identical results
    reversed_table, _ = classify_cohort(BehaviorTable.of(reversed(records)), rb)
    by_id = dict(table_rows(reversed_table))
    assert all(by_id[learner] == results for learner, results in table_rows(first))
    assert reversed_table.ids == [f"L{5 - i}" for i in range(6)]


def test_cohort_matches_learner_by_learner(rb, monkeypatch):
    # A noisy cohort over every producible signature, with a feature dropped
    # from every 23rd learner. Multi-term rows integrate kernel._CHUNK at a
    # time; at 7 they span several chunks.
    import itertools

    from stylegroup import kernel
    from stylegroup.simulate import CohortSpec, generate

    monkeypatch.setattr(kernel, "_CHUNK", 7)
    _CHUNK = kernel._CHUNK

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in DIMENSIONS]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=0.15, seed=3
    )
    _, generated = generate(spec, rb)
    records = learner_values(generated)
    for i, (_, features) in enumerate(records):
        if i % 23 == 0:
            del features[sorted(features)[i % len(features)]]
    assert len(records) > _CHUNK

    table, failures = classify_cohort(BehaviorTable.of(records), rb)
    rows = table_rows(table)
    term_of = {rule.rule_id: rule.consequent[1] for rule in rb.rules}
    multi = [
        sum(len({term_of[rule_id] for rule_id, _ in results[k][4]}) > 1 for _, results in rows)
        for k in range(len(DIMENSIONS))
    ]
    assert max(multi) > 2 * _CHUNK  # multi-term rows of one dimension span several chunks

    expected_rows, expected_failures = [], []
    for record in records:  # a learner's table lacks the column of a dropped feature
        alone, failed = classify_cohort(BehaviorTable.of([record]), rb)
        expected_rows.extend(table_rows(alone))
        expected_failures.extend((f.learner_id, f.dimension, f.reason) for f in failed)
    assert rows == expected_rows  # labels, memberships, fired rules, crisp scores
    assert [(f.learner_id, f.dimension, f.reason) for f in failures] == expected_failures

    # the cohort exercises every outcome the kernel distinguishes
    assert any(f.dimension is None for f in failures)
    assert any(f.dimension is not None for f in failures)
    assert any(len(r[4]) > 1 for _, results in rows for r in results)

    # firing strengths equal the scalar clause-by-clause product bit for bit
    features = dict(records)
    variables = {v.name: v for v in rb.variables}
    for learner, results in rows:
        for dimension, _, _, _, fired in results:
            expected = []
            for rule in rb.rules_for(dimension):
                degrees = [
                    variables[name].term(term).membership(features[learner][name])
                    for name, term in rule.antecedent
                ]
                strength = rule_strength(degrees)
                if strength > 0.0:
                    expected.append((rule.rule_id, strength))
            assert fired == tuple(expected)


def test_cohort_equals_integrating_every_row(rb, monkeypatch):
    # Every envelope is integrated here in one call, the single-term ones
    # included, and labelled by `strongest_term` of its memberships. The cohort
    # integrates its multi-term rows kernel._CHUNK (here 7) at a time.
    import itertools
    import math

    from stylegroup import kernel
    from stylegroup.simulate import CohortSpec, generate

    monkeypatch.setattr(kernel, "_CHUNK", 7)
    _CHUNK = kernel._CHUNK

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in DIMENSIONS]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=0.15, seed=11
    )
    records = learner_values(generate(spec, rb)[1])[:400]
    assert len(records) > _CHUNK

    expected = {learner: [] for learner, _ in records}  # (dimension, crisp, label) until a failure
    active_terms = set()
    multi = []  # multi-term rows per dimension, as the cohort integrates them
    for dimension in DIMENSIONS:
        compiled = rb.compile_dimension(dimension)
        variable = compiled.variable
        values = [[features[name] for name in compiled.inputs] for _, features in records]
        scales = kernel.term_strengths(compiled, kernel.firing_strengths(compiled, values))
        active_terms.update((scales > 0.0).sum(axis=1).tolist())
        multi.append(int(((scales > 0.0).sum(axis=1) > 1).sum()))
        crisp = kernel.centroids(variable.universe, [t for _, t in variable.terms], scales)
        for (learner, _), score in zip(records, crisp.tolist()):
            outcome = expected[learner]
            if outcome and outcome[-1][1] is None:
                continue  # an earlier dimension failed
            label = None if math.isnan(score) else strongest_term(variable.fuzzify(score))
            outcome.append((dimension, None if label is None else score, label))
    assert {0, 1, 2} <= active_terms  # zero-, single- and multi-term envelopes
    assert any(m > 2 * _CHUNK and m % _CHUNK for m in multi)  # full chunks and a part one

    table, failures = classify_cohort(BehaviorTable.of(records), rb)
    assert [(f.learner_id, f.dimension) for f in failures] == [
        (lid, outcome[-1][0]) for lid, outcome in expected.items() if outcome[-1][1] is None
    ]
    assert failures and len(table)
    for learner, scores, labels in zip(table.ids, table.rows(0), table.rows(1)):
        outcome = expected[learner]
        assert list(labels) == [label for _, _, label in outcome]
        for crisp_score, (_, score, _) in zip(scores, outcome):
            assert abs(crisp_score - score) <= 1e-12 * 12


def test_cohort_table_rows_read_its_columns(rb):
    behaviors = BehaviorTable.of(
        (f"L{i}", _full_features(rb, {"audio_time": 20.0 + 3.0 * i})) for i in range(4)
    )
    table, _ = classify_cohort(behaviors, rb)
    assert isinstance(table, CohortTable)
    rows = table_rows(table)
    assert len(table) == len(rows) == 4 and table.result_count() == 4 * len(DIMENSIONS)
    assert [learner for learner, _ in rows] == table.ids
    assert list(table.rows(0)) == [tuple(r[1] for r in results) for _, results in rows]
    assert list(table.rows(1)) == [tuple(r[2] for r in results) for _, results in rows]
    # the hand-written rows a test builds a table of read back as written
    rule_ids = {c.dimension: c.rule_ids for c in table.columns}
    assert table_rows(cohort_table(rows, rule_ids)) == rows


def _degree(x, corners):
    """A trapezoid's membership at x: 1 on [b, c], linear on the ramps, 0 outside [a, d]."""
    a, b, c, d = corners
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    return (x - a) / (b - a) if x < b else (d - x) / (d - c)


def _first_strongest(x, terms):
    """The term of largest membership at x; a tie goes to the first declared."""
    degrees = [_degree(x, corners) for _, corners in terms]
    return terms[degrees.index(max(degrees))][0]


@seed(13)
@settings(max_examples=40, deadline=None)
@given(_cases())
def test_random_rule_bases_score_and_label_as_an_independent_reference(case):
    """Each crisp score is the Riemann centroid of the strength-scaled consequents, and
    each label the term of largest membership there.

    Two learners per planted signature keep the Riemann oracle cheap.
    """
    rb = load_rulebase(case.fvars, case.frules)
    spec = CohortSpec.from_json_dict(case.spec)
    spec = spec._replace(counts=tuple((sig, 2) for sig, _ in spec.counts), seed=case.seed)
    behaviors = generate(spec, rb)[1]
    features = dict(learner_values(behaviors))
    table, _ = classify_cohort(behaviors, rb)
    corners_of = {v.name: {label: trap.corners() for label, trap in v.terms} for v in rb.variables}
    checked = 0
    for column in table.columns:
        output = rb.output_for(column.dimension)
        lo, hi = output.universe
        terms = [(label, trap.corners()) for label, trap in output.terms]
        rules = rb.rules_for(column.dimension)
        for learner, score, label in zip(table.ids, column.cells(0), column.cells(1)):
            contributions = []
            for rule in rules:
                degrees = [_degree(features[learner][name], corners_of[name][term])
                           for name, term in rule.antecedent]
                strength = rule_strength(degrees)
                if strength > 0.0:
                    contributions.append((strength, corners_of[output.name][rule.consequent[1]]))
            # Integer corners sit on the grid, so a vertical edge costs the oracle nothing.
            points = int(hi - lo) * 10_000
            expected = riemann_centroid(scaled_trap_envelope(contributions), lo, hi, points)
            assert score == pytest.approx(expected, abs=1e-6), (learner, column.dimension)
            near = {_first_strongest(x, terms) for x in (score - 1e-6, score, score + 1e-6)}
            if len(near) == 1:  # no tie within 1e-6 of the score
                assert label == near.pop(), (learner, column.dimension, score)
            checked += 1
    assert checked == len(table) * len(table.columns)


# -- questionnaire validation --------------------------------------------------


def _synthetic_table(scores_by_learner):
    return cohort_table(
        (learner_id, tuple((d, score, "x", {}, ()) for d, score in zip(DIMENSIONS, scores)))
        for learner_id, scores in scores_by_learner.items()
    )


def _questionnaire(table, score_of, learners=slice(None)):
    """A questionnaire record of score_of(crisp score) per (learner, dimension) of the table."""
    return [
        QuestionnaireRecord(learner, dimension, score_of(score))
        for learner, results in table_rows(table)[learners]
        for dimension, score, *_ in results
    ]


def test_validation_affine_copy_gives_perfect_r():
    table = _synthetic_table(
        {
            "L1": (1.0, 2.0, 3.0, 4.0),
            "L2": (2.0, 1.0, 5.0, 3.0),
            "L3": (4.0, 6.0, 2.0, 9.0),
            "L4": (3.0, 3.0, 7.0, 1.0),
        }
    )
    questionnaire = _questionnaire(table, lambda score: 0.5 * score + 1.0)
    report = validate_against_questionnaire(table, questionnaire)
    for r in report.per_dimension_r.values():
        assert r == pytest.approx(1.0, abs=1e-12)
    assert report.overall_r == pytest.approx(
        pearson_r(
            [row.crisp_score for row in report.rows],
            [row.questionnaire_score for row in report.rows],
        ),
        abs=0,
    )
    assert report.unmatched_profile_entries == 0
    assert report.unmatched_questionnaire_entries == 0


def test_validation_negated_scores_give_minus_one():
    table = _synthetic_table(
        {"L1": (1.0, 2.0, 3.0, 4.0), "L2": (2.0, 5.0, 1.0, 3.0), "L3": (4.0, 1.0, 6.0, 8.0)}
    )
    questionnaire = _questionnaire(table, lambda score: 11.0 - score)
    report = validate_against_questionnaire(table, questionnaire)
    assert all(r == pytest.approx(-1.0, abs=1e-12) for r in report.per_dimension_r.values())


def test_validation_inner_join_drops_and_counts():
    table = _synthetic_table(
        {
            "L1": (1.0, 2.0, 3.0, 4.0),
            "L2": (2.0, 1.0, 5.0, 3.0),
            "L3": (4.0, 6.0, 2.0, 9.0),
            "L4": (3.0, 3.0, 7.0, 1.0),
        }
    )
    questionnaire = _questionnaire(table, lambda score: score, slice(3))
    questionnaire.append(QuestionnaireRecord("L99", "processing", 5.0))
    report = validate_against_questionnaire(table, questionnaire)
    assert report.unmatched_profile_entries == 4
    assert report.unmatched_questionnaire_entries == 1


def test_validation_insufficient_pairs():
    table = _synthetic_table({"L1": (1.0, 2.0, 3.0, 4.0), "L2": (2.0, 1.0, 5.0, 3.0)})
    questionnaire = _questionnaire(table, lambda score: 1.0)
    with pytest.raises(InsufficientPairsError):
        validate_against_questionnaire(table, questionnaire)


def test_validation_names_the_dimension_when_every_learner_failed(rb):
    features = _full_features(rb)
    del features["exam_time"]
    table, failures = classify_cohort(BehaviorTable.of([("L1", features), ("L2", features)]), rb)
    assert len(table) == 0 and len(failures) == 2
    questionnaire = [QuestionnaireRecord(learner, d, 5.0) for learner in ("L1", "L2", "L3")
                     for d in DIMENSIONS]
    with pytest.raises(InsufficientPairsError) as exc_info:
        validate_against_questionnaire(table, questionnaire)
    assert exc_info.value.dimension == "processing"
    assert str(exc_info.value) == "dimension 'processing' has 0 paired learners, need at least 3"


# Ids and dimensions with JSON specials, control characters and non-ASCII text.
_JSON_TEXT = st.text(alphabet='ab"\\,\x00\x1f\x7f\t\r\n é中😀', max_size=5)
# Finite scores, subnormals and -0.0 included, and the largest finite float.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308]
)
_COEFFICIENT = st.none() | _FINITE
_PAIRED_ROWS = st.lists(
    st.builds(PairedRow, _JSON_TEXT, st.sampled_from(DIMENSIONS) | _JSON_TEXT, _FINITE, _FINITE),
    max_size=8,
)


@given(
    st.builds(
        ValidationReport,
        st.dictionaries(st.sampled_from(DIMENSIONS) | _JSON_TEXT, _COEFFICIENT, max_size=4),
        _COEFFICIENT,
        _COEFFICIENT,
        _PAIRED_ROWS.map(tuple),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
)
@example(ValidationReport({}, None, None, (), 0, 0))
def test_validation_json_equals_json_dumps(report):
    expected = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert validation_to_json(report) == expected


def test_low_noise_synthetic_cohort_correlates(rb):
    from stylegroup.kernel import centroids
    from stylegroup.simulate import CohortSpec, generate

    signatures = [
        ("reactive", "sensory", "visual", "consecutive"),
        ("reflection", "intuitive", "verbal", "sequential_global"),
        ("reactive", "intuitive", "visual", "sequential_global"),
        ("reflection", "sensory", "verbal", "consecutive"),
    ]
    spec = CohortSpec(counts=tuple((s, 20) for s in signatures), noise_sigma=0.05, seed=5)
    truth, behaviors = generate(spec, rb)
    table, failures = classify_cohort(behaviors, rb)
    assert not failures

    prototype = {}
    for dimension in DIMENSIONS:
        out_var = rb.output_for(dimension)
        for label, trap in out_var.terms:
            prototype[(dimension, label)] = float(centroids(out_var.universe, [trap], [[1.0]])[0])
    truth_map = dict(truth)
    questionnaire = [
        QuestionnaireRecord(learner, dimension, prototype[(dimension, label)])
        for learner, signature in truth_map.items()
        for dimension, label in zip(DIMENSIONS, signature)
    ]
    report = validate_against_questionnaire(table, questionnaire)
    for dimension, r in report.per_dimension_r.items():
        assert r >= 0.8, f"{dimension}: r={r}"


# -- export ----------------------------------------------------------------------


def test_profiles_csv_round_trip(rb, tmp_path):
    behaviors = BehaviorTable.of((f"L{i}", _full_features(rb)) for i in range(3))
    table, _ = classify_cohort(behaviors, rb)
    path = tmp_path / "profiles.csv"
    path.write_text(profiles_to_csv(table), encoding="utf-8")
    rebuilt = profiles_from_csv(path)
    assert rebuilt.ids == table.ids
    assert [c.dimension for c in rebuilt.columns] == list(DIMENSIONS)
    assert list(rebuilt.rows(1)) == list(table.rows(1))
    assert list(rebuilt.rows(0)) == list(table.rows(0))
    # profiles.csv keeps no fired rules and no memberships
    assert all(results == tuple((d, s, label, {}, ()) for d, s, label, _, _ in results)
               for _, results in table_rows(rebuilt))


# (id, row after L1's, the reader's message)
_CORRUPT_PROFILE_ROWS = [
    ("L2,processing,nan,reactive-crisp score 'nan' for 'processing' is not a finite number",
     "L2,processing,nan,reactive", "line 3: crisp_score 'nan' is not finite"),
    ("L2,processing,-inf,reactive-crisp score '-inf' for 'processing' is not a finite number",
     "L2,processing,-inf,reactive", "line 3: crisp_score '-inf' is not finite"),
    ("L2,processing,high,reactive-crisp score 'high' for 'processing' is not a finite number",
     "L2,processing,high,reactive", "line 3: crisp_score 'high' is not a number"),
    ("L2,processing,7.5-profile row has 3 fields, expected 4",
     "L2,processing,7.5", "line 3: expected 4 fields, got 3"),
    ("L2,processing,7.5,reactive,x-profile row has 5 fields, expected 4",
     "L2,processing,7.5,reactive,x", "line 3: expected 4 fields, got 5"),
    ("L2,perception,7.5,intuitive-dimensions perception differ from the first learner's "
     "processing",
     "L2,perception,7.5,intuitive",
     "learner 'L2': dimensions perception differ from the first learner's processing"),
    ("L2,processing,7.5,reactive\nL2,processing,7.5,reactive-dimensions processing, processing "
     "differ from the first learner's processing",
     "L2,processing,7.5,reactive\nL2,processing,7.5,reactive",
     "learner 'L2': dimensions processing, processing differ from the first learner's processing"),
    ("empty-learner-id", ",processing,7.5,reactive", "line 3: empty learner_id"),
    ("learner-dimension-listed-twice", "L1,processing,3.5,reactive",
     "learner 'L1': dimension 'processing' listed twice"),
]


@pytest.mark.parametrize(
    "row, message",
    [case[1:] for case in _CORRUPT_PROFILE_ROWS],
    ids=[case[0] for case in _CORRUPT_PROFILE_ROWS],
)
def test_profiles_from_csv_rejects_corrupt_rows(tmp_path, row, message):
    path = tmp_path / "profiles.csv"
    path.write_text(
        f"learner_id,dimension,crisp_score,label\nL1,processing,3.5,reactive\n{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(IngestError) as exc_info:
        profiles_from_csv(path)
    assert str(exc_info.value) == message


def _profile_rows(learner_id, *dimensions):
    """profiles.csv rows of a learner scoring 1, 2, ... in the given dimensions, in that order."""
    return "".join(f"{learner_id},{d},{float(n)!r},calm\n" for n, d in enumerate(dimensions, 1))


# profiles.csv files whose learners do not all list the first learner's dimensions once each.
_FIRST = _profile_rows("L1", "processing", "perception")
_TWICE = ("processing", "processing")
_UNSHAPED_FILES = [
    ("ragged", _FIRST + _profile_rows("L2", "processing"),
     "learner 'L2': dimensions processing differ from the first learner's processing, perception"),
    ("reordered", _FIRST + _profile_rows("L2", "perception", "processing"),
     "learner 'L2': dimensions perception, processing differ from the first learner's "
     "processing, perception"),
    ("repeated", _profile_rows("L1", *_TWICE) + _profile_rows("L2", *_TWICE),
     "learner 'L1': dimension 'processing' listed twice"),
]


@pytest.mark.parametrize(
    "rows, message",
    [case[1:] for case in _UNSHAPED_FILES],
    ids=[case[0] for case in _UNSHAPED_FILES],
)
def test_profiles_from_csv_refuses_learners_of_other_dimensions(tmp_path, rows, message):
    # Averaging position by position would mix dimensions, or lengths, into a centroid.
    path = tmp_path / "profiles.csv"
    path.write_text("learner_id,dimension,crisp_score,label\n" + rows, encoding="utf-8")
    with pytest.raises(IngestError) as from_csv:
        profiles_from_csv(path)
    assert str(from_csv.value) == message


def test_profiles_json_contains_fired_rules(rb):
    import json

    table, _ = classify_cohort(BehaviorTable.of([("L1", _full_features(rb))]), rb)
    payload = json.loads(profiles_to_json(table))
    assert payload[0]["learner_id"] == "L1"
    first = payload[0]["results"][0]
    assert {"dimension", "crisp_score", "label", "term_memberships", "fired_rules"} <= set(
        first
    )


# Ids and names with JSON escapes, CSV specials and non-ASCII characters.
_ODD_TEXT = st.text(alphabet='ab"\\,\r\n é中😀', min_size=1, max_size=5)
_TERMS = st.sampled_from(["calm", "busy", 'o"dd'])
# Numbers of other types besides floats. Values that compare equal but
# are written differently (0.0 and -0.0, 1 and 1.0, 1 and True) must not
# share a formatted fragment.
_EQUAL_BUT_WRITTEN_APART = st.sampled_from(
    [0.0, -0.0, 0, False, np.float64(-0.0), 1.0, 1, True, np.float64(1.0)]
)


def _numbers(floats):
    return floats | floats.map(np.float64) | _EQUAL_BUT_WRITTEN_APART


def _results(dimension):
    """A result in the given dimension."""
    return st.tuples(
        st.just(dimension),
        # Few distinct scores, so equal scores meet different labels and memberships.
        st.sampled_from([3.5, 1e-300]) | _numbers(st.floats()),
        _TERMS,
        # An OrderedDict is written as a dict is, though marshal cannot write it.
        st.dictionaries(_TERMS, st.sampled_from([0.5]) | _numbers(st.floats(0, 1))).flatmap(
            lambda d: st.sampled_from([d, OrderedDict(d)])
        ),
        # Kernel strengths: products of memberships, so in (0, 1] where a rule fired.
        st.dictionaries(
            st.sampled_from(["r1", "r2"]) | _ODD_TEXT,
            st.sampled_from([1.0, 0.5, 1e-300]) | st.floats(0, 1, exclude_min=True),
            max_size=3,
        ).map(lambda fired: tuple(fired.items())),
    ) | st.tuples(  # results that are equal to one another but written apart
        st.just(dimension),
        _EQUAL_BUT_WRITTEN_APART,
        st.just("calm"),
        st.fixed_dictionaries({"calm": _EQUAL_BUT_WRITTEN_APART, "busy": _EQUAL_BUT_WRITTEN_APART}),
        st.just(()),
    )


def _cohorts(dimensions):
    """Tables whose rows all list `dimensions`, in that order."""
    row = st.tuples(_ODD_TEXT, st.tuples(*map(_results, dimensions)))
    return st.lists(row, max_size=6).map(cohort_table)


# Every learner lists one drawn sequence of 0 to 4 distinct dimensions.
@given(
    st.lists(
        st.sampled_from(["processing", "perception"]) | _ODD_TEXT, max_size=4, unique=True
    ).flatmap(_cohorts)
)
def test_profiles_json_equals_one_dumps_per_learner(table):
    # Non-finite scores, no fired rules, no learners and no results included.
    rows = table_rows(table)
    assert profiles_to_json(table) == reference_profiles_to_json(rows)
    assert profiles_to_csv(table) == reference_profiles_csv(rows)
    assert table.result_count() == sum(len(results) for _, results in rows)
    assert list(table.rows(1)) == [tuple(r[2] for r in results) for _, results in rows]


def test_profiles_json_of_a_cohort_equals_one_dumps_per_learner(rb, caplog):
    import itertools

    from stylegroup.simulate import CohortSpec, generate

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in DIMENSIONS]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=0.1, seed=4
    )
    table, _ = classify_cohort(generate(spec, rb)[1], rb)
    with caplog.at_level(logging.INFO, logger="stylegroup.classify"):
        text = profiles_to_json(table)
    rows = table_rows(table)
    assert text == reference_profiles_to_json(rows)
    results = [r for _, results in rows for r in results]
    # one head and tail per distinct result, far fewer than results
    distinct = len({(dimension, score, label) for dimension, score, label, _, _ in results})
    assert distinct < len(results) / 2
    assert caplog.messages == [
        f"JSON export: {len(table)} learners, {distinct} distinct results formatted"
    ]


def test_cohort_exports_equal_row_by_row_references(rb):
    # Ids with CSV and JSON specials; some learners lack a feature or fire no rule.
    import itertools

    from stylegroup.grouping import GroupingParams, assign_groups
    from stylegroup.simulate import CohortSpec, generate

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in DIMENSIONS]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=0.15, seed=9
    )
    odd = [",", '"', "\r", "\n", "\r\n", 'a,"b"', "é"]
    records = []
    for i, (_, features) in enumerate(learner_values(generate(spec, rb)[1])):
        if i % 17 == 0:
            del features[sorted(features)[0]]
        records.append((f"L{i}{odd[i % len(odd)]}", features))
    table, failures = classify_cohort(BehaviorTable.of(records), rb)
    assert any(f.dimension is None for f in failures)
    assert any(f.dimension is not None for f in failures)
    rows = table_rows(table)
    assert profiles_to_csv(table) == reference_profiles_csv(rows)
    assert profiles_to_json(table) == reference_profiles_to_json(rows)
    header = ["learner_id", "dimension", "reason"]
    failed = [(f.learner_id, f.dimension or "", f.reason) for f in failures]
    assert csv_text(header, failed) == reference_csv_text(header, failed)
    # A table rebuilt from the rows read takes the same paths as the table itself.
    rebuilt = cohort_table(rows, {c.dimension: c.rule_ids for c in table.columns})
    assert profiles_to_csv(rebuilt) == profiles_to_csv(table)
    assert profiles_to_json(rebuilt) == profiles_to_json(table)
    params = GroupingParams(control_fraction=0.2, seed=3, min_size=5)
    assert assign_groups(rebuilt, params) == assign_groups(table, params)
    questionnaire = _questionnaire(table, lambda score: score, slice(None, None, 2))
    report = validate_against_questionnaire(table, questionnaire)
    assert report == validate_against_questionnaire(rebuilt, questionnaire)
    assert report.overall_r == pytest.approx(1.0)
