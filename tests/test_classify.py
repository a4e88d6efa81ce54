import logging
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stylegroup.classify import (
    CohortTable,
    DimensionResult,
    InsufficientPairsError,
    StyleProfile,
    classify_cohort,
    profiles_from_csv,
    profiles_to_csv,
    profiles_to_json,
    validate_against_questionnaire,
)
from stylegroup.dsl import DIMENSIONS, parse_rulebase
from stylegroup.fuzzy import strongest_term
from stylegroup.ingest import BehaviorTable, IngestError, QuestionnaireRecord, csv_text
from stylegroup.ingest import feature_coverage
from stylegroup.stats import pearson_r

from conftest import learner_values, reference_csv_text, reference_profiles_csv
from conftest import reference_profiles_to_json
from conftest import riemann_centroid, rule_strength
from conftest import scaled_trap_envelope


def _classify_one(learner, rb):
    """One (id, features) learner's profile, through the one classify entry point."""
    profiles, failures = classify_cohort(BehaviorTable.of([learner]), rb)
    assert not failures, failures
    return profiles[0]


def _classify_failure(learner, rb):
    """The (learner, dimension, reason) failure of one learner that cannot be classified."""
    profiles, failures = classify_cohort(BehaviorTable.of([learner]), rb)
    assert not profiles
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
    profile = _classify_one(record, rb)
    result = profile.result("processing")
    assert result.label == "reactive"
    assert result.fired_rules == (("proc1", 1.0),)
    # single-rule firing: the crisp score is the centroid of the consequent
    # trapezoid (0,0,6,8), inside its plateau
    oracle = riemann_centroid(scaled_trap_envelope([(1.0, (0, 0, 6, 8))]), 0.0, 12.0)
    assert result.crisp_score == pytest.approx(oracle, abs=1e-4)
    assert 0.0 <= result.crisp_score <= 6.0
    assert result.term_memberships["reactive"] == 1.0


def test_reflection_prototype_classifies_reflection(rb):
    rule = next(r for r in rb.rules if r.rule_id == "proc5")
    record = ("L1", _full_features(rb, _prototype_features(rb, rule)))
    profile = _classify_one(record, rb)
    assert profile.result("processing").label == "reflection"


def test_profile_covers_all_dimensions_in_order(rb):
    record = ("L1", _full_features(rb))
    profile = _classify_one(record, rb)
    assert tuple(r.dimension for r in profile.results) == DIMENSIONS
    assert len(profile.signature) == 4


def test_balanced_inputs_fire_competing_rules_equally(mini_rulebase):
    # effort 6 gives both terms membership 0.5, so both rules fire at 0.5
    # and the crisp score is the centroid of the symmetric max-envelope.
    record = ("L1", {"effort": 6.0})
    profile = _classify_one(record, mini_rulebase)
    result = profile.result("processing")
    assert dict(result.fired_rules) == {"r_low": 0.5, "r_high": 0.5}
    oracle = riemann_centroid(
        scaled_trap_envelope([(0.5, (0, 0, 6, 8)), (0.5, (6, 8, 12, 12))]), 0.0, 12.0
    )
    assert result.crisp_score == pytest.approx(oracle, abs=1e-4)
    assert result.crisp_score == pytest.approx(34.25 / 5.75, abs=1e-9)


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
    weak = _classify_one(("L1", {"effort": 6.8}), rb)
    strong = _classify_one(("L2", {"effort": 4.4}), rb)
    weak_result = weak.result("processing")
    strong_result = strong.result("processing")
    assert dict(weak_result.fired_rules) == {"only": pytest.approx(0.3)}
    assert dict(strong_result.fired_rules) == {"only": pytest.approx(0.9)}
    assert weak_result.crisp_score == pytest.approx(strong_result.crisp_score, abs=1e-12)


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
        profiles, failures = classify_cohort(table, rb)
        assert [p.learner_id for p in profiles] == table.ids[1:]
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
    assert classify_cohort(BehaviorTable.of([]), rb) == ([], [])


def test_cohort_collects_failures(rb):
    good = ("L1", _full_features(rb))
    bad_features = _full_features(rb)
    del bad_features["audio_time"]
    bad = ("L2", bad_features)
    profiles, failures = classify_cohort(BehaviorTable.of([good, bad]), rb)
    assert [p.learner_id for p in profiles] == ["L1"]
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
    scores = [p.results[0].crisp_score for p in table]
    assert [math.copysign(1.0, s) for s in scores] == [1.0, -1.0, 1.0, -1.0, 1.0]
    assert len(table.columns[0].results) == 3
    assert profiles_to_csv(table).splitlines()[1:] == [
        "L0,processing,0.0,calm", "L1,processing,-0.0,calm", "L2,processing,0.0,calm",
        "L3,processing,-0.0,calm", "L4,processing,7.0,busy",
    ]
    assert profiles_to_json(table) == reference_profiles_to_json(list(table))


def test_cohort_determinism_and_permutation_invariance(rb):
    # audio_time walks down the "low" ramp so each learner differs slightly
    records = [(f"L{i}", _full_features(rb, {"audio_time": 20.0 + 3.0 * i})) for i in range(6)]
    first, _ = classify_cohort(BehaviorTable.of(records), rb)
    second, _ = classify_cohort(BehaviorTable.of(records), rb)
    assert first == second  # bit-identical profiles
    reversed_profiles, _ = classify_cohort(BehaviorTable.of(reversed(records)), rb)
    by_id = {p.learner_id: p for p in reversed_profiles}
    assert all(by_id[p.learner_id] == p for p in first)
    assert [p.learner_id for p in reversed_profiles] == [f"L{5 - i}" for i in range(6)]


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

    profiles, failures = classify_cohort(BehaviorTable.of(records), rb)
    term_of = {rule.rule_id: rule.consequent[1] for rule in rb.rules}
    multi = [
        sum(len({term_of[rule_id] for rule_id, _ in p.result(d).fired_rules}) > 1
            for p in profiles)
        for d in DIMENSIONS
    ]
    assert max(multi) > 2 * _CHUNK  # multi-term rows of one dimension span several chunks

    expected_profiles, expected_failures = [], []
    for record in records:  # a learner's table lacks the column of a dropped feature
        alone, failed = classify_cohort(BehaviorTable.of([record]), rb)
        expected_profiles.extend(alone)
        expected_failures.extend((f.learner_id, f.dimension, f.reason) for f in failed)
    assert profiles == expected_profiles  # labels, memberships, fired rules, crisp scores
    assert [(f.learner_id, f.dimension, f.reason) for f in failures] == expected_failures

    # the cohort exercises every outcome the kernel distinguishes
    assert any(f.dimension is None for f in failures)
    assert any(f.dimension is not None for f in failures)
    assert any(len(r.fired_rules) > 1 for p in profiles for r in p.results)

    # firing strengths equal the scalar clause-by-clause product bit for bit
    features = dict(records)
    variables = {v.name: v for v in rb.variables}
    for profile in profiles:
        for result in profile.results:
            expected = []
            for rule in rb.rules_for(result.dimension):
                degrees = [
                    variables[name].term(term).membership(features[profile.learner_id][name])
                    for name, term in rule.antecedent
                ]
                strength = rule_strength(degrees)
                if strength > 0.0:
                    expected.append((rule.rule_id, strength))
            assert result.fired_rules == tuple(expected)


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

    profiles, failures = classify_cohort(BehaviorTable.of(records), rb)
    assert [(f.learner_id, f.dimension) for f in failures] == [
        (lid, outcome[-1][0]) for lid, outcome in expected.items() if outcome[-1][1] is None
    ]
    assert failures and profiles
    for profile in profiles:
        outcome = expected[profile.learner_id]
        assert [r.label for r in profile.results] == [label for _, _, label in outcome]
        for result, (_, score, _) in zip(profile.results, outcome):
            assert abs(result.crisp_score - score) <= 1e-12 * 12


def test_results_do_not_share_membership_dicts(rb):
    # Identical learners share one memoised label; each result read owns its dict.
    behaviors = BehaviorTable.of((f"L{i}", _full_features(rb)) for i in range(3))
    profiles, _ = classify_cohort(behaviors, rb)
    dicts = [r.term_memberships for p in profiles for r in p.results]
    assert len({id(d) for d in dicts}) == len(dicts) == 3 * len(DIMENSIONS)
    before = dict(profiles[1].results[0].term_memberships)
    profiles[0].results[0].term_memberships.clear()
    assert profiles[1].results[0].term_memberships == before
    # a profile is a view: changing what was read leaves the table as it was
    dicts[0].clear()
    assert profiles[0].results[0].term_memberships == before


def test_cohort_table_is_a_sequence_of_profiles(rb):
    behaviors = BehaviorTable.of(
        (f"L{i}", _full_features(rb, {"audio_time": 20.0 + 3.0 * i})) for i in range(4)
    )
    table, _ = classify_cohort(behaviors, rb)
    assert isinstance(table, CohortTable)
    profiles = [table[n] for n in range(len(table))]
    assert list(table) == profiles == table[:] and table == profiles
    assert table[-1] == profiles[-1] and table[1:3] == profiles[1:3]
    assert CohortTable.of(table) is table
    assert CohortTable.of(profiles) == table
    assert table != profiles[:-1] and table != "L0"
    with pytest.raises(IndexError):
        table[len(table)]
    assert list(table.rows(2)) == [p.signature for p in profiles]
    assert list(table.take([2, 0])) == [profiles[2], profiles[0]]
    assert list(table.take([2, 0]).rows(1)) == [
        tuple(r.crisp_score for r in profiles[n].results) for n in (2, 0)
    ]


# -- questionnaire validation --------------------------------------------------


def _synthetic_profiles(scores_by_learner):
    profiles = []
    for learner_id, scores in scores_by_learner.items():
        results = tuple(
            DimensionResult(
                dimension=dimension,
                crisp_score=score,
                label="x",
                term_memberships={},
                fired_rules=(),
            )
            for dimension, score in zip(DIMENSIONS, scores)
        )
        profiles.append(StyleProfile(learner_id=learner_id, results=results))
    return profiles


def test_validation_affine_copy_gives_perfect_r():
    profiles = _synthetic_profiles(
        {
            "L1": (1.0, 2.0, 3.0, 4.0),
            "L2": (2.0, 1.0, 5.0, 3.0),
            "L3": (4.0, 6.0, 2.0, 9.0),
            "L4": (3.0, 3.0, 7.0, 1.0),
        }
    )
    questionnaire = [
        QuestionnaireRecord(p.learner_id, d, 0.5 * p.result(d).crisp_score + 1.0)
        for p in profiles
        for d in DIMENSIONS
    ]
    report = validate_against_questionnaire(profiles, questionnaire)
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
    profiles = _synthetic_profiles(
        {"L1": (1.0, 2.0, 3.0, 4.0), "L2": (2.0, 5.0, 1.0, 3.0), "L3": (4.0, 1.0, 6.0, 8.0)}
    )
    questionnaire = [
        QuestionnaireRecord(p.learner_id, d, 11.0 - p.result(d).crisp_score)
        for p in profiles
        for d in DIMENSIONS
    ]
    report = validate_against_questionnaire(profiles, questionnaire)
    assert all(r == pytest.approx(-1.0, abs=1e-12) for r in report.per_dimension_r.values())


def test_validation_inner_join_drops_and_counts():
    profiles = _synthetic_profiles(
        {
            "L1": (1.0, 2.0, 3.0, 4.0),
            "L2": (2.0, 1.0, 5.0, 3.0),
            "L3": (4.0, 6.0, 2.0, 9.0),
            "L4": (3.0, 3.0, 7.0, 1.0),
        }
    )
    questionnaire = [
        QuestionnaireRecord(p.learner_id, d, p.result(d).crisp_score)
        for p in profiles[:3]
        for d in DIMENSIONS
    ]
    questionnaire.append(QuestionnaireRecord("L99", "processing", 5.0))
    report = validate_against_questionnaire(profiles, questionnaire)
    assert report.unmatched_profile_entries == 4
    assert report.unmatched_questionnaire_entries == 1


def test_validation_insufficient_pairs():
    profiles = _synthetic_profiles({"L1": (1.0, 2.0, 3.0, 4.0), "L2": (2.0, 1.0, 5.0, 3.0)})
    questionnaire = [
        QuestionnaireRecord(p.learner_id, d, 1.0) for p in profiles for d in DIMENSIONS
    ]
    with pytest.raises(InsufficientPairsError):
        validate_against_questionnaire(profiles, questionnaire)


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
    profiles, failures = classify_cohort(behaviors, rb)
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
    report = validate_against_questionnaire(profiles, questionnaire)
    for dimension, r in report.per_dimension_r.items():
        assert r >= 0.8, f"{dimension}: r={r}"


# -- export ----------------------------------------------------------------------


def test_profiles_csv_round_trip(rb, tmp_path):
    behaviors = BehaviorTable.of((f"L{i}", _full_features(rb)) for i in range(3))
    profiles, _ = classify_cohort(behaviors, rb)
    path = tmp_path / "profiles.csv"
    path.write_text(profiles_to_csv(profiles), encoding="utf-8")
    rebuilt = profiles_from_csv(path)
    assert [p.learner_id for p in rebuilt] == [p.learner_id for p in profiles]
    for original, copy in zip(profiles, rebuilt):
        assert copy.signature == original.signature
        for dimension in DIMENSIONS:
            assert copy.result(dimension).crisp_score == original.result(
                dimension
            ).crisp_score


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


def _profile(learner_id, *dimensions):
    """A profile scoring 1, 2, ... in the given dimensions, in that order."""
    scores = enumerate(dimensions, 1)
    results = (DimensionResult(d, float(n), "calm", {"calm": 1.0}, ()) for n, d in scores)
    return StyleProfile(learner_id, tuple(results))


# Lists of profiles whose learners do not all list the first learner's dimensions once each.
_FIRST = _profile("L1", "processing", "perception")
_TWICE = ("processing", "processing")
_UNSHAPED_LISTS = [
    ("ragged", [_FIRST, _profile("L2", "processing")],
     "learner 'L2': dimensions processing differ from the first learner's processing, perception"),
    ("reordered", [_FIRST, _profile("L2", "perception", "processing")],
     "learner 'L2': dimensions perception, processing differ from the first learner's "
     "processing, perception"),
    ("repeated", [_profile("L1", *_TWICE), _profile("L2", *_TWICE)],
     "learner 'L1': dimension 'processing' listed twice"),
]


@pytest.mark.parametrize(
    "profiles, message",
    [case[1:] for case in _UNSHAPED_LISTS],
    ids=[case[0] for case in _UNSHAPED_LISTS],
)
def test_profile_lists_are_refused_as_their_profiles_csv_is(tmp_path, profiles, message):
    from stylegroup.grouping import GroupingParams, assign_groups, homogeneous_partition

    path = tmp_path / "profiles.csv"
    rows = (f"{p.learner_id},{r.dimension},{r.crisp_score!r},{r.label}\n"
            for p in profiles for r in p.results)
    path.write_text("learner_id,dimension,crisp_score,label\n" + "".join(rows), encoding="utf-8")
    with pytest.raises(IngestError) as from_csv:
        profiles_from_csv(path)
    assert str(from_csv.value) == message
    # Averaging position by position would mix dimensions, or lengths, into a centroid.
    params = GroupingParams(control_fraction=0.5, seed=1, target_k=1, min_size=2)
    for call in (
        CohortTable.of,
        profiles_to_csv,
        profiles_to_json,
        lambda profiles: assign_groups(profiles, params),
        lambda profiles: homogeneous_partition(profiles, target_k=1, min_size=1),
        lambda profiles: validate_against_questionnaire(profiles, []),
    ):
        with pytest.raises(IngestError) as exc_info:
            call(profiles)
        assert type(exc_info.value) is type(from_csv.value)
        assert str(exc_info.value) == message


def test_profiles_json_contains_fired_rules(rb):
    import json

    profiles, _ = classify_cohort(BehaviorTable.of([("L1", _full_features(rb))]), rb)
    payload = json.loads(profiles_to_json(profiles))
    assert payload[0]["learner_id"] == "L1"
    first = payload[0]["results"][0]
    assert {"dimension", "crisp_score", "label", "term_memberships", "fired_rules"} <= set(
        first
    )


# Ids and names with JSON escapes, CSV specials and non-ASCII characters.
_ODD_TEXT = st.text(alphabet='ab"\\,\r\n é中😀', min_size=1, max_size=5)
_TERMS = st.sampled_from(["calm", "busy", 'o"dd'])
# A library caller's numbers: ints, bools and numpy floats besides floats.
# Values that compare equal but are written differently (0.0 and -0.0, 1
# and 1.0, 1 and True) must not share a formatted fragment.
_EQUAL_BUT_WRITTEN_APART = st.sampled_from(
    [0.0, -0.0, 0, False, np.float64(-0.0), 1.0, 1, True, np.float64(1.0)]
)


def _numbers(floats):
    return floats | floats.map(np.float64) | _EQUAL_BUT_WRITTEN_APART


def _results(dimension):
    """A result in the given dimension."""
    return st.builds(
        DimensionResult,
        dimension=st.just(dimension),
        # Few distinct scores, so equal scores meet different labels and memberships.
        crisp_score=st.sampled_from([3.5, 1e-300]) | _numbers(st.floats()),
        label=_TERMS,
        # An OrderedDict is written as a dict is, though marshal cannot write it.
        term_memberships=st.dictionaries(
            _TERMS, st.sampled_from([0.5]) | _numbers(st.floats(0, 1))
        ).flatmap(lambda d: st.sampled_from([d, OrderedDict(d)])),
        fired_rules=st.lists(
            st.tuples(st.sampled_from(["r1", "r2"]) | _ODD_TEXT, _numbers(st.floats())),
            max_size=3,
        ).map(tuple),
    ) | st.builds(  # results that are equal to one another but written apart
        DimensionResult,
        dimension=st.just(dimension),
        crisp_score=_EQUAL_BUT_WRITTEN_APART,
        label=st.just("calm"),
        term_memberships=st.fixed_dictionaries(
            {"calm": _EQUAL_BUT_WRITTEN_APART, "busy": _EQUAL_BUT_WRITTEN_APART}
        ),
        fired_rules=st.just(()),
    )


def _cohorts(dimensions):
    """Lists of profiles that all list `dimensions`, in that order."""
    profile = st.builds(
        StyleProfile, learner_id=_ODD_TEXT, results=st.tuples(*map(_results, dimensions))
    )
    return st.lists(profile, max_size=6)


# Every learner lists one drawn sequence of 0 to 4 distinct dimensions.
@given(
    st.lists(
        st.sampled_from(["processing", "perception"]) | _ODD_TEXT, max_size=4, unique=True
    ).flatmap(_cohorts)
)
def test_profiles_json_equals_one_dumps_per_learner(profiles):
    # Non-finite scores and strengths, no fired rules and no results included.
    assert profiles_to_json(profiles) == reference_profiles_to_json(profiles)
    # A list is exported through its table, which reads back as the list.
    table = CohortTable.of(profiles)
    assert list(table) == profiles and table.result_count() == sum(len(p.results) for p in profiles)
    assert list(table.rows(2)) == [p.signature for p in profiles]
    assert profiles_to_csv(profiles) == profiles_to_csv(table) == reference_profiles_csv(profiles)
    assert profiles_to_json(table) == reference_profiles_to_json(profiles)


def test_profiles_json_of_a_cohort_equals_one_dumps_per_learner(rb, caplog):
    import itertools

    from stylegroup.simulate import CohortSpec, generate

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in DIMENSIONS]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=0.1, seed=4
    )
    profiles, _ = classify_cohort(generate(spec, rb)[1], rb)
    with caplog.at_level(logging.INFO, logger="stylegroup.classify"):
        text = profiles_to_json(profiles)
    assert text == reference_profiles_to_json(profiles)
    results = [r for p in profiles for r in p.results]
    # one head and tail per distinct result, far fewer than results
    distinct = len({(r.dimension, r.crisp_score, r.label) for r in results})
    assert distinct < len(results) / 2
    assert caplog.messages == [
        f"JSON export: {len(profiles)} learners, {distinct} distinct results formatted"
    ]
    # a caller's edit of the memberships it read leaves the table as it was
    memberships = profiles[0].results[0].term_memberships
    memberships[next(iter(memberships))] = 0.25
    assert profiles_to_json(profiles) == text


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
    profiles = list(table)
    assert profiles_to_csv(table) == reference_profiles_csv(profiles)
    assert profiles_to_json(table) == reference_profiles_to_json(profiles)
    header = ["learner_id", "dimension", "reason"]
    rows = [(f.learner_id, f.dimension or "", f.reason) for f in failures]
    assert csv_text(header, rows) == reference_csv_text(header, rows)
    # The list of profiles takes the same paths as the table they were read from.
    assert profiles_to_csv(profiles) == profiles_to_csv(table)
    assert profiles_to_json(profiles) == profiles_to_json(table)
    params = GroupingParams(control_fraction=0.2, seed=3, min_size=5)
    assert assign_groups(profiles, params) == assign_groups(table, params)
    questionnaire = [
        QuestionnaireRecord(p.learner_id, r.dimension, r.crisp_score)
        for p in profiles[::2]
        for r in p.results
    ]
    report = validate_against_questionnaire(table, questionnaire)
    assert report == validate_against_questionnaire(profiles, questionnaire)
    assert report.overall_r == pytest.approx(1.0)
