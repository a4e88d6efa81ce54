import pytest

from stylegroup.classify import (
    DimensionResult,
    InsufficientPairsError,
    MissingFeatureError,
    NoRuleFiredError,
    StyleProfile,
    classify_cohort,
    profiles_from_csv,
    profiles_to_csv,
    profiles_to_json,
    validate_against_questionnaire,
)
from stylegroup.dsl import DIMENSIONS, parse_rulebase
from stylegroup.ingest import BehaviorRecord, IngestError, QuestionnaireRecord
from stylegroup.stats import pearson_r

from conftest import riemann_centroid, rule_strength, scaled_trap_envelope


def _classify_one(record, rb):
    """One learner's profile, through the one classify entry point."""
    profiles, failures = classify_cohort([record], rb)
    assert not failures, failures
    return profiles[0]


def _classify_failure(record, rb):
    """The (learner, dimension, reason) failure of one learner that cannot be classified."""
    profiles, failures = classify_cohort([record], rb)
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
    record = BehaviorRecord("L1", _full_features(rb, _prototype_features(rb, rule)))
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
    record = BehaviorRecord("L1", _full_features(rb, _prototype_features(rb, rule)))
    profile = _classify_one(record, rb)
    assert profile.result("processing").label == "reflection"


def test_profile_covers_all_dimensions_in_order(rb):
    record = BehaviorRecord("L1", _full_features(rb))
    profile = _classify_one(record, rb)
    assert tuple(r.dimension for r in profile.results) == DIMENSIONS
    assert len(profile.signature) == 4


def test_balanced_inputs_fire_competing_rules_equally(mini_rulebase):
    # effort 6 gives both terms membership 0.5, so both rules fire at 0.5
    # and the crisp score is the centroid of the symmetric max-envelope.
    record = BehaviorRecord("L1", {"effort": 6.0})
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
    weak = _classify_one(BehaviorRecord("L1", {"effort": 6.8}), rb)
    strong = _classify_one(BehaviorRecord("L2", {"effort": 4.4}), rb)
    weak_result = weak.result("processing")
    strong_result = strong.result("processing")
    assert dict(weak_result.fired_rules) == {"only": pytest.approx(0.3)}
    assert dict(strong_result.fired_rules) == {"only": pytest.approx(0.9)}
    assert weak_result.crisp_score == pytest.approx(strong_result.crisp_score, abs=1e-12)


def test_missing_feature_error(rb):
    features = _full_features(rb)
    del features["exam_time"]
    assert _classify_failure(BehaviorRecord("L1", features), rb) == (
        "L1",
        None,
        str(MissingFeatureError("L1", "exam_time")),
    )


def test_no_rule_fired_error():
    rb = parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,2,4) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) }

        RULE only: IF effort IS low THEN processing_score IS calm
        """
    )
    assert _classify_failure(BehaviorRecord("L1", {"effort": 10.0}), rb) == (
        "L1",
        "processing",
        str(NoRuleFiredError("L1", "processing")),
    )


def test_cohort_empty(rb):
    assert classify_cohort([], rb) == ([], [])


def test_cohort_collects_failures(rb):
    good = BehaviorRecord("L1", _full_features(rb))
    bad_features = _full_features(rb)
    del bad_features["audio_time"]
    bad = BehaviorRecord("L2", bad_features)
    profiles, failures = classify_cohort([good, bad], rb)
    assert [p.learner_id for p in profiles] == ["L1"]
    assert [f.learner_id for f in failures] == ["L2"]
    assert "audio_time" in failures[0].reason


def test_cohort_determinism_and_permutation_invariance(rb):
    # audio_time walks down the "low" ramp so each learner differs slightly
    records = [
        BehaviorRecord(f"L{i}", _full_features(rb, {"audio_time": 20.0 + 3.0 * i}))
        for i in range(6)
    ]
    first, _ = classify_cohort(records, rb)
    second, _ = classify_cohort(records, rb)
    assert first == second  # bit-identical profiles
    reversed_profiles, _ = classify_cohort(list(reversed(records)), rb)
    by_id = {p.learner_id: p for p in reversed_profiles}
    assert all(by_id[p.learner_id] == p for p in first)
    assert [p.learner_id for p in reversed_profiles] == [f"L{5 - i}" for i in range(6)]


def test_cohort_matches_learner_by_learner(rb):
    # A noisy cohort over every producible signature, spanning several
    # kernel blocks, with a feature dropped from every 23rd learner.
    import itertools

    from stylegroup.classify import _BLOCK
    from stylegroup.simulate import CohortSpec, generate

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in DIMENSIONS]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=0.15, seed=3
    )
    _, generated = generate(spec, rb)
    records = []
    for i, record in enumerate(generated):
        features = dict(record.features)
        if i % 23 == 0:
            del features[sorted(features)[i % len(features)]]
        records.append(BehaviorRecord(record.learner_id, features))
    assert len(records) > _BLOCK

    profiles, failures = classify_cohort(records, rb)

    expected_profiles, expected_failures = [], []
    for record in records:
        alone, failed = classify_cohort([record], rb)
        expected_profiles.extend(alone)
        expected_failures.extend((f.learner_id, f.dimension, f.reason) for f in failed)
    assert profiles == expected_profiles  # labels, memberships, fired rules, crisp scores
    assert [(f.learner_id, f.dimension, f.reason) for f in failures] == expected_failures

    # the cohort exercises every outcome the kernel distinguishes
    assert any(f.dimension is None for f in failures)
    assert any(f.dimension is not None for f in failures)
    assert any(len(r.fired_rules) > 1 for p in profiles for r in p.results)

    # firing strengths equal the scalar clause-by-clause product bit for bit
    features = {r.learner_id: r.features for r in records}
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
    truth, records = generate(spec, rb)
    profiles, failures = classify_cohort(records, rb)
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


def test_profiles_csv_round_trip(rb):
    records = [BehaviorRecord(f"L{i}", _full_features(rb)) for i in range(3)]
    profiles, _ = classify_cohort(records, rb)
    text = profiles_to_csv(profiles)
    rebuilt = profiles_from_csv(text)
    assert [p.learner_id for p in rebuilt] == [p.learner_id for p in profiles]
    for original, copy in zip(profiles, rebuilt):
        assert copy.signature == original.signature
        for dimension in DIMENSIONS:
            assert copy.result(dimension).crisp_score == original.result(
                dimension
            ).crisp_score


@pytest.mark.parametrize(
    "row, problem",
    [
        ("L2,processing,nan,reactive", "crisp score 'nan' for 'processing' is not a finite number"),
        ("L2,processing,-inf,reactive", "crisp score '-inf' for 'processing' is not a finite number"),
        ("L2,processing,high,reactive", "crisp score 'high' for 'processing' is not a finite number"),
        ("L2,processing,7.5", "profile row has 3 fields, expected 4"),
        ("L2,processing,7.5,reactive,x", "profile row has 5 fields, expected 4"),
        (
            "L2,perception,7.5,intuitive",
            "dimensions perception differ from the first learner's processing",
        ),
        (
            "L2,processing,7.5,reactive\nL2,processing,7.5,reactive",
            "dimensions processing, processing differ from the first learner's processing",
        ),
        # The next two name a learner other than L2, so they give the whole message.
        pytest.param(
            ",processing,7.5,reactive",
            "learner '': empty learner id",
            id="empty-learner-id",
        ),
        pytest.param(
            "L1,processing,3.5,reactive",
            "learner 'L1': dimension 'processing' listed twice",
            id="learner-dimension-listed-twice",
        ),
    ],
)
def test_profiles_from_csv_rejects_corrupt_rows(row, problem):
    text = f"learner_id,dimension,crisp_score,label\nL1,processing,3.5,reactive\n{row}\n"
    with pytest.raises(IngestError) as exc_info:
        profiles_from_csv(text)
    expected = problem if problem.startswith("learner ") else f"learner 'L2': {problem}"
    assert str(exc_info.value) == expected


def test_profiles_json_contains_fired_rules(rb):
    import json

    records = [BehaviorRecord("L1", _full_features(rb))]
    profiles, _ = classify_cohort(records, rb)
    payload = json.loads(profiles_to_json(profiles))
    assert payload[0]["learner_id"] == "L1"
    first = payload[0]["results"][0]
    assert {"dimension", "crisp_score", "label", "term_memberships", "fired_rules"} <= set(
        first
    )
