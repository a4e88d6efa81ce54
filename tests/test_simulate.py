import csv
import logging

import pytest

from stylegroup.classify import classify_cohort
from stylegroup.dsl import parse_rulebase
from stylegroup.grouping import Group, GroupAssignment, GroupingParams, assign_groups
from stylegroup.grouping import assignment_from_csv
from stylegroup.ingest import BehaviorTable, load_behaviors, load_scores
from stylegroup.simulate import (
    CohortSpec,
    ScoreModel,
    UnreachableLabelError,
    default_cohort_spec,
    generate,
    generate_scores,
    write_behaviors_csv,
    write_scores_csv,
    write_truth_csv,
)
from stylegroup.stats import evaluation_samples, two_sample_t

from conftest import learner_values, reference_generate

SIGNATURES = (
    ("reactive", "sensory", "visual", "consecutive"),
    ("reflection", "intuitive", "verbal", "sequential_global"),
    ("reactive", "intuitive", "visual", "sequential_global"),
    ("reflection", "sensory", "verbal", "consecutive"),
)


def _spec(counts=20, noise=0.0, seed=1, model=None):
    return CohortSpec(
        counts=tuple((s, counts) for s in SIGNATURES),
        noise_sigma=noise,
        seed=seed,
        score_model=model,
    )


def test_zero_noise_features_sit_on_prototypes(rb):
    spec = CohortSpec(counts=((("reflection", "sensory", "verbal", "consecutive"), 1),), seed=2)
    truth, table = generate(spec, rb)
    ((_, features),) = learner_values(table)
    # the reflection rule wants low participation, much test/training time
    assert features["discussion_participation"] == 1.5
    assert features["chat_participation"] == 1.5
    assert features["test_time"] == 87.5
    assert features["training_time"] == 87.5
    assert features["connected_people"] == 0.5
    assert features["troubleshooting_participation"] == 12.5


def test_zero_noise_recovery(rb):
    truth, table = generate(_spec(counts=10, noise=0.0, seed=4), rb)
    classified, failures = classify_cohort(table, rb)
    assert not failures
    truth_map = dict(truth)
    assert len(classified) == len(truth)
    assert all(
        signature == truth_map[learner]
        for learner, signature in zip(classified.ids, classified.rows(1))
    )


def test_generate_logs_one_line_only_at_info(rb, caplog):
    spec = _spec(counts=3, noise=0.1, seed=7)
    with caplog.at_level(logging.WARNING, logger="stylegroup.simulate"):
        quiet = generate(spec, rb)
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger="stylegroup.simulate"):
        assert generate(spec, rb) == quiet
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        (
            "stylegroup.simulate",
            logging.INFO,
            "cohort: 12 learners, 4 signatures, noise 0.1, seed 7",
        )
    ]


def test_generate_deterministic(rb, tmp_path):
    spec = _spec(counts=5, noise=0.1, seed=99)
    first = generate(spec, rb)
    second = generate(spec, rb)
    assert first == second
    write_behaviors_csv(first[1], rb, tmp_path / "a.csv")
    write_behaviors_csv(second[1], rb, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _pins_the_stream(spec, rb):
    truth, table = generate(spec, rb)
    expected_truth, expected_features = reference_generate(spec, rb)
    assert truth == expected_truth
    assert learner_values(table) == expected_features


@pytest.mark.parametrize("noise, seed", [(0.0, 3), (0.1, 5), (0.35, 9)])
def test_generate_draws_the_scalar_reference_stream(rb, noise, seed):
    # Every signature the bundled base can plant; visual_verbal has two
    # producers (ent2, ent3), so the rule draw runs for it alone.
    import itertools

    labels = [sorted({r.consequent[1] for r in rb.rules_for(d)}) for d in rb.dimensions()]
    producers = [r.rule_id for r in rb.rules if r.consequent[1] == "visual_verbal"]
    assert producers == ["ent2", "ent3"]
    spec = CohortSpec(
        counts=tuple((sig, 2) for sig in itertools.product(*labels)), noise_sigma=noise, seed=seed
    )
    _pins_the_stream(spec, rb)


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_generate_draws_the_reference_stream_with_an_unreferenced_input(noise):
    rb = parse_rulebase(
        """
        input effort dim=processing universe=[0,12] { low=(0,0,4,8) high=(4,8,12,12) }
        input spare dim=processing universe=[2,9] { low=(2,2,4,6) high=(4,6,9,9) }
        input pace dim=perception universe=[0,10] { low=(0,0,3,6) high=(3,6,10,10) }
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) busy=(6,8,12,12) }
        output perception_score dim=perception universe=[0,12] { slow=(0,0,6,8) fast=(6,8,12,12) }

        RULE p1: IF effort IS low THEN processing_score IS calm
        RULE p2: IF effort IS high THEN processing_score IS busy
        RULE p3: IF effort IS high AND pace IS high THEN processing_score IS busy
        RULE q1: IF pace IS low THEN perception_score IS slow
        RULE q2: IF pace IS high THEN perception_score IS fast
        """
    )
    spec = CohortSpec(
        counts=((("calm", "slow"), 5), (("busy", "fast"), 7), (("busy", "slow"), 4)),
        noise_sigma=noise,
        seed=12,
    )
    _, table = generate(spec, rb)
    assert all(value == value for value in table.columns["spare"])  # the uniform draw ran
    _pins_the_stream(spec, rb)


def test_generate_unreachable_label(rb):
    # no rule in the bundled base produces the pure "global" pole
    spec = CohortSpec(counts=((("reactive", "sensory", "visual", "global"), 1),), seed=1)
    with pytest.raises(UnreachableLabelError):
        generate(spec, rb)


def test_generate_clamps_to_universe(rb):
    truth, table = generate(_spec(counts=10, noise=0.5, seed=6), rb)
    for name, column in table.columns.items():
        lo, hi = rb.variable(name).universe
        assert all(lo <= value <= hi for value in column)


def test_recovery_rate_non_increasing_in_noise(rb):
    sigmas = (0.0, 0.05, 0.15, 0.3)
    mean_rates = []
    for sigma in sigmas:
        rates = []
        for seed in range(5):
            truth, table = generate(_spec(counts=6, noise=sigma, seed=seed), rb)
            classified, failures = classify_cohort(table, rb)
            truth_map = dict(truth)
            hits = sum(
                signature == truth_map[learner]
                for learner, signature in zip(classified.ids, classified.rows(1))
            )
            rates.append(hits / len(truth))
        mean_rates.append(sum(rates) / len(rates))
    assert mean_rates[0] == 1.0
    for earlier, later in zip(mean_rates, mean_rates[1:]):
        assert later <= earlier + 1e-9, mean_rates


def test_default_cohort_spec_round_trips_json(rb):
    spec = default_cohort_spec(seed=5)
    assert spec.total == 420
    assert CohortSpec.from_json_dict(spec.to_json_dict()) == spec


def test_behaviors_csv_round_trip_through_ingest(rb, tmp_path):
    spec = _spec(counts=4, noise=0.12, seed=13)
    truth, table = generate(spec, rb)
    path = tmp_path / "behaviors.csv"
    write_behaviors_csv(table, rb, path)
    loaded, report = load_behaviors(path, list(rb.variables), policy="strict")
    assert learner_values(loaded) == learner_values(table)


# Ids the readers take as they are: stripped and non-empty, with CSV specials or non-ASCII.
_ODD_IDS = ["a,b", 'say "hi"', "L\r1", "L\n2", "L\r\n3", 'x,"y",\r\nz', "é中😀", "L4"]


def test_every_simulate_and_group_file_reads_back_odd_ids(rb, tmp_path):
    truth, table = generate(_spec(counts=2, noise=0.1, seed=3), rb)
    truth = [(learner, signature) for learner, (_, signature) in zip(_ODD_IDS, truth)]
    table = BehaviorTable(_ODD_IDS, table.columns)
    write_behaviors_csv(table, rb, tmp_path / "behaviors.csv")
    loaded, _ = load_behaviors(tmp_path / "behaviors.csv", list(rb.variables), policy="strict")
    assert loaded == table

    scores = {learner: 10.0 + n / 3 for n, learner in enumerate(_ODD_IDS)}
    write_scores_csv(scores, tmp_path / "scores.csv")
    assert load_scores(tmp_path / "scores.csv") == scores

    write_truth_csv(truth, rb.dimensions(), tmp_path / "truth.csv")
    with open(tmp_path / "truth.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["learner_id", *rb.dimensions()]] + [[i, *s] for i, s in truth]

    params = GroupingParams(control_fraction=0.25, seed=1, min_size=2)
    group = Group(1, tuple(_ODD_IDS[:6]), (1.0,), ("calm",))
    assignment = GroupAssignment((group,), tuple(_ODD_IDS[6:]), params)
    (tmp_path / "assignment.csv").write_text(assignment.to_csv(), encoding="utf-8")
    assert assignment_from_csv(tmp_path / "assignment.csv") == assignment.rows()


def test_behaviors_csv_inverts_max_expected_scaling(tmp_path):
    rb = parse_rulebase(
        """
        input a_minutes dim=processing max_expected=200
        output processing_score dim=processing universe=[0,12] { calm=(0,0,6,8) }

        RULE only: IF a_minutes IS low THEN processing_score IS calm
        """
    )
    spec = CohortSpec(counts=((("calm",), 3),), noise_sigma=0.0, seed=8)
    truth, table = generate(spec, rb)
    path = tmp_path / "behaviors.csv"
    write_behaviors_csv(table, rb, path)
    # file holds raw minutes: 12.5% of 200
    assert ",a_minutes,25.0" in path.read_text()
    loaded, _ = load_behaviors(path, list(rb.variables), policy="strict")
    assert loaded.columns["a_minutes"][0] == pytest.approx(12.5, abs=1e-12)


# -- scores --------------------------------------------------------------------


def _assignment(rb, spec):
    truth, table = generate(spec, rb)
    profiles, _ = classify_cohort(table, rb)
    params = GroupingParams(control_fraction=0.25, seed=31, target_k=4, min_size=2)
    return truth, assign_groups(profiles, params)


def _samples(truth, assignment, model, seed):
    """The group samples and control sample of one score draw."""
    return evaluation_samples(assignment.rows(), generate_scores(truth, assignment, model, seed))


def test_scores_zero_sigma_hit_the_means(rb):
    model = ScoreModel(treated_mean=17.65, control_mean=12.6, sigma=0.0)
    truth, assignment = _assignment(rb, _spec(counts=8, seed=23))
    samples, control = _samples(truth, assignment, model, seed=23)
    for sample in samples:
        assert all(v == 17.65 for v in sample.values)
    assert control is not None
    assert all(v == 12.6 for v in control.values)


def test_scores_signature_specific_means(rb):
    model = ScoreModel(
        treated_mean=17.0,
        control_mean=12.6,
        sigma=0.0,
        signature_means=((SIGNATURES[0], 19.0),),
    )
    truth, assignment = _assignment(rb, _spec(counts=8, seed=29))
    truth_map = dict(truth)
    scores = generate_scores(truth, assignment, model, seed=29)
    for group in assignment.groups:
        for member in group.members:
            expected = 19.0 if truth_map[member] == SIGNATURES[0] else 17.0
            assert scores[member] == expected


def test_scores_clamped_to_range(rb):
    model = ScoreModel(treated_mean=19.5, control_mean=0.5, sigma=4.0)
    truth, assignment = _assignment(rb, _spec(counts=8, seed=37))
    samples, control = _samples(truth, assignment, model, seed=37)
    values = [v for s in samples for v in s.values] + list(control.values)
    assert all(0.0 <= v <= 20.0 for v in values)


def test_scores_paper_style_separation_is_significant(rb):
    model = ScoreModel(treated_mean=17.65, control_mean=12.6, sigma=2.5)
    truth, assignment = _assignment(rb, _spec(counts=50, seed=41))
    samples, control = _samples(truth, assignment, model, seed=41)
    assert control.n >= 30
    for sample in samples:
        assert sample.n >= 30
        result = two_sample_t(sample, control, variant="welch", alpha=0.05)
        assert result.significant


def test_scores_empty_control_absent(rb):
    from stylegroup.grouping import GroupAssignment

    model = ScoreModel(treated_mean=17.0, control_mean=12.0, sigma=1.0)
    truth, assignment = _assignment(rb, _spec(counts=8, seed=43))
    no_control = GroupAssignment(groups=assignment.groups, control=(), params=assignment.params)
    samples, control = _samples(truth, no_control, model, seed=43)
    assert control is None
    assert samples


def test_scores_one_per_learner_in_row_order(rb):
    """Group members by group id, then the control: the order `scores.csv` is written in."""
    model = ScoreModel(treated_mean=17.0, control_mean=12.0, sigma=1.0)
    truth, assignment = _assignment(rb, _spec(counts=8, seed=47))
    scores = generate_scores(truth, assignment, model, seed=47)
    assert list(scores) == [learner for learner, _, _ in assignment.rows()]
