import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stylegroup.classify import profiles_from_csv, profiles_to_csv
from stylegroup.dsl import DIMENSIONS
from stylegroup.grouping import (
    DegenerateFractionError,
    EmptyCohortError,
    Group,
    GroupAssignment,
    GroupingParams,
    InfeasibleConstraintsError,
    Learner,
    assign_groups,
    assignment_from_csv,
    content_plan,
    homogeneous_partition,
    split_control,
)
from stylegroup.ingest import MalformedRowError

from conftest import cohort_table, table_rows

POLE_SCORE = {"low": 3.5, "high": 9.5, "mid": 7.2}


def _learner(learner_id, signature, jitter=0.0):
    scores = tuple((3.5 if k % 2 == 0 else 9.5) + jitter for k in range(len(signature)))
    return Learner(learner_id, scores, tuple(signature))


def _table(learners):
    """The table of the learners, their scores and labels in `DIMENSIONS` order."""
    return cohort_table(
        (learner_id, tuple((d, s, label, {}, ()) for d, s, label in zip(DIMENSIONS, *rest)))
        for learner_id, *rest in learners
    )


SIG_A = ("reactive", "sensory", "visual", "consecutive")
SIG_B = ("reflection", "intuitive", "verbal", "sequential_global")
SIG_C = ("reactive", "intuitive", "visual", "sequential_global")


# -- split_control -------------------------------------------------------------


def test_split_control_round_of_fraction():
    ids = [f"L{i}" for i in range(466)]
    treatment, control = split_control(ids, 46 / 466, seed=7)
    assert len(control) == 46
    assert len(treatment) == 420


def test_split_control_deterministic():
    ids = [f"L{i}" for i in range(50)]
    assert split_control(ids, 0.2, seed=3) == split_control(ids, 0.2, seed=3)
    assert split_control(ids, 0.2, seed=3) != split_control(ids, 0.2, seed=4)


def test_split_control_partitions_cohort():
    ids = [f"L{i}" for i in range(101)]
    treatment, control = split_control(ids, 0.37, seed=11)
    assert set(treatment) | set(control) == set(ids)
    assert set(treatment) & set(control) == set()
    # both sides preserve the input order
    assert list(treatment) == [i for i in ids if i in set(treatment)]
    assert list(control) == [i for i in ids if i in set(control)]


def test_split_control_degenerate_fraction():
    with pytest.raises(DegenerateFractionError):
        split_control(["L1", "L2", "L3"], 0.01, seed=1)  # rounds to zero
    with pytest.raises(DegenerateFractionError):
        split_control(["L1", "L2", "L3"], 0.99, seed=1)  # rounds to all


def test_split_control_empty_cohort():
    with pytest.raises(EmptyCohortError):
        split_control([], 0.5, seed=1)


# -- homogeneous_partition -------------------------------------------------------


def test_partition_exact_signatures_no_merging():
    learners = [
        _learner("L1", SIG_A),
        _learner("L2", SIG_B),
        _learner("L3", SIG_A),
        _learner("L4", SIG_B),
    ]
    groups = homogeneous_partition(learners, target_k=2, min_size=1)
    assert len(groups) == 2
    by_sig = {g.signature_mode: set(g.members) for g in groups}
    assert by_sig[SIG_A] == {"L1", "L3"}
    assert by_sig[SIG_B] == {"L2", "L4"}


def test_partition_target_k_is_a_ceiling():
    learners = [_learner(f"L{i}", SIG_A) for i in range(8)]
    groups = homogeneous_partition(learners, target_k=3, min_size=1)
    assert len(groups) == 1
    assert len(groups[0].members) == 8


def test_partition_merges_small_groups_into_nearest():
    # two big far-apart clusters plus one tiny group near cluster A
    learners = (
        [_learner(f"A{i}", SIG_A, jitter=0.0) for i in range(10)]
        + [_learner(f"B{i}", SIG_B, jitter=0.0) for i in range(10)]
        + [_learner("tiny", SIG_C, jitter=0.2)]
    )
    groups = homogeneous_partition(learners, target_k=2, min_size=2)
    assert len(groups) == 2
    tiny_home = next(g for g in groups if "tiny" in g.members)
    # SIG_C scores sit nearest the SIG_A centroid by construction
    assert tiny_home.signature_mode == SIG_A
    assert set(tiny_home.members) == {f"A{i}" for i in range(10)} | {"tiny"}


def test_partition_mode_signature_majority():
    learners = [_learner(f"A{i}", SIG_A) for i in range(5)] + [
        _learner("c1", SIG_C, jitter=0.1)
    ]
    groups = homogeneous_partition(learners, target_k=1, min_size=1)
    assert len(groups) == 1
    assert groups[0].signature_mode == SIG_A


def test_partition_infeasible_constraints():
    with pytest.raises(InfeasibleConstraintsError):
        homogeneous_partition([_learner("L1", SIG_A)], target_k=2, min_size=1)
    with pytest.raises(EmptyCohortError):
        homogeneous_partition([], target_k=1, min_size=1)


def test_partition_invariants_randomized():
    rng = random.Random(17)
    signatures = [SIG_A, SIG_B, SIG_C]
    for _ in range(100):
        n = rng.randint(4, 40)
        learners = [
            _learner(f"L{i}", rng.choice(signatures), jitter=rng.uniform(-0.5, 0.5))
            for i in range(n)
        ]
        target_k = rng.randint(1, 4)
        min_size = rng.randint(1, 5)
        groups = homogeneous_partition(learners, target_k=target_k, min_size=min_size)
        members = [m for g in groups for m in g.members]
        assert len(members) == n  # conservation
        assert len(set(members)) == n  # disjoint
        assert len(groups) <= max(target_k, 1)
        if len(groups) > 1:
            assert all(len(g.members) >= min_size for g in groups)


def _reference_partition(learners, target_k, min_size):
    """Smallest-into-nearest merging that recomputes every centroid at every step.

    Returns (members, centroid) per group in group id order.
    """

    def centroid(members):
        rows = [scores[m] for m in members]
        return tuple(sum(row[k] for row in rows) / len(rows) for k in range(len(rows[0])))

    def distance(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    scores = {learner.learner_id: learner.scores for learner in learners}
    by_signature = {}
    for learner in learners:
        by_signature.setdefault(learner.signature, []).append(learner.learner_id)
    groups = {gid: m for gid, (_, m) in enumerate(sorted(by_signature.items()), start=1)}
    while len(groups) > 1:
        if len(groups) <= target_k and all(len(m) >= min_size for m in groups.values()):
            break
        smallest = min(groups, key=lambda gid: (len(groups[gid]), gid))
        source = centroid(groups[smallest])
        target = min(
            (gid for gid in groups if gid != smallest),
            key=lambda gid: (distance(centroid(groups[gid]), source), gid),
        )
        groups[target].extend(groups.pop(smallest))
    return [(tuple(m), centroid(m)) for _, m in sorted(groups.items())]


def test_partition_equals_recomputing_every_centroid():
    # Many signatures and free scores, so that dozens of merges each move
    # one group's centroid; groups and centroids must match bit for bit.
    rng = random.Random(23)
    labels = ("a", "b", "c")
    for _ in range(20):
        learners = [
            Learner(
                f"L{i}",
                tuple(rng.uniform(0, 12) for _ in DIMENSIONS),
                tuple(rng.choice(labels) for _ in DIMENSIONS),
            )
            for i in range(rng.randint(20, 120))
        ]
        target_k, min_size = rng.randint(1, 5), rng.randint(1, 12)
        groups = homogeneous_partition(learners, target_k=target_k, min_size=min_size)
        assert [(g.members, g.centroid) for g in groups] == _reference_partition(
            learners, target_k, min_size
        )


# -- assign_groups ----------------------------------------------------------------


def test_assignment_partitions_and_is_deterministic():
    rng = random.Random(5)
    learners = [
        _learner(f"L{i}", rng.choice([SIG_A, SIG_B, SIG_C]), jitter=rng.uniform(0, 0.4))
        for i in range(60)
    ]
    params = GroupingParams(control_fraction=0.2, seed=21, target_k=3, min_size=2)
    first = assign_groups(_table(learners), params)
    second = assign_groups(_table(learners), params)
    assert first == second
    grouped = {m for g in first.groups for m in g.members}
    assert grouped | set(first.control) == {learner.learner_id for learner in learners}
    assert grouped & set(first.control) == set()
    assert len(first.control) == 12


@pytest.mark.parametrize("min_size", [1, 0, -3])
def test_assign_groups_refuses_min_size_below_two(min_size):
    # Each group faces the control in a t-test, which needs 2 values a side.
    learners = [_learner(f"L{i}", SIG_A) for i in range(29)] + [_learner("L29", SIG_B)]
    params = GroupingParams(control_fraction=0.1, seed=1, target_k=2, min_size=min_size)
    with pytest.raises(InfeasibleConstraintsError) as exc_info:
        assign_groups(_table(learners), params)
    assert str(exc_info.value) == f"min_size must be >= 2, got {min_size}"


def test_assignment_csv_shape():
    learners = [_learner(f"L{i}", SIG_A) for i in range(10)]
    params = GroupingParams(control_fraction=0.2, seed=1, target_k=1, min_size=2)
    assignment = assign_groups(_table(learners), params)
    lines = assignment.to_csv().splitlines()
    assert lines[0] == "learner_id,group_id,is_control"
    assert len(lines) == 11
    assert sum(1 for line in lines[1:] if line.endswith(",1")) == 2


def test_assignment_csv_reads_back(tmp_path):
    learners = [_learner(f"L{i}", SIG_A) for i in range(10)]
    params = GroupingParams(control_fraction=0.2, seed=1, target_k=1, min_size=2)
    assignment = assign_groups(_table(learners), params)
    path = tmp_path / "assignment.csv"
    path.write_text(assignment.to_csv(), encoding="utf-8")
    entries = assignment_from_csv(path)
    assert [e for e in entries if not e[2]] == [
        (m, str(g.group_id), False) for g in assignment.groups for m in g.members
    ]
    assert [e for e in entries if e[2]] == [(m, "control", True) for m in assignment.control]
    assert entries == assignment.rows()


# (row after L1's, what is wrong with it, the reader's message); the id is the first two.
_CORRUPT_ASSIGNMENT_ROWS = [
    ("L2,1", "learner 'L2': assignment row has 2 fields, expected 3",
     "line 3: expected 3 fields, got 2"),
    ("L2,1,0,x", "learner 'L2': assignment row has 4 fields, expected 3",
     "line 3: expected 3 fields, got 4"),
    ("L2,control,yes", "learner 'L2': is_control 'yes' is not 0 or 1",
     "line 3: is_control 'yes' is not 0 or 1"),
    ("L2,1,", "learner 'L2': is_control '' is not 0 or 1", "line 3: is_control '' is not 0 or 1"),
    ("L2,1,2", "learner 'L2': is_control '2' is not 0 or 1",
     "line 3: is_control '2' is not 0 or 1"),
    ("L1,2,0", "learner 'L1': listed twice", "line 3: learner 'L1' listed twice"),
    (",1,0", "learner '': empty learner id", "line 3: empty learner_id"),
    (" ,1,0", "learner ' ': empty learner id", "line 3: empty learner_id"),
    ("L2,,0", "learner 'L2': empty group_id", "line 3: empty group_id"),
    ("L2, ,1", "learner 'L2': empty group_id", "line 3: empty group_id"),
    ("L2,control,0", "learner 'L2': group_id 'control' disagrees with is_control 0",
     "line 3: group_id 'control' disagrees with is_control 0"),
    ("L2,1,1", "learner 'L2': group_id '1' disagrees with is_control 1",
     "line 3: group_id '1' disagrees with is_control 1"),
]


@pytest.mark.parametrize(
    "row, message",
    [(row, message) for row, _, message in _CORRUPT_ASSIGNMENT_ROWS],
    ids=[f"{row}-{fault}" for row, fault, _ in _CORRUPT_ASSIGNMENT_ROWS],
)
def test_assignment_from_csv_rejects_corrupt_rows(tmp_path, row, message):
    path = tmp_path / "assignment.csv"
    path.write_text(f"learner_id,group_id,is_control\nL1,1,0\n{row}\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as exc_info:
        assignment_from_csv(path)
    assert str(exc_info.value) == message


def test_assignment_from_csv_rejects_other_header(tmp_path):
    path = tmp_path / "assignment.csv"
    path.write_text("learner_id,score\nL1,3\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as exc_info:
        assignment_from_csv(path)
    assert str(exc_info.value) == (
        "line 1: expected header 'learner_id,group_id,is_control', got 'learner_id,score'"
    )


# Ids as the readers give them back: stripped and non-empty. A lone surrogate
# (category Cs) has no UTF-8 form, so no file holds one.
_IDS = st.text(
    st.sampled_from(list("Lx0é 中,\"\r\n")) | st.characters(exclude_categories=("Cs",)),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.lists(_IDS, min_size=1, max_size=8, unique=True), st.data())
def test_profile_and_assignment_csv_round_trip(tmp_path_factory, ids, data):
    """What `profiles_to_csv` and `GroupAssignment.to_csv` write, their readers give back."""
    dimensions = DIMENSIONS[: data.draw(st.integers(1, len(DIMENSIONS)))]
    rows = [
        (
            learner,
            tuple(
                (
                    dimension,
                    data.draw(st.floats(allow_nan=False, allow_infinity=False)),
                    data.draw(st.text(max_size=6)),
                    {},
                    (),
                )
                for dimension in dimensions
            ),
        )
        for learner in ids
    ]
    in_control = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    treated = [learner for learner, control in zip(ids, in_control) if not control]
    groups = tuple(
        Group(group_id=gid, members=tuple(treated[gid - 1 :: 2]), centroid=(), signature_mode=())
        for gid in (1, 2)
        if treated[gid - 1 :: 2]
    )
    control = tuple(learner for learner, control in zip(ids, in_control) if control)
    assignment = GroupAssignment(groups, control, GroupingParams(0.2, seed=0))
    directory = tmp_path_factory.mktemp("round-trip")
    (directory / "profiles.csv").write_text(profiles_to_csv(cohort_table(rows)), encoding="utf-8")
    (directory / "assignment.csv").write_text(assignment.to_csv(), encoding="utf-8")

    rebuilt = profiles_from_csv(directory / "profiles.csv")
    assert [
        (learner, [(d, label, score.hex()) for d, score, label, _, _ in results])
        for learner, results in table_rows(rebuilt)
    ] == [
        (learner, [(d, label, score.hex()) for d, score, label, _, _ in results])
        for learner, results in rows
    ]
    assert assignment_from_csv(directory / "assignment.csv") == [
        *((m, str(g.group_id), False) for g in groups for m in g.members),
        *((m, "control", True) for m in control),
    ]


# -- content plans ------------------------------------------------------------------


def _group_with_signature(signature):
    learners = [_learner(f"L{i}", signature) for i in range(3)]
    return homogeneous_partition(learners, target_k=1, min_size=1)[0]


def test_content_plan_pole_preferences():
    plan = content_plan(_group_with_signature(SIG_A))
    assert plan.media == "visual"
    assert plan.structure == "part-by-part"
    assert plan.activity == "individual"
    assert plan.grounding == "examples"


def test_content_plan_opposite_poles():
    plan = content_plan(_group_with_signature(SIG_B))
    assert plan.media == "verbal"
    assert plan.structure == "mixed"  # hybrid understanding label
    assert plan.activity == "group"
    assert plan.grounding == "theory"


def test_content_plan_hybrid_maps_to_mixed():
    signature = ("reactive_reflective", "sensory_intuitive", "visual_verbal", "global")
    plan = content_plan(_group_with_signature(signature))
    assert plan.activity == "mixed"
    assert plan.grounding == "mixed"
    assert plan.media == "mixed"
    assert plan.structure == "overview"


def test_content_plan_json_has_notes():
    plan = content_plan(_group_with_signature(SIG_A))
    payload = plan.to_json_dict()
    assert payload["preferences"]["media"]["descriptor"] == "visual"
    assert "diagram" in payload["preferences"]["media"]["note"]
