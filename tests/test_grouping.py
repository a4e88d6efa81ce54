import random

import pytest

from stylegroup.classify import DimensionResult, StyleProfile
from stylegroup.dsl import DIMENSIONS
from stylegroup.grouping import (
    DegenerateFractionError,
    EmptyCohortError,
    GroupingParams,
    InfeasibleConstraintsError,
    assign_groups,
    assignment_from_csv,
    content_plan,
    homogeneous_partition,
    split_control,
)
from stylegroup.ingest import IngestError

POLE_SCORE = {"low": 3.5, "high": 9.5, "mid": 7.2}


def _profile(learner_id, signature, jitter=0.0):
    results = tuple(
        DimensionResult(
            dimension=dimension,
            crisp_score=(3.5 if k % 2 == 0 else 9.5) + jitter,
            label=label,
            term_memberships={},
            fired_rules=(),
        )
        for k, (dimension, label) in enumerate(zip(DIMENSIONS, signature))
    )
    return StyleProfile(learner_id=learner_id, results=results)


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
    profiles = [
        _profile("L1", SIG_A),
        _profile("L2", SIG_B),
        _profile("L3", SIG_A),
        _profile("L4", SIG_B),
    ]
    groups = homogeneous_partition(profiles, target_k=2, min_size=1)
    assert len(groups) == 2
    by_sig = {g.signature_mode: set(g.members) for g in groups}
    assert by_sig[SIG_A] == {"L1", "L3"}
    assert by_sig[SIG_B] == {"L2", "L4"}


def test_partition_target_k_is_a_ceiling():
    profiles = [_profile(f"L{i}", SIG_A) for i in range(8)]
    groups = homogeneous_partition(profiles, target_k=3, min_size=1)
    assert len(groups) == 1
    assert len(groups[0].members) == 8


def test_partition_merges_small_groups_into_nearest():
    # two big far-apart clusters plus one tiny group near cluster A
    profiles = (
        [_profile(f"A{i}", SIG_A, jitter=0.0) for i in range(10)]
        + [_profile(f"B{i}", SIG_B, jitter=0.0) for i in range(10)]
        + [_profile("tiny", SIG_C, jitter=0.2)]
    )
    groups = homogeneous_partition(profiles, target_k=2, min_size=2)
    assert len(groups) == 2
    tiny_home = next(g for g in groups if "tiny" in g.members)
    # SIG_C scores sit nearest the SIG_A centroid by construction
    assert tiny_home.signature_mode == SIG_A
    assert set(tiny_home.members) == {f"A{i}" for i in range(10)} | {"tiny"}


def test_partition_mode_signature_majority():
    profiles = [_profile(f"A{i}", SIG_A) for i in range(5)] + [
        _profile("c1", SIG_C, jitter=0.1)
    ]
    groups = homogeneous_partition(profiles, target_k=1, min_size=1)
    assert len(groups) == 1
    assert groups[0].signature_mode == SIG_A


def test_partition_infeasible_constraints():
    with pytest.raises(InfeasibleConstraintsError):
        homogeneous_partition([_profile("L1", SIG_A)], target_k=2, min_size=1)
    with pytest.raises(EmptyCohortError):
        homogeneous_partition([], target_k=1, min_size=1)


def test_partition_invariants_randomized():
    rng = random.Random(17)
    signatures = [SIG_A, SIG_B, SIG_C]
    for _ in range(100):
        n = rng.randint(4, 40)
        profiles = [
            _profile(f"L{i}", rng.choice(signatures), jitter=rng.uniform(-0.5, 0.5))
            for i in range(n)
        ]
        target_k = rng.randint(1, 4)
        min_size = rng.randint(1, 5)
        groups = homogeneous_partition(profiles, target_k=target_k, min_size=min_size)
        members = [m for g in groups for m in g.members]
        assert len(members) == n  # conservation
        assert len(set(members)) == n  # disjoint
        assert len(groups) <= max(target_k, 1)
        if len(groups) > 1:
            assert all(len(g.members) >= min_size for g in groups)


# -- assign_groups ----------------------------------------------------------------


def test_assignment_partitions_and_is_deterministic():
    rng = random.Random(5)
    profiles = [
        _profile(f"L{i}", rng.choice([SIG_A, SIG_B, SIG_C]), jitter=rng.uniform(0, 0.4))
        for i in range(60)
    ]
    params = GroupingParams(control_fraction=0.2, seed=21, target_k=3, min_size=2)
    first = assign_groups(profiles, params)
    second = assign_groups(profiles, params)
    assert first == second
    grouped = {m for g in first.groups for m in g.members}
    assert grouped | set(first.control) == {p.learner_id for p in profiles}
    assert grouped & set(first.control) == set()
    assert len(first.control) == 12


def test_assignment_csv_shape():
    profiles = [_profile(f"L{i}", SIG_A) for i in range(10)]
    params = GroupingParams(control_fraction=0.2, seed=1, target_k=1, min_size=1)
    assignment = assign_groups(profiles, params)
    lines = assignment.to_csv().splitlines()
    assert lines[0] == "learner_id,group_id,is_control"
    assert len(lines) == 11
    assert sum(1 for line in lines[1:] if line.endswith(",1")) == 2


def test_assignment_csv_reads_back():
    profiles = [_profile(f"L{i}", SIG_A) for i in range(10)]
    params = GroupingParams(control_fraction=0.2, seed=1, target_k=1, min_size=1)
    assignment = assign_groups(profiles, params)
    entries = assignment_from_csv(assignment.to_csv())
    assert [e for e in entries if not e[2]] == [
        (m, str(g.group_id), False) for g in assignment.groups for m in g.members
    ]
    assert [e for e in entries if e[2]] == [(m, "control", True) for m in assignment.control]


@pytest.mark.parametrize(
    "row, problem",
    [
        ("L2,1", "learner 'L2': assignment row has 2 fields, expected 3"),
        ("L2,1,0,x", "learner 'L2': assignment row has 4 fields, expected 3"),
        ("L2,control,yes", "learner 'L2': is_control 'yes' is not 0 or 1"),
        ("L2,1,", "learner 'L2': is_control '' is not 0 or 1"),
        ("L2,1,2", "learner 'L2': is_control '2' is not 0 or 1"),
        ("L1,2,0", "learner 'L1': listed twice"),
        (",1,0", "learner '': empty learner id"),
        (" ,1,0", "learner ' ': empty learner id"),
    ],
)
def test_assignment_from_csv_rejects_corrupt_rows(row, problem):
    with pytest.raises(IngestError, match=f"^{problem}$"):
        assignment_from_csv(f"learner_id,group_id,is_control\nL1,1,0\n{row}\n")


def test_assignment_from_csv_rejects_other_header():
    with pytest.raises(IngestError, match="bad header"):
        assignment_from_csv("learner_id,score\nL1,3\n")


# -- content plans ------------------------------------------------------------------


def _group_with_signature(signature):
    profiles = [_profile(f"L{i}", signature) for i in range(3)]
    return homogeneous_partition(profiles, target_k=1, min_size=1)[0]


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
