"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import subprocess
import sys
import time

import numpy as np

from stylegroup.classify import classify_cohort
from stylegroup.dsl import (
    DIMENSIONS,
    error_count,
    parse_rulebase,
    pretty_print,
    validate,
)
from stylegroup.fuzzy import Trapezoid
from stylegroup.grouping import (
    DegenerateFractionError,
    GroupingParams,
    InfeasibleConstraintsError,
    assign_groups,
)
from stylegroup.kernel import centroids
from stylegroup.simulate import CohortSpec, ScoreModel, generate, generate_scores
from stylegroup.stats import Sample, evaluation_samples, one_way_anova, pearson_r, two_sample_t

from conftest import cohort_table, riemann_centroid, scaled_trap_envelope
from test_stats import oracle_anova, oracle_student_t, oracle_welch_t

PLANTED_SIGNATURES = (
    ("reactive", "sensory", "visual", "consecutive"),
    ("reflection", "intuitive", "verbal", "sequential_global"),
    ("reactive", "intuitive", "visual", "sequential_global"),
    ("reflection", "sensory", "verbal", "consecutive"),
)


def _report(number: int, slug: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {slug}: {status}{suffix}")
    assert ok, f"criterion {number} {slug} failed{suffix}"


def test_criterion_1_fuzzy_algebra_randomized():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        corners = np.sort(rng.uniform(-50.0, 50.0, size=4))
        trap = Trapezoid(*corners)
        xs = rng.uniform(-60.0, 60.0, size=3)
        for x in xs:
            degree = trap.membership(float(x))
            if not 0.0 <= degree <= 1.0:
                violations += 1
        if trap.membership(trap.b) != 1.0 or trap.membership(trap.c) != 1.0:
            violations += 1
        if trap.a != trap.b and trap.membership(trap.a) != 0.0:
            violations += 1
        if trap.c != trap.d and trap.membership(trap.d) != 0.0:
            violations += 1
        # monotone on both ramps
        u, v = np.sort(rng.uniform(0.0, 1.0, size=2))
        rise_lo = trap.a + u * (trap.b - trap.a)
        rise_hi = trap.a + v * (trap.b - trap.a)
        if trap.membership(rise_lo) > trap.membership(rise_hi):
            violations += 1
        fall_lo = trap.c + u * (trap.d - trap.c)
        fall_hi = trap.c + v * (trap.d - trap.c)
        if trap.membership(fall_lo) < trap.membership(fall_hi):
            violations += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "fuzzy-algebra",
        violations == 0 and elapsed < 5.0,
        f"{violations} violations, {elapsed:.2f}s",
    )


def test_criterion_2_centroid_matches_riemann_oracle(rb):
    rng = np.random.default_rng(202)
    output_vars = [rb.output_for(d) for d in DIMENSIONS]
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        out_var = output_vars[trial % len(output_vars)]
        terms = [trap for _, trap in out_var.terms]
        k = int(rng.integers(1, len(terms) + 1))
        picked = rng.choice(len(terms), size=k, replace=False)
        contributions = [
            (float(rng.uniform(0.01, 1.0)), terms[int(i)]) for i in picked
        ]
        scales = [[s for s, _ in contributions]]
        value = float(centroids(out_var.universe, [t for _, t in contributions], scales)[0])
        oracle = riemann_centroid(
            scaled_trap_envelope([(s, t.corners()) for s, t in contributions]),
            0.0,
            12.0,
            points=1_000_000,
        )
        worst = max(worst, abs(value - oracle))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "centroid-oracle",
        worst <= 1e-4 and elapsed < 30.0,
        f"worst |delta| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_rule_base_fidelity(rb):
    diagnostics = validate(rb)
    clean = error_count(diagnostics) == 0

    text = pretty_print(rb)
    reparsed = parse_rulebase(text)
    stable = pretty_print(reparsed) == text and reparsed == rb

    conflicted = parse_rulebase(
        """
        input test_time dim=processing
        output processing_score dim=processing universe=[0,12] { reactive=(0,0,6,8) reflective=(6,8,12,12) }

        RULE a: IF test_time IS low THEN processing_score IS reactive
        RULE b: IF test_time IS low THEN processing_score IS reflective
        """
    )
    conflict_found = any(
        d.code == "conflict" and d.severity == "error" for d in validate(conflicted)
    )
    _report(
        3,
        "rule-base-fidelity",
        clean and stable and conflict_found,
        f"errors={error_count(diagnostics)}, round-trip={'ok' if stable else 'broken'}",
    )


def test_criterion_4_zero_noise_recovery(rb):
    spec = CohortSpec(
        counts=tuple((sig, 100) for sig in PLANTED_SIGNATURES), noise_sigma=0.0, seed=404
    )
    start = time.perf_counter()
    truth, behaviors = generate(spec, rb)
    table, failures = classify_cohort(behaviors, rb)
    elapsed = time.perf_counter() - start
    truth_map = dict(truth)
    recovered = sum(
        signature == truth_map[learner] for learner, signature in zip(table.ids, table.rows(1))
    )
    _report(
        4,
        "zero-noise-recovery",
        not failures and recovered == 400 and elapsed < 10.0,
        f"{recovered}/400 recovered, {elapsed:.1f}s",
    )


def test_criterion_5_noisy_recovery_correlation(rb):
    prototype = {}
    for dimension in DIMENSIONS:
        out_var = rb.output_for(dimension)
        for label, trap in out_var.terms:
            prototype[(dimension, label)] = riemann_centroid(
                scaled_trap_envelope([(1.0, trap.corners())]), 0.0, 12.0, points=200_000
            )

    per_dimension_rs = {d: [] for d in DIMENSIONS}
    for seed in range(5):
        spec = CohortSpec(
            counts=tuple((sig, 105) for sig in PLANTED_SIGNATURES),
            noise_sigma=0.05,
            seed=seed,
        )
        truth, behaviors = generate(spec, rb)
        table, failures = classify_cohort(behaviors, rb)
        assert not failures
        truth_map = dict(truth)
        for i, dimension in enumerate(DIMENSIONS):
            planted = [prototype[(dimension, truth_map[learner][i])] for learner in table.ids]
            recovered = [scores[i] for scores in table.rows(0)]
            per_dimension_rs[dimension].append(pearson_r(planted, recovered))

    averaged = {d: sum(rs) / len(rs) for d, rs in per_dimension_rs.items()}
    _report(
        5,
        "noisy-recovery",
        all(r >= 0.8 for r in averaged.values()),
        ", ".join(f"{d}={r:.3f}" for d, r in averaged.items()),
    )


T_DATASETS = [
    ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
    ((12.1, 14.3, 9.8, 11.4, 13.0), (17.0, 16.2, 18.9)),
    ((0.5, 0.7, 0.9, 1.1), (0.6, 0.8, 1.0, 1.2, 1.4)),
    ((10.0, 10.5, 11.0, 9.5, 10.2, 10.8), (10.1, 10.4, 10.9)),
    ((-3.0, -1.0, 2.0, 4.0), (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)),
    ((17.2, 18.1, 16.9, 17.8, 18.4, 17.0), (12.2, 13.1, 11.9, 12.8, 13.4)),
]

ANOVA_DATASETS = [
    ((1.0, 2.0, 3.0, 4.0), (2.0, 3.0, 4.0, 5.0), (8.0, 9.0, 10.0, 12.0)),
    ((5.0, 6.0, 7.0), (5.5, 6.5, 7.5), (5.2, 6.2, 7.2)),
    ((0.1, 0.4, 0.3), (0.9, 1.4, 1.2), (2.1, 2.6, 2.2), (3.3, 3.1, 3.8)),
    ((10.0, 12.0, 11.0, 13.0), (20.0, 21.0, 19.0), (15.0, 14.0, 16.0, 17.0, 15.5)),
]


def test_criterion_6_statistics_oracle():
    failures = []
    for xs, ys in T_DATASETS:
        a, b = Sample("a", xs), Sample("b", ys)
        t_oracle, df_oracle, p_oracle = oracle_student_t(xs, ys)
        result = two_sample_t(a, b, variant="student")
        if abs(result.statistic - t_oracle) > 1e-9 or abs(result.df - df_oracle) > 1e-9:
            failures.append(("student-stat", xs, ys))
        if abs(result.p_value - p_oracle) > 1e-6:
            failures.append(("student-p", xs, ys))
        t_oracle, df_oracle, p_oracle = oracle_welch_t(xs, ys)
        result = two_sample_t(a, b, variant="welch")
        if abs(result.statistic - t_oracle) > 1e-9 or abs(result.df - df_oracle) > 1e-9:
            failures.append(("welch-stat", xs, ys))
        if abs(result.p_value - p_oracle) > 1e-6:
            failures.append(("welch-p", xs, ys))

    for groups in ANOVA_DATASETS:
        f_oracle, df_oracle, p_oracle = oracle_anova(groups)
        result = one_way_anova([Sample(f"g{i}", g) for i, g in enumerate(groups)])
        if abs(result.statistic - f_oracle) > 1e-9 or result.df != df_oracle:
            failures.append(("anova-stat", groups))
        if abs(result.p_value - p_oracle) > 1e-6:
            failures.append(("anova-p", groups))

    # k=2 identity: F equals the squared pooled-variance t
    xs, ys = T_DATASETS[5]
    t = two_sample_t(Sample("a", xs), Sample("b", ys), variant="student")
    f = one_way_anova([Sample("a", xs), Sample("b", ys)])
    identity_ok = (
        abs(f.statistic - t.statistic**2) <= 1e-9
        and abs(f.p_value - t.p_value) <= 1e-9
    )
    _report(
        6,
        "statistics-oracle",
        not failures and identity_ok,
        f"{len(T_DATASETS) * 2 + len(ANOVA_DATASETS)} datasets, "
        f"identity {'ok' if identity_ok else 'broken'}"
        + (f"; failures: {failures[:2]}" if failures else ""),
    )


def test_criterion_7_significance_verdicts_across_seeds(rb):
    model = ScoreModel(treated_mean=17.65, control_mean=12.6, sigma=2.5)
    params_template = dict(control_fraction=0.2, target_k=4, min_size=2)
    all_positive = 0
    arm_floor = None
    start = time.perf_counter()
    for seed in range(100):
        spec = CohortSpec(
            counts=tuple((sig, 55) for sig in PLANTED_SIGNATURES),
            noise_sigma=0.05,
            seed=seed,
            score_model=model,
        )
        truth, behaviors = generate(spec, rb)
        table, failures = classify_cohort(behaviors, rb)
        assert not failures
        assignment = assign_groups(table, GroupingParams(seed=seed, **params_template))
        scores = generate_scores(truth, assignment, model, seed=seed)
        samples, control = evaluation_samples(assignment.rows(), scores)
        arms = [s.n for s in samples] + [control.n]
        arm_floor = min(arms) if arm_floor is None else min(arm_floor, *arms)
        verdicts = [
            two_sample_t(sample, control, variant="welch", alpha=0.05).significant
            for sample in samples
        ]
        if all(verdicts):
            all_positive += 1
    elapsed = time.perf_counter() - start
    _report(
        7,
        "table-style-significance",
        all_positive >= 95 and arm_floor >= 30,
        f"{all_positive}/100 seeds all-positive, smallest arm {arm_floor}, {elapsed:.1f}s",
    )


def _random_table(rng, n):
    labels = {
        "processing": ("reactive", "reactive_reflective", "reflection"),
        "perception": ("sensory", "sensory_intuitive", "intuitive"),
        "entrance": ("visual", "visual_verbal", "verbal"),
        "understanding": ("consecutive", "sequential_global", "global"),
    }
    rows = []
    for i in range(n):
        results = tuple(
            (
                dimension,
                float(rng.uniform(0.0, 12.0)),
                labels[dimension][int(rng.integers(0, 3))],
                {},
                (),
            )
            for dimension in DIMENSIONS
        )
        rows.append((f"L{i:04d}", results))
    return cohort_table(rows)


def test_criterion_8_grouping_invariants_randomized():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    bad = refused = 0
    for trial in range(1000):
        n = int(rng.integers(6, 60))
        table = _random_table(rng, n)
        params = GroupingParams(
            control_fraction=float(rng.uniform(0.1, 0.4)),
            seed=int(rng.integers(0, 10_000)),
            target_k=int(rng.integers(1, 6)),
            min_size=int(rng.integers(1, 4)),
        )
        # Each side of the split needs at least 2 learners, and so does each group.
        control_n = round(params.control_fraction * n)
        too_small = params.min_size < 2
        degenerate = min(control_n, n - control_n) < 2
        try:
            first = assign_groups(table, params)
        except InfeasibleConstraintsError as exc:
            refused += 1
            bad += not too_small or "min_size" not in str(exc)
            continue
        except DegenerateFractionError:
            refused += 1
            bad += too_small or not degenerate
            continue
        if too_small or degenerate:
            bad += 1
            continue
        second = assign_groups(table, params)
        if first != second or first.to_csv().encode() != second.to_csv().encode():
            bad += 1
            continue
        members = [m for g in first.groups for m in g.members]
        cohort = set(table.ids)
        if (
            len(members) != len(set(members))
            or set(members) & set(first.control)
            or set(members) | set(first.control) != cohort
            or any(len(g.members) < 2 for g in first.groups)
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        "grouping-invariants",
        bad == 0,
        f"1000 cohorts, {refused} refused, {bad} violations, {elapsed:.1f}s",
    )


def test_criterion_9_pipeline_byte_determinism(tmp_path):
    start = time.perf_counter()
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "stylegroup.cli",
                "pipeline",
                "--seed",
                "42",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        trees.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        )
    elapsed = time.perf_counter() - start
    identical = trees[0] == trees[1] and len(trees[0]) >= 10
    _report(
        9,
        "pipeline-determinism",
        identical and elapsed < 60.0,
        f"{len(trees[0])} files, {elapsed:.1f}s",
    )
