import logging
import math

import pytest
from hypothesis import given, strategies as st

from stylegroup.stats import (
    ItemOutOfRangeError,
    LengthMismatchError,
    Sample,
    TooFewGroupsError,
    TooFewObservationsError,
    WrongItemCountError,
    ZeroVarianceError,
    ZeroWeightSumError,
    build_evaluation_report,
    normality_check,
    one_way_anova,
    pearson_r,
    posthoc_pairwise,
    reg_inc_beta,
    satisfaction_score,
    two_sample_t,
    weighted_mean,
)


# -- independent oracles (power series and explicit sums) ---------------------


def oracle_inc_beta(a, b, x, terms=2000):
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - oracle_inc_beta(b, a, 1.0 - x, terms)
    log_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    total = 0.0
    coef = 1.0
    for n in range(terms):
        total += coef
        coef *= (a + b + n) / (a + 1.0 + n) * x
        if coef < 1e-18 * total:
            break
    return math.exp(log_front) * total / a


def oracle_student_t(xs, ys):
    n1, n2 = len(xs), len(ys)
    m1, m2 = sum(xs) / n1, sum(ys) / n2
    ss1 = sum((v - m1) ** 2 for v in xs)
    ss2 = sum((v - m2) ** 2 for v in ys)
    pooled = (ss1 + ss2) / (n1 + n2 - 2)
    t = (m1 - m2) / math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    df = n1 + n2 - 2
    return t, df, oracle_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def oracle_welch_t(xs, ys):
    n1, n2 = len(xs), len(ys)
    m1, m2 = sum(xs) / n1, sum(ys) / n2
    v1 = sum((v - m1) ** 2 for v in xs) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in ys) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    t = (m1 - m2) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, df, oracle_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def oracle_anova(groups):
    flat = [v for g in groups for v in g]
    grand = sum(flat) / len(flat)
    ss_between = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ss_within = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
    df1 = len(groups) - 1
    df2 = len(flat) - len(groups)
    f = (ss_between / df1) / (ss_within / df2)
    return f, (df1, df2), oracle_inc_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


# -- regularized incomplete beta ----------------------------------------------


def test_inc_beta_boundaries():
    assert reg_inc_beta(2.5, 3.5, 0.0) == 0.0
    assert reg_inc_beta(2.5, 3.5, 1.0) == 1.0


def test_inc_beta_uniform_case():
    assert reg_inc_beta(1, 1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_inc_beta_polynomial_case():
    # I_0.5(2, 3) = 12 * int_0^0.5 t(1-t)^2 dt = 12 * (1/8/2 - 2/3/8 + 1/16/4)
    assert reg_inc_beta(2, 3, 0.5) == pytest.approx(0.6875, abs=1e-12)


@given(
    st.floats(min_value=0.5, max_value=60, allow_nan=False),
    st.floats(min_value=0.5, max_value=60, allow_nan=False),
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
)
def test_inc_beta_matches_series_oracle(a, b, x):
    assert reg_inc_beta(a, b, x) == pytest.approx(oracle_inc_beta(a, b, x), abs=1e-10)


@given(
    st.floats(min_value=0.5, max_value=60, allow_nan=False),
    st.floats(min_value=0.5, max_value=60, allow_nan=False),
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
)
def test_inc_beta_symmetry(a, b, x):
    assert reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) == pytest.approx(
        1.0, abs=1e-10
    )


def test_inc_beta_rejects_bad_domain():
    with pytest.raises(ValueError):
        reg_inc_beta(-1, 2, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1, 2, 1.5)


# -- pearson -------------------------------------------------------------------


def test_pearson_perfect_positive():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_computed():
    assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


@given(
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=-20, max_value=20),
)
def test_pearson_affine_invariance(slope, intercept):
    x = [1.0, 2.0, 5.0, 7.0, 11.0]
    y = [3.0, 1.0, 4.0, 9.0, 2.0]
    base = pearson_r(x, y)
    assert pearson_r([slope * v + intercept for v in x], y) == pytest.approx(
        base, abs=1e-12
    )


def test_pearson_errors():
    with pytest.raises(LengthMismatchError):
        pearson_r([1, 2, 3], [1, 2])
    with pytest.raises(TooFewObservationsError):
        pearson_r([1, 2], [3, 4])
    with pytest.raises(ZeroVarianceError):
        pearson_r([1, 1, 1], [1, 2, 3])


# A constant sample whose plain mean is inexact: (0.1 + 0.1 + 0.1) / 3 is not 0.1,
# so its variance, as computed, is above 0.
_TENTHS = (0.1,) * 3
# A sample that is not constant, but whose squared deviations underflow to 0.
_TINY = (0.0, 1e-170, 2e-170)


def test_pearson_refuses_a_constant_sequence_of_inexact_mean():
    with pytest.raises(ZeroVarianceError):
        pearson_r(list(_TENTHS), [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVarianceError):
        pearson_r(list(_TINY), [1.0, 2.0, 3.0])


# -- two-sample t --------------------------------------------------------------


def test_t_identical_samples():
    a = Sample("a", (1.0, 2.0, 3.0))
    result = two_sample_t(a, Sample("b", (1.0, 2.0, 3.0)), variant="student")
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0, abs=1e-12)
    assert not result.significant


def test_t_student_hand_computed():
    result = two_sample_t(
        Sample("a", (1.0, 2.0, 3.0)), Sample("b", (4.0, 5.0, 6.0)), variant="student"
    )
    # pooled s^2 = 1, se = sqrt(2/3)
    assert result.statistic == pytest.approx(-3.0 / math.sqrt(2.0 / 3.0), abs=1e-12)
    assert result.statistic == pytest.approx(-3.6742346141747673, abs=1e-10)
    assert result.df == 4
    _, _, p = oracle_student_t((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    assert result.p_value == pytest.approx(p, abs=1e-12)
    assert result.significant


def test_t_welch_matches_oracle():
    xs = (12.1, 14.3, 9.8, 11.4, 13.0)
    ys = (17.0, 16.2, 18.9)
    result = two_sample_t(Sample("a", xs), Sample("b", ys), variant="welch")
    t, df, p = oracle_welch_t(xs, ys)
    assert result.statistic == pytest.approx(t, abs=1e-12)
    assert result.df == pytest.approx(df, abs=1e-12)
    assert result.p_value == pytest.approx(p, abs=1e-10)


def test_t_antisymmetry():
    a = Sample("a", (1.0, 4.0, 2.0, 8.0))
    b = Sample("b", (3.0, 3.5, 5.0))
    for variant in ("student", "welch"):
        forward = two_sample_t(a, b, variant=variant)
        backward = two_sample_t(b, a, variant=variant)
        assert forward.statistic == pytest.approx(-backward.statistic, abs=1e-12)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)


def test_t_student_equals_welch_for_balanced_equal_variance():
    a = Sample("a", (1.0, 2.0, 3.0, 4.0))
    b = Sample("b", (11.0, 12.0, 13.0, 14.0))
    student = two_sample_t(a, b, variant="student")
    welch = two_sample_t(a, b, variant="welch")
    assert student.statistic == pytest.approx(welch.statistic, abs=1e-12)
    assert student.p_value == pytest.approx(welch.p_value, abs=1e-12)


def test_t_errors():
    with pytest.raises(TooFewObservationsError):
        two_sample_t(Sample("a", (1.0,)), Sample("b", (1.0, 2.0)))
    with pytest.raises(ZeroVarianceError):
        two_sample_t(Sample("a", (2.0, 2.0)), Sample("b", (3.0, 3.0)))
    with pytest.raises(ZeroVarianceError):
        two_sample_t(Sample("a", _TENTHS), Sample("b", _TENTHS))
    with pytest.raises(ZeroVarianceError):
        two_sample_t(Sample("a", _TINY), Sample("b", _TENTHS))


@given(st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50))
def test_t_p_value_monotone_in_magnitude(t1, t2):
    from stylegroup.stats import _t_p_value

    lo, hi = min(t1, t2), max(t1, t2)
    assert _t_p_value(hi, 7.0) <= _t_p_value(lo, 7.0) + 1e-15


# -- ANOVA ----------------------------------------------------------------------


def test_anova_identical_groups():
    g = (5.0, 6.0, 7.0)
    result = one_way_anova([Sample("a", g), Sample("b", g), Sample("c", g)])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_anova_two_groups_is_t_squared():
    a = Sample("a", (1.0, 4.0, 2.0, 8.0))
    b = Sample("b", (3.0, 3.5, 5.0, 9.0, 4.0))
    t = two_sample_t(a, b, variant="student")
    f = one_way_anova([a, b])
    assert f.statistic == pytest.approx(t.statistic**2, abs=1e-9)
    assert f.p_value == pytest.approx(t.p_value, abs=1e-9)


def test_anova_matches_sum_of_squares_oracle():
    groups = [(1.0, 2.0, 3.0, 4.0), (2.0, 3.0, 4.0, 5.0), (8.0, 9.0, 10.0, 12.0)]
    result = one_way_anova([Sample(f"g{i}", g) for i, g in enumerate(groups)])
    f, (df1, df2), p = oracle_anova(groups)
    assert result.statistic == pytest.approx(f, abs=1e-9)
    assert result.df == (df1, df2)
    assert result.p_value == pytest.approx(p, abs=1e-9)
    assert dict(result.group_means)["g2"] == pytest.approx(9.75)


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.1, max_value=9))
def test_anova_shift_and_scale_invariance(shift, scale):
    groups = [(1.0, 2.0, 3.0), (2.5, 3.5, 2.0), (7.0, 8.0, 6.5)]
    base = one_way_anova([Sample(f"g{i}", g) for i, g in enumerate(groups)])
    moved = one_way_anova(
        [
            Sample(f"g{i}", tuple(scale * v + shift for v in g))
            for i, g in enumerate(groups)
        ]
    )
    assert moved.statistic == pytest.approx(base.statistic, rel=1e-9)
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)


class _CountingSample(Sample):
    """A sample that counts how often its mean is read."""

    __slots__ = ()
    reads: dict = {}

    @property
    def mean(self) -> float:
        _CountingSample.reads[self.label] = _CountingSample.reads.get(self.label, 0) + 1
        return Sample.mean.fget(self)


def test_anova_reads_each_group_mean_once():
    # The mean sums its whole sample, so a read per value is quadratic work.
    groups = [tuple(float(v % 7 + i) for v in range(40)) for i in range(3)]
    _CountingSample.reads.clear()
    counted = one_way_anova([_CountingSample(f"g{i}", g) for i, g in enumerate(groups)])
    assert _CountingSample.reads == {"g0": 1, "g1": 1, "g2": 1}
    assert counted == one_way_anova([Sample(f"g{i}", g) for i, g in enumerate(groups)])


def test_anova_errors():
    with pytest.raises(TooFewGroupsError):
        one_way_anova([Sample("a", (1.0, 2.0))])
    with pytest.raises(ZeroVarianceError):
        one_way_anova([Sample("a", (1.0, 1.0)), Sample("b", (2.0, 2.0))])
    with pytest.raises(ZeroVarianceError):
        one_way_anova([Sample("a", _TENTHS), Sample("b", (0.7,) * 3)])
    with pytest.raises(ZeroVarianceError):
        one_way_anova([Sample("a", _TINY), Sample("b", (2.0,) * 3)])
    with pytest.raises(ZeroVarianceError):  # an underflowed spread next to an inexact mean
        one_way_anova([Sample("a", _TINY), Sample("b", (0.7,) * 3)])


# -- post-hoc --------------------------------------------------------------------


def test_posthoc_two_groups_single_pair():
    comparisons = posthoc_pairwise(
        [Sample("a", (1.0, 2.0, 3.0)), Sample("b", (4.0, 5.0, 6.0))], alpha=0.05
    )
    assert len(comparisons) == 1
    assert comparisons[0].result.alpha == pytest.approx(0.05)


def test_posthoc_pair_count_and_threshold():
    groups = [Sample(f"g{i}", (float(i), float(i) + 1.0)) for i in range(5)]
    comparisons = posthoc_pairwise(groups, alpha=0.05)
    assert len(comparisons) == 10
    assert all(c.result.alpha == pytest.approx(0.005) for c in comparisons)


def test_posthoc_flags_exactly_the_outlier():
    rng_values = [
        (10.1, 9.9, 10.0, 10.2, 9.8),
        (10.0, 10.3, 9.7, 10.1, 9.9),
        (10.2, 9.8, 10.1, 9.9, 10.0),
        (30.1, 29.9, 30.2, 29.8, 30.0),
    ]
    groups = [Sample(f"g{i}", vals) for i, vals in enumerate(rng_values)]
    comparisons = posthoc_pairwise(groups, alpha=0.05)
    flagged = {frozenset(c.pair) for c in comparisons if c.result.significant}
    assert flagged == {
        frozenset({"g3", "g0"}),
        frozenset({"g3", "g1"}),
        frozenset({"g3", "g2"}),
    }


# -- normality --------------------------------------------------------------------


def test_jarque_bera_zero_for_constructed_sample():
    # +/-(1+sqrt(2)), +/-1 and four zeros has exactly zero sample skewness
    # and zero excess kurtosis.
    a = 1.0 + math.sqrt(2.0)
    sample = Sample("sym", (a, -a, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0))
    result = normality_check(sample)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)
    assert not result.advisory


def test_jarque_bera_flags_skewed_sample():
    sample = Sample(
        "skew", (0.1, 0.2, 0.3, 0.5, 0.8, 1.3, 2.1, 3.4, 5.5, 8.9, 14.4, 23.3)
    )
    values = sample.values
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    m4 = sum((v - mean) ** 4 for v in values) / n
    expected_jb = n / 6.0 * ((m3 / m2**1.5) ** 2 + (m4 / m2**2 - 3.0) ** 2 / 4.0)
    result = normality_check(sample)
    assert result.statistic == pytest.approx(expected_jb, abs=1e-9)
    assert result.advisory


def test_jarque_bera_needs_eight():
    with pytest.raises(TooFewObservationsError):
        normality_check(Sample("tiny", (1.0, 2.0, 3.0, 4.0, 5.0)))


def test_jarque_bera_refuses_a_constant_sample_of_inexact_mean():
    with pytest.raises(ZeroVarianceError):
        normality_check(Sample("tenths", (0.1,) * 9))
    with pytest.raises(ZeroVarianceError):
        normality_check(Sample("tiny", _TINY * 3))


# -- aggregation -------------------------------------------------------------------


def test_weighted_mean_equal_weights():
    assert weighted_mean([2.0, 4.0, 6.0], [1.0, 1.0, 1.0]) == pytest.approx(4.0)


def test_weighted_mean_zero_weight_drops_value():
    assert weighted_mean([3.0, 99.0], [1.0, 0.0]) == 3.0


def test_weighted_mean_group_sizes():
    value = weighted_mean([17.0, 18.0, 17.5, 18.2], [145, 112, 104, 59])
    assert value == pytest.approx(17.559047619047618, abs=1e-12)


def test_weighted_mean_errors():
    with pytest.raises(ZeroWeightSumError):
        weighted_mean([1.0], [0.0])
    with pytest.raises(LengthMismatchError):
        weighted_mean([1.0, 2.0], [1.0])


def test_satisfaction_extremes_and_midpoint():
    assert satisfaction_score([[5] * 7]) == 100.0
    assert satisfaction_score([[1] * 7]) == 0.0
    assert satisfaction_score([[3] * 7, [3] * 7]) == 50.0


def test_satisfaction_errors():
    with pytest.raises(WrongItemCountError):
        satisfaction_score([[3] * 6])
    with pytest.raises(ItemOutOfRangeError):
        satisfaction_score([[3, 3, 3, 3, 3, 3, 6]])


# -- evaluation report ---------------------------------------------------------------


def test_evaluation_report_end_to_end():
    import json

    groups = [
        Sample("group-1", tuple(17.0 + 0.1 * (i % 7) for i in range(40))),
        Sample("group-2", tuple(18.0 - 0.1 * (i % 5) for i in range(35))),
    ]
    control = Sample("control", tuple(12.0 + 0.1 * (i % 9) for i in range(30)))
    satisfaction = {
        "group-1": [[4, 4, 5, 4, 4, 5, 4]] * 10,
        "control": [[2, 2, 3, 2, 2, 3, 2]] * 10,
    }
    report = build_evaluation_report(
        groups, control, alpha=0.05, satisfaction_responses=satisfaction
    )
    assert all(c.result.significant for c in report.group_vs_control)
    assert report.anova is not None and report.anova.significant
    assert report.treatment_weighted_mean == pytest.approx(
        weighted_mean([groups[0].mean, groups[1].mean], [40, 35])
    )
    assert report.satisfaction.treatment > report.satisfaction.control
    text = report.to_text()
    assert "Positive" in text and "Significance" in text
    json.dumps(report.to_json_dict())  # serializable


@pytest.mark.parametrize(
    "samples, note, skipped",
    [
        ([Sample("group-1", (1.0, 2.0, 4.0))], "needs at least 2 groups", ["n < 8"]),
        ([Sample("group-1", (1.0, 2.0, 4.0)), Sample("group-2", (3.0,))],
         "every group needs n >= 2", ["n < 8", "n < 8"]),
        ([Sample("group-1", (3.0,) * 8), Sample("group-2", (5.0,) * 8)],
         "within-group variance is zero", ["zero variance", "zero variance"]),
    ],
    ids=["one-group", "single-learner", "constant-groups"],
)
def test_evaluation_report_says_why_it_skips_the_anova(samples, note, skipped):
    report = build_evaluation_report(samples, None)
    assert report.anova is None and report.posthoc == ()
    assert report.anova_note == report.to_json_dict()["anova_note"] == note
    assert list(report.normality) == [
        (sample.label, None, why) for sample, why in zip(samples, skipped)
    ]
    lines = report.to_text().splitlines()
    assert f"one-way ANOVA skipped: {note}" in lines
    assert [line for line in lines if line.startswith("normality ")] == [
        f"normality {sample.label}: skipped ({why})" for sample, why in zip(samples, skipped)
    ]


@pytest.mark.parametrize(
    "with_control, message",
    [
        (True, "evaluation: 3 samples, group sizes 4,3, control 5, alpha 0.01"),
        (False, "evaluation: 2 samples, group sizes 4,3, control none, alpha 0.01"),
    ],
)
def test_evaluation_report_logs_one_line_only_at_info(caplog, with_control, message):
    groups = [Sample("group-1", (17.0, 17.5, 18.0, 16.5)), Sample("group-2", (15.0, 15.5, 16.5))]
    control = Sample("control", (12.0, 12.5, 13.0, 11.5, 12.0)) if with_control else None
    with caplog.at_level(logging.WARNING, logger="stylegroup.stats"):
        quiet = build_evaluation_report(groups, control, alpha=0.01)
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger="stylegroup.stats"):
        assert build_evaluation_report(groups, control, alpha=0.01) == quiet
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("stylegroup.stats", logging.INFO, message)
    ]
