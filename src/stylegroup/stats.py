"""Statistical evaluation: correlation, t-tests, one-way ANOVA, normality.

The t and F tail probabilities come from a self-contained regularized
incomplete beta function (continued fraction, Lentz's method), so the
module needs no distribution tables or external statistics library.
All p-values are two-sided.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

DEFAULT_ALPHA = 0.05

# The incomplete beta's continued fraction stops once a step changes it by
# less than BETA_TOL, and fails after BETA_MAX_ITER steps.
BETA_TOL = 1e-12
BETA_MAX_ITER = 300

log = logging.getLogger(__name__)


class StatsError(Exception):
    """Base class for statistical-evaluation failures."""


class NonConvergenceError(StatsError):
    pass


class LengthMismatchError(StatsError):
    pass


class ZeroVarianceError(StatsError):
    pass


class TooFewObservationsError(StatsError):
    pass


class TooFewGroupsError(StatsError):
    pass


class ZeroWeightSumError(StatsError):
    pass


class ItemOutOfRangeError(StatsError):
    pass


class WrongItemCountError(StatsError):
    pass


class _Observations(NamedTuple):
    label: str
    values: tuple[float, ...]


class Sample(_Observations):
    """A labelled list of finite observations."""

    __slots__ = ()

    def __new__(cls, label: str, values: tuple[float, ...]):
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError(f"sample {label!r} is empty")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"sample {label!r} contains non-finite values")
        return tuple.__new__(cls, (label, values))

    @classmethod
    def _make(cls, fields):  # `_replace` builds through here; check its fields too
        return cls(*fields)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (ddof=1); requires n >= 2."""
        if self.n < 2:
            raise TooFewObservationsError(
                f"sample {self.label!r} needs n >= 2 for a variance"
            )
        m = self.mean
        return sum((v - m) ** 2 for v in self.values) / (self.n - 1)


class TestResult(NamedTuple):
    statistic: float
    df: float | tuple[float, float]
    p_value: float
    alpha: float
    significant: bool


def _beta_cf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b).
    tiny = 1e-300

    def floor(value: float) -> float:  # keeps a denominator away from zero
        return tiny if abs(value) < tiny else value

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / floor(1.0 - qab * x / qap)
    h = d
    for m in range(1, BETA_MAX_ITER + 1):
        m2 = 2 * m
        # The even step of the fraction, then the odd one.
        for coeff in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / floor(1.0 + coeff * d)
            c = floor(1.0 + coeff / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < BETA_TOL:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation; the symmetry I_x(a,b) = 1 - I_(1-x)(b,a)
    keeps the fraction in its fast-converging region.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - reg_inc_beta(b, a, 1.0 - x)
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    return math.exp(ln_front) * _beta_cf(a, b, x) / a


def _t_p_value(t: float, df: float) -> float:
    # Two-sided tail of Student's t via the incomplete beta.
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def _f_p_value(f: float, df1: float, df2: float) -> float:
    # Upper tail of the F distribution via the incomplete beta.
    if f < 0:
        raise ValueError(f"F statistic must be non-negative, got {f}")
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def _constant(values: Sequence[float]) -> bool:
    """All values equal, which a variance above 0 can hide (the mean of three 0.1s is inexact)."""
    return len(set(values)) == 1


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; invariant under positive affine maps."""
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise TooFewObservationsError(f"need at least 3 pairs, got {n}")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((xi - mx) ** 2 for xi in x)
    syy = sum((yi - my) ** 2 for yi in y)
    if sxx == 0.0 or syy == 0.0 or _constant(x) or _constant(y):
        raise ZeroVarianceError("correlation is undefined for a constant sequence")
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def two_sample_t(
    a: Sample,
    b: Sample,
    variant: str = "welch",
    alpha: float = DEFAULT_ALPHA,
) -> TestResult:
    """Two-sample t-test: the mean difference divided by its standard error.

    ``student`` pools the variances (df = n1 + n2 - 2); ``welch`` drops the
    equal-variance assumption and uses the Welch–Satterthwaite df.
    """
    if variant not in ("student", "welch"):
        raise ValueError(f"variant must be 'student' or 'welch', got {variant!r}")
    if a.n < 2 or b.n < 2:
        raise TooFewObservationsError("both samples need n >= 2")
    va, vb = a.variance, b.variance
    if (va == 0.0 or _constant(a.values)) and (vb == 0.0 or _constant(b.values)):
        raise ZeroVarianceError("both samples have zero variance")
    if variant == "student":
        pooled = ((a.n - 1) * va + (b.n - 1) * vb) / (a.n + b.n - 2)
        se = math.sqrt(pooled * (1.0 / a.n + 1.0 / b.n))
        df: float = a.n + b.n - 2
    else:
        se = math.sqrt(va / a.n + vb / b.n)
        df = (va / a.n + vb / b.n) ** 2 / (
            (va / a.n) ** 2 / (a.n - 1) + (vb / b.n) ** 2 / (b.n - 1)
        )
    t = (a.mean - b.mean) / se
    p = _t_p_value(t, df)
    return TestResult(statistic=t, df=df, p_value=p, alpha=alpha, significant=p < alpha)


class AnovaResult(NamedTuple):
    """A `TestResult`'s fields, then each group's mean."""

    statistic: float
    df: float | tuple[float, float]
    p_value: float
    alpha: float
    significant: bool
    group_means: tuple[tuple[str, float], ...] = ()


def one_way_anova(groups: Sequence[Sample], alpha: float = DEFAULT_ALPHA) -> AnovaResult:
    """One-way ANOVA: F = between-group over within-group mean square."""
    if len(groups) < 2:
        raise TooFewGroupsError(f"need at least 2 groups, got {len(groups)}")
    for group in groups:
        if group.n < 2:
            raise TooFewObservationsError(f"group {group.label!r} needs n >= 2")
    total_n = sum(g.n for g in groups)
    grand_mean = sum(sum(g.values) for g in groups) / total_n
    means = [g.mean for g in groups]  # each a sum over its group: read once
    ss_between = sum(g.n * (m - grand_mean) ** 2 for g, m in zip(groups, means))
    # A constant group adds exactly 0, which the deviations from an inexact mean would hide.
    ss_within = sum(
        sum((v - m) ** 2 for v in g.values)
        for g, m in zip(groups, means)
        if not _constant(g.values)
    )
    df1 = len(groups) - 1
    df2 = total_n - len(groups)
    if ss_within == 0.0:
        raise ZeroVarianceError("within-group variance is zero")
    f = (ss_between / df1) / (ss_within / df2)
    p = _f_p_value(f, df1, df2)
    return AnovaResult(
        statistic=f,
        df=(float(df1), float(df2)),
        p_value=p,
        alpha=alpha,
        significant=p < alpha,
        group_means=tuple((g.label, m) for g, m in zip(groups, means)),
    )


class PairwiseComparison(NamedTuple):
    pair: tuple[str, str]
    result: TestResult


def posthoc_pairwise(
    groups: Sequence[Sample], alpha: float = DEFAULT_ALPHA
) -> list[PairwiseComparison]:
    """Student t for every unordered pair, Bonferroni-adjusted threshold."""
    if len(groups) < 2:
        raise TooFewGroupsError(f"need at least 2 groups, got {len(groups)}")
    adjusted = alpha / math.comb(len(groups), 2)
    comparisons = []
    for left, right in combinations(groups, 2):
        result = two_sample_t(left, right, variant="student", alpha=adjusted)
        comparisons.append(PairwiseComparison(pair=(left.label, right.label), result=result))
    return comparisons


class NormalityResult(NamedTuple):
    statistic: float
    p_value: float
    advisory: bool  # True: prefer a non-parametric comparison


def normality_check(sample: Sample) -> NormalityResult:
    """Jarque–Bera normality screen from sample skewness and excess kurtosis.

    JB = n/6 * (S^2 + K^2/4) is asymptotically chi-square with 2 df, so the
    tail probability is exp(-JB/2). The advisory flag is set when p < 0.05.
    """
    if sample.n < 8:
        raise TooFewObservationsError(
            f"normality screen needs n >= 8, got {sample.n}"
        )
    m = sample.mean
    centered = [v - m for v in sample.values]
    m2 = sum(c**2 for c in centered) / sample.n
    if m2 == 0.0 or _constant(sample.values):
        raise ZeroVarianceError("normality screen is undefined for a constant sample")
    skew = (sum(c**3 for c in centered) / sample.n) / m2**1.5
    excess_kurtosis = (sum(c**4 for c in centered) / sample.n) / m2**2 - 3.0
    jb = sample.n / 6.0 * (skew**2 + excess_kurtosis**2 / 4.0)
    p = math.exp(-jb / 2.0)
    return NormalityResult(statistic=jb, p_value=p, advisory=p < 0.05)


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    if len(values) != len(weights):
        raise LengthMismatchError(f"lengths differ: {len(values)} vs {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise ZeroWeightSumError("weights sum to zero")
    return sum(v * w for v, w in zip(values, weights)) / total


SATISFACTION_ITEMS = 7
LIKERT_RANGE = (1.0, 5.0)


def satisfaction_score(responses: Sequence[Sequence[float]]) -> float:
    """Mean over items and learners, rescaled from the Likert range to [0, 100]."""
    if not responses:
        raise ValueError("no responses supplied")
    lo, hi = LIKERT_RANGE
    total = 0.0
    count = 0
    for response in responses:
        if len(response) != SATISFACTION_ITEMS:
            raise WrongItemCountError(
                f"expected {SATISFACTION_ITEMS} items, got {len(response)}"
            )
        for item in response:
            if not lo <= item <= hi:
                raise ItemOutOfRangeError(f"item {item!r} outside [{lo}, {hi}]")
            total += item
            count += 1
    return (total / count - lo) / (hi - lo) * 100.0


# --------------------------------------------------------------------------
# Evaluation report


class SatisfactionSummary(NamedTuple):
    per_group: tuple[tuple[str, float], ...]
    treatment: float | None
    control: float | None


class EvaluationReport(NamedTuple):
    """Group-vs-control comparisons plus cohort-level statistics."""

    alpha: float
    groups: tuple[tuple[str, int, float], ...]  # (label, n, mean)
    control: tuple[str, int, float] | None
    group_vs_control: tuple[PairwiseComparison, ...]
    anova: AnovaResult | None
    anova_note: str | None
    posthoc: tuple[PairwiseComparison, ...]
    normality: tuple[tuple[str, NormalityResult | None, str | None], ...]
    treatment_weighted_mean: float
    control_mean: float | None
    satisfaction: SatisfactionSummary | None

    def to_json_dict(self) -> dict:
        def test_dict(result: TestResult) -> dict:
            df = result.df
            return {
                "statistic": result.statistic,
                "df": list(df) if isinstance(df, tuple) else df,
                "p_value": result.p_value,
                "alpha": result.alpha,
                "significant": result.significant,
            }

        payload: dict = {
            "alpha": self.alpha,
            "groups": [
                {"label": label, "n": n, "mean": mean} for label, n, mean in self.groups
            ],
            "control": (
                {"label": self.control[0], "n": self.control[1], "mean": self.control[2]}
                if self.control
                else None
            ),
            "group_vs_control": [
                {
                    "group": comp.pair[0],
                    "verdict": "Positive" if comp.result.significant else "Negative",
                    **test_dict(comp.result),
                }
                for comp in self.group_vs_control
            ],
            "anova": test_dict(self.anova) if self.anova else None,
            "anova_note": self.anova_note,
            "posthoc": [
                {"pair": list(comp.pair), **test_dict(comp.result)}
                for comp in self.posthoc
            ],
            "normality": [
                {
                    "label": label,
                    "jb": result.statistic if result else None,
                    "p_value": result.p_value if result else None,
                    "advisory": result.advisory if result else None,
                    "note": note,
                }
                for label, result, note in self.normality
            ],
            "treatment_weighted_mean": self.treatment_weighted_mean,
            "control_mean": self.control_mean,
        }
        if self.satisfaction is not None:
            payload["satisfaction"] = {
                "per_group": {label: pct for label, pct in self.satisfaction.per_group},
                "treatment": self.satisfaction.treatment,
                "control": self.satisfaction.control,
            }
        return payload

    def to_text(self) -> str:
        lines = ["t-test of customized groups against the control group", ""]
        lines.append(
            f"{'Group':<42}{'Significance':>14}{'t statistic':>14}"
            f"{'Significant difference':>26}"
        )
        for comp in self.group_vs_control:
            verdict = "Positive" if comp.result.significant else "Negative"
            lines.append(
                f"{comp.pair[0] + ' vs ' + comp.pair[1]:<42}"
                f"{comp.result.p_value * 100.0:>13.0f}%"
                f"{comp.result.statistic:>14.2f}"
                f"{verdict:>26}"
            )
        lines.append("")
        if self.anova is not None:
            df1, df2 = self.anova.df  # type: ignore[misc]
            lines.append(
                f"one-way ANOVA: F({df1:.0f}, {df2:.0f}) = {self.anova.statistic:.4f}, "
                f"p = {self.anova.p_value:.4g} "
                f"({'significant' if self.anova.significant else 'not significant'} "
                f"at alpha={self.alpha})"
            )
            for comp in self.posthoc:
                flag = "*" if comp.result.significant else " "
                lines.append(
                    f"  {flag} {comp.pair[0]} vs {comp.pair[1]}: "
                    f"t = {comp.result.statistic:.4f}, p = {comp.result.p_value:.4g} "
                    f"(threshold {comp.result.alpha:.4g})"
                )
        elif self.anova_note:
            lines.append(f"one-way ANOVA skipped: {self.anova_note}")
        lines.append("")
        for label, result, note in self.normality:
            if result is None:
                lines.append(f"normality {label}: skipped ({note})")
            else:
                advisory = (
                    "advisory: prefer a non-parametric comparison"
                    if result.advisory
                    else "no advisory"
                )
                lines.append(
                    f"normality {label}: JB = {result.statistic:.4f}, "
                    f"p = {result.p_value:.4g} ({advisory})"
                )
        lines.append("")
        lines.append(
            f"weighted mean score, customized groups: {self.treatment_weighted_mean:.2f}"
        )
        if self.control_mean is not None:
            lines.append(f"mean score, control group: {self.control_mean:.2f}")
        if self.satisfaction is not None:
            lines.append("")
            for label, pct in self.satisfaction.per_group:
                lines.append(f"satisfaction {label}: {pct:.1f}%")
            if self.satisfaction.treatment is not None:
                lines.append(
                    f"satisfaction, customized groups pooled: "
                    f"{self.satisfaction.treatment:.1f}%"
                )
            if self.satisfaction.control is not None:
                lines.append(f"satisfaction, control group: {self.satisfaction.control:.1f}%")
        return "\n".join(lines) + "\n"


def values_by_label(
    rows: Sequence[tuple[str, str, bool]], values: Mapping[str, object]
) -> dict[str, list]:
    """Each (learner, group id, is control) row's value under its sample's label, in row order.

    A group's label is ``group-<id>``, the control's ``control``. Learners
    without a value are left out.
    """
    by_label: dict[str, list] = {}
    for learner, group_id, is_control in rows:
        if learner in values:
            label = "control" if is_control else f"group-{group_id}"
            by_label.setdefault(label, []).append(values[learner])
    return by_label


def evaluation_samples(
    rows: Sequence[tuple[str, str, bool]], scores: Mapping[str, float]
) -> tuple[list[Sample], Sample | None]:
    """The group samples in order of first row, and the control sample or None.

    Every learner of the rows needs a score.
    """
    for learner, _, _ in rows:
        if learner not in scores:
            raise StatsError(f"no score for learner {learner!r}")
    by_label = values_by_label(rows, scores)
    control = by_label.pop("control", None)
    samples = [Sample(label, tuple(values)) for label, values in by_label.items()]
    return samples, (Sample("control", tuple(control)) if control else None)


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"alpha must lie in (0, 1), got {alpha}")


def build_evaluation_report(
    group_samples: Sequence[Sample],
    control_sample: Sample | None,
    alpha: float = DEFAULT_ALPHA,
    satisfaction_responses: Mapping[str, Sequence[Sequence[float]]] | None = None,
) -> EvaluationReport:
    """Assemble the full evaluation: pairwise group-vs-control Welch t-tests,
    ANOVA with Bonferroni post-hoc over all groups, normality advisories,
    weighted means, and optional satisfaction percentages.

    ``satisfaction_responses`` maps a sample label (or ``control``) to its
    member response vectors. ``alpha`` must lie in (0, 1).
    """
    check_alpha(alpha)
    if not group_samples:
        raise TooFewGroupsError("no treatment groups supplied")

    group_vs_control = []
    if control_sample is not None:
        for group in group_samples:
            group_vs_control.append(
                PairwiseComparison(
                    pair=(group.label, control_sample.label),
                    result=two_sample_t(group, control_sample, variant="welch", alpha=alpha),
                )
            )

    all_samples = list(group_samples) + ([control_sample] if control_sample else [])
    log.info(
        "evaluation: %d samples, group sizes %s, control %s, alpha %s",
        len(all_samples), ",".join(str(g.n) for g in group_samples),
        control_sample.n if control_sample else "none", alpha,
    )
    anova = None
    anova_note = None
    posthoc: tuple[PairwiseComparison, ...] = ()
    if len(all_samples) < 2:
        anova_note = "needs at least 2 groups"
    elif any(s.n < 2 for s in all_samples):
        anova_note = "every group needs n >= 2"
    else:
        try:
            anova = one_way_anova(all_samples, alpha=alpha)
            posthoc = tuple(posthoc_pairwise(all_samples, alpha=alpha))
        except ZeroVarianceError as exc:
            anova_note = str(exc)

    normality = []
    for sample in all_samples:
        if sample.n < 8:
            normality.append((sample.label, None, "n < 8"))
        else:
            try:
                normality.append((sample.label, normality_check(sample), None))
            except ZeroVarianceError:
                normality.append((sample.label, None, "zero variance"))

    treatment_weighted = weighted_mean(
        [g.mean for g in group_samples], [g.n for g in group_samples]
    )

    satisfaction = None
    if satisfaction_responses is not None:
        per_group = []
        pooled: list[Sequence[float]] = []
        for group in group_samples:
            rows = satisfaction_responses.get(group.label, [])
            if rows:
                per_group.append((group.label, satisfaction_score(rows)))
                pooled.extend(rows)
        control_rows = (
            satisfaction_responses.get(control_sample.label, [])
            if control_sample
            else []
        )
        satisfaction = SatisfactionSummary(
            per_group=tuple(per_group),
            treatment=satisfaction_score(pooled) if pooled else None,
            control=satisfaction_score(control_rows) if control_rows else None,
        )

    return EvaluationReport(
        alpha=alpha,
        groups=tuple((g.label, g.n, g.mean) for g in group_samples),
        control=(
            (control_sample.label, control_sample.n, control_sample.mean)
            if control_sample
            else None
        ),
        group_vs_control=tuple(group_vs_control),
        anova=anova,
        anova_note=anova_note,
        posthoc=posthoc,
        normality=tuple(normality),
        treatment_weighted_mean=treatment_weighted,
        control_mean=control_sample.mean if control_sample else None,
        satisfaction=satisfaction,
    )
