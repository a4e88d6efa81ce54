"""The value semantics of the package's records.

Each record keeps its constructor, field equality, the hash of its field
values where every field is hashable, and the `Name(field=value, ...)` repr.
Every record is immutable except `ClampReport`, which the loader fills in.
"""

import re

import pytest

from stylegroup import stats  # `stats.TestResult`: pytest would collect a bare `TestResult`
from stylegroup.classify import ClassificationFailure, PairedRow, ValidationReport
from stylegroup.dsl import Diagnostic, Rule, RuleBase
from stylegroup.fuzzy import CompiledRules, LinguisticVariable, Trapezoid
from stylegroup.grouping import ContentPlan, Group, GroupAssignment, GroupingParams, Learner
from stylegroup.ingest import (
    BehaviorTable,
    ClampReport,
    CoverageReport,
    DimensionCoverage,
    QuestionnaireRecord,
)
from stylegroup.simulate import CohortSpec, ScoreModel
from stylegroup.stats import (
    AnovaResult,
    EvaluationReport,
    NormalityResult,
    PairwiseComparison,
    SatisfactionSummary,
    Sample,
)


def _trap():
    return Trapezoid(0.0, 0.0, 2.0, 5.0)


def _variable(**declaration):
    return LinguisticVariable("effort", (0.0, 10.0), (("low", _trap()),), **declaration)


def _rule(rule_id="r1"):
    return Rule(rule_id, "processing", (("effort", "low"),), ("processing_score", "reactive"))


def _row(questionnaire_score=4.0):
    return PairedRow("L1", "processing", 3.5, questionnaire_score)


def _params(seed=3):
    return GroupingParams(0.2, seed=seed)


def _group(group_id=1):
    return Group(group_id, ("L1", "L2"), (3.5,), ("reactive",))


def _coverage(covered=1):
    return DimensionCoverage("processing", ("effort",), 2, covered, (("L2", ("effort",)),))


def _test(significant=False):
    return stats.TestResult(2.0, 10.0, 0.07, 0.05, significant)


def _report(anova_note="needs at least 2 groups"):
    return EvaluationReport(
        alpha=0.05,
        groups=(("group-1", 2, 1.5),),
        control=None,
        group_vs_control=(),
        anova=None,
        anova_note=anova_note,
        posthoc=(),
        normality=(("group-1", None, "n < 8"),),
        treatment_weighted_mean=1.5,
        control_mean=None,
        satisfaction=None,
    )


TRAP = "Trapezoid(a=0.0, b=0.0, c=2.0, d=5.0)"
VARIABLE = (
    f"LinguisticVariable(name='effort', universe=(0.0, 10.0), terms=(('low', {TRAP}),), "
    "kind='input', dimension=None, aggregation='sum', max_expected=None)"
)
RULE = (
    "Rule(rule_id='r1', dimension='processing', antecedent=(('effort', 'low'),), "
    "consequent=('processing_score', 'reactive'))"
)
ROW = "PairedRow(learner_id='L1', dimension='processing', crisp_score=3.5, questionnaire_score=4.0)"
PARAMS = "GroupingParams(control_fraction=0.2, seed=3, target_k=4, min_size=10)"
GROUP = "Group(group_id=1, members=('L1', 'L2'), centroid=(3.5,), signature_mode=('reactive',))"
COVERAGE = (
    "DimensionCoverage(dimension='processing', required=('effort',), learners=2, covered=1, "
    "flagged=(('L2', ('effort',)),))"
)
TEST = "TestResult(statistic=2.0, df=10.0, p_value=0.07, alpha=0.05, significant=False)"

# (make, a different value, a field, repr, hashable)
RECORDS = [
    (_trap, lambda: Trapezoid(0.0, 1.0, 2.0, 5.0), "a", TRAP, True),
    (_variable, lambda: _variable(kind="output"), "kind", VARIABLE, True),
    (
        lambda: CompiledRules(("r1",), ("effort",), (((0, _trap()),),), (0,), _variable()),
        lambda: CompiledRules(("r2",), ("effort",), (((0, _trap()),),), (0,), _variable()),
        "rule_ids",
        f"CompiledRules(rule_ids=('r1',), inputs=('effort',), clauses=(((0, {TRAP}),),), "
        f"consequents=(0,), variable={VARIABLE})",
        True,
    ),
    (_rule, lambda: _rule("r2"), "rule_id", RULE, True),
    (
        lambda: Diagnostic("warning", "unused-variable", ("r1",), "never read"),
        lambda: Diagnostic("error", "unused-variable", ("r1",), "never read"),
        "severity",
        "Diagnostic(severity='warning', code='unused-variable', rule_ids=('r1',), "
        "message='never read')",
        True,
    ),
    (
        lambda: RuleBase((_variable(),), (_rule(),)),
        lambda: RuleBase((_variable(),), ()),
        "rules",
        f"RuleBase(variables=({VARIABLE},), rules=({RULE},))",
        True,
    ),
    (
        lambda: ClassificationFailure("L1", None, "no value"),
        lambda: ClassificationFailure("L1", "processing", "no value"),
        "dimension",
        "ClassificationFailure(learner_id='L1', dimension=None, reason='no value')",
        True,
    ),
    (_row, lambda: _row(4.5), "questionnaire_score", ROW, True),
    (
        lambda: ValidationReport({"processing": 0.9}, 0.9, 0.9, (_row(),), 0, 1),
        lambda: ValidationReport({"processing": 0.9}, 0.9, 0.9, (), 0, 1),
        "rows",
        f"ValidationReport(per_dimension_r={{'processing': 0.9}}, overall_r=0.9, "
        f"mean_dimension_r=0.9, rows=({ROW},), unmatched_profile_entries=0, "
        f"unmatched_questionnaire_entries=1)",
        False,
    ),
    (_params, lambda: _params(4), "seed", PARAMS, True),
    (
        lambda: Learner("L1", (3.5,), ("reactive",)),
        lambda: Learner("L1", (3.5,), ("reflection",)),
        "signature",
        "Learner(learner_id='L1', scores=(3.5,), signature=('reactive',))",
        True,
    ),
    (_group, lambda: _group(2), "group_id", GROUP, True),
    (
        lambda: GroupAssignment((_group(),), ("L3",), _params()),
        lambda: GroupAssignment((_group(),), ("L4",), _params()),
        "control",
        f"GroupAssignment(groups=({GROUP},), control=('L3',), params={PARAMS})",
        True,
    ),
    (
        lambda: ContentPlan(1, "individual", "examples", "visual", "part-by-part"),
        lambda: ContentPlan(1, "group", "examples", "visual", "part-by-part"),
        "activity",
        "ContentPlan(group_id=1, activity='individual', grounding='examples', media='visual', "
        "structure='part-by-part')",
        True,
    ),
    (
        lambda: BehaviorTable.of([("L1", {"effort": 2.0})]),
        lambda: BehaviorTable.of([("L1", {"effort": 2.5})]),
        "columns",
        "BehaviorTable(ids=['L1'], columns={'effort': [2.0]})",
        False,
    ),
    (
        lambda: QuestionnaireRecord("L1", "processing", 4.0),
        lambda: QuestionnaireRecord("L1", "entrance", 4.0),
        "dimension",
        "QuestionnaireRecord(learner_id='L1', dimension='processing', score=4.0)",
        True,
    ),
    (_coverage, lambda: _coverage(2), "covered", COVERAGE, True),
    (
        lambda: CoverageReport(2, (_coverage(),)),
        lambda: CoverageReport(2, ()),
        "dimensions",
        f"CoverageReport(total_learners=2, dimensions=({COVERAGE},))",
        True,
    ),
    (
        lambda: ScoreModel(17.0, 12.0, 2.5),
        lambda: ScoreModel(17.0, 12.0, 3.0),
        "sigma",
        "ScoreModel(treated_mean=17.0, control_mean=12.0, sigma=2.5, signature_means=())",
        True,
    ),
    (
        lambda: CohortSpec(((("reactive",), 3),), noise_sigma=0.1, seed=2),
        lambda: CohortSpec(((("reactive",), 3),), seed=2),
        "seed",
        "CohortSpec(counts=((('reactive',), 3),), noise_sigma=0.1, seed=2, score_model=None)",
        True,
    ),
    (
        lambda: Sample("group-1", (1.0, 2.0)),
        lambda: Sample("group-1", (1.0, 3.0)),
        "values",
        "Sample(label='group-1', values=(1.0, 2.0))",
        True,
    ),
    (_test, lambda: _test(True), "significant", TEST, True),
    (
        lambda: AnovaResult(3.0, (1.0, 8.0), 0.1, 0.05, False, (("group-1", 1.5),)),
        lambda: AnovaResult(3.0, (1.0, 8.0), 0.1, 0.05, False),
        "group_means",
        "AnovaResult(statistic=3.0, df=(1.0, 8.0), p_value=0.1, alpha=0.05, significant=False, "
        "group_means=(('group-1', 1.5),))",
        True,
    ),
    (
        lambda: PairwiseComparison(("group-1", "control"), _test()),
        lambda: PairwiseComparison(("group-2", "control"), _test()),
        "pair",
        f"PairwiseComparison(pair=('group-1', 'control'), result={TEST})",
        True,
    ),
    (
        lambda: NormalityResult(1.2, 0.55, False),
        lambda: NormalityResult(1.2, 0.55, True),
        "advisory",
        "NormalityResult(statistic=1.2, p_value=0.55, advisory=False)",
        True,
    ),
    (
        lambda: SatisfactionSummary((("group-1", 50.0),), 50.0, None),
        lambda: SatisfactionSummary((), 50.0, None),
        "per_group",
        "SatisfactionSummary(per_group=(('group-1', 50.0),), treatment=50.0, control=None)",
        True,
    ),
    (
        _report,
        lambda: _report(None),
        "anova_note",
        "EvaluationReport(alpha=0.05, groups=(('group-1', 2, 1.5),), control=None, "
        "group_vs_control=(), anova=None, anova_note='needs at least 2 groups', posthoc=(), "
        "normality=(('group-1', None, 'n < 8'),), treatment_weighted_mean=1.5, "
        "control_mean=None, satisfaction=None)",
        True,
    ),
]
IDS = [text.split("(", 1)[0] for _, _, _, text, _ in RECORDS]


@pytest.mark.parametrize("make, other, field, text, hashable", RECORDS, ids=IDS)
def test_records_compare_hash_and_print_by_field(make, other, field, text, hashable):
    value = make()
    assert value == make() and not value != make()
    assert value != other() and not value == other()
    assert repr(value) == text
    if hashable:
        assert hash(value) == hash(make())
        assert len({value, make(), other()}) == 2
    else:  # a dict or list field
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("make, other, field, text, hashable", RECORDS, ids=IDS)
def test_records_refuse_assignment(make, other, field, text, hashable):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other(), field))
    with pytest.raises(AttributeError):
        value.note = "extra"
    assert value == make()


def test_clamp_report_is_mutable_equal_by_value_and_unhashable():
    report = ClampReport()
    assert repr(report) == "ClampReport(clamped=[], skipped_unknown=[])"
    assert ClampReport().clamped is not report.clamped
    report.clamped.append(("L1", "effort", 12.0, 10.0))
    report.skipped_unknown = [("L1", "typing")]
    assert report == ClampReport([("L1", "effort", 12.0, 10.0)], [("L1", "typing")])
    assert report != ClampReport(clamped=[("L1", "effort", 12.0, 10.0)])
    assert repr(report) == (
        "ClampReport(clamped=[('L1', 'effort', 12.0, 10.0)], skipped_unknown=[('L1', 'typing')])"
    )
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Trapezoid(3, 2, 1, 0),
         "trapezoid corners must satisfy a <= b <= c <= d, got (3, 2, 1, 0)"),
        (lambda: LinguisticVariable("v", (1.0, 1.0), (("low", _trap()),)),
         "variable 'v': universe bounds must satisfy lo < hi"),
        (lambda: LinguisticVariable("v", (0.0, 10.0), ()), "variable 'v' declares no terms"),
        (lambda: LinguisticVariable("v", (0.0, 10.0), (("low", _trap()), ("low", _trap()))),
         "variable 'v': duplicate term 'low'"),
        (lambda: LinguisticVariable("v", (0.0, 4.0), (("low", _trap()),)),
         "variable 'v': term 'low' extends outside the universe [0.0, 4.0]"),
        (lambda: CohortSpec(((("reactive",), 3),), noise_sigma=-0.1), "noise_sigma must be >= 0"),
        (lambda: CohortSpec(((("reactive",), 0),)),
         "count for signature ('reactive',) must be positive"),
        (lambda: Sample("g", ()), "sample 'g' is empty"),
        (lambda: Sample("g", (1.0, float("nan"))), "sample 'g' contains non-finite values"),
    ],
)
def test_validating_constructors_refuse_with_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_constructors_normalise_their_fields():
    sample = Sample("g", [1, 2])
    assert sample.values == (1.0, 2.0) and {type(v) for v in sample.values} == {float}
    variable = LinguisticVariable("effort", [0.0, 10.0], [["low", _trap()]])
    assert variable == _variable()
    assert type(variable.universe) is tuple and type(variable.terms[0]) is tuple


def test_replace_checks_and_normalises_as_the_constructor_does():
    with pytest.raises(ValueError, match="got \\(3.0, 0.0, 2.0, 5.0\\)"):
        _trap()._replace(a=3.0)
    with pytest.raises(ValueError, match="declares no terms"):
        _variable()._replace(terms=[])
    assert _variable(kind="output")._replace(terms=[["low", _trap()]], kind="input") == _variable()
    with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
        CohortSpec(((("reactive",), 3),))._replace(noise_sigma=-1.0)
    assert Sample("g", (1.0,))._replace(values=[2]).values == (2.0,)
