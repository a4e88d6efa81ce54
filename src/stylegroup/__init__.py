"""Learning-style identification, homogeneous grouping, and evaluation toolkit.

Pipeline: behaviour logs -> fuzzy style profiles -> control split and
homogeneous groups -> per-group content plans -> statistical evaluation.
"""

from .classify import (
    StyleProfile,
    classify_cohort,
    validate_against_questionnaire,
)
from .dsl import (
    DIMENSIONS,
    RuleBase,
    default_rulebase,
    load_rulebase,
    parse_rulebase,
    parse_rules,
    parse_variables,
    pretty_print,
    validate,
)
from .fuzzy import (
    FuzzyOutput,
    LinguisticVariable,
    Trapezoid,
    defuzzify_centroid,
    infer,
)
from .grouping import (
    GroupAssignment,
    GroupingParams,
    assign_groups,
    content_plan,
    homogeneous_partition,
    split_control,
)
from .ingest import (
    BehaviorRecord,
    QuestionnaireRecord,
    feature_coverage,
    load_behaviors,
    load_questionnaire,
)
from .simulate import CohortSpec, ScoreModel, generate, generate_scores
from .stats import (
    Sample,
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

__version__ = "0.1.0"
