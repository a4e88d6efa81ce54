"""Learning-style identification, homogeneous grouping, and evaluation toolkit.

Pipeline: behaviour logs -> fuzzy style profiles -> control split and
homogeneous groups -> per-group content plans -> statistical evaluation.

Importing the package executes none of its modules. Each module but `cli`
and `kernel` is registered in `sys.modules` lazily (`importlib.util.LazyLoader`)
and executes when one of its attributes is first read, and each public name
resolves through `__getattr__` on first use. So a command executes only the
modules it calls.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "classify": "CohortTable classify_cohort validate_against_questionnaire",
    "dsl": "DIMENSIONS RuleBase default_rulebase load_rulebase parse_rulebase parse_rules "
           "parse_variables pretty_print validate",
    "fuzzy": "LinguisticVariable Trapezoid",
    "grouping": "GroupAssignment GroupingParams Learner assign_groups content_plan "
                "homogeneous_partition split_control",
    "ingest": "BehaviorTable QuestionnaireRecord feature_coverage load_behaviors load_questionnaire",
    "simulate": "CohortSpec ScoreModel generate generate_scores",
    "stats": "Sample build_evaluation_report evaluation_samples normality_check one_way_anova "
             "pearson_r posthoc_pairwise reg_inc_beta satisfaction_score two_sample_t weighted_mean",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_ORIGIN)


def _register_lazily(name: str):
    """Put the submodule `name` into `sys.modules` unexecuted: its first attribute read executes it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _name in (*_EXPORTS, "rng"):
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
