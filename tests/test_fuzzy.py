import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stylegroup.fuzzy import (
    EmptyAntecedentError,
    FuzzyOutput,
    InferenceRule,
    LinguisticVariable,
    MissingInputError,
    NoRuleFiredError,
    OutOfUniverseError,
    Trapezoid,
    defuzzify_centroid,
    infer,
    rule_strength,
)
from stylegroup.kernel import membership_grid

from conftest import riemann_centroid, scaled_trap_envelope


def trapezoid_corners(lo=-50.0, hi=50.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False), min_size=4, max_size=4
    ).map(sorted)


# -- membership --------------------------------------------------------------


def test_membership_plateau_interior():
    assert Trapezoid(3, 5, 8, 10).membership(6) == 1.0


def test_membership_ramp_midpoint():
    assert Trapezoid(0, 0, 3, 5).membership(4) == 0.5


def test_membership_outside_support():
    assert Trapezoid(8, 10, 15, 15).membership(7) == 0.0


def test_membership_exact_at_breakpoints():
    t = Trapezoid(1, 3, 5, 9)
    assert t.membership(1) == 0.0
    assert t.membership(3) == 1.0
    assert t.membership(5) == 1.0
    assert t.membership(9) == 0.0


def test_membership_degenerate_ramps_are_steps():
    left_step = Trapezoid(2, 2, 5, 6)
    assert left_step.membership(2) == 1.0
    assert left_step.membership(1.999) == 0.0
    right_step = Trapezoid(0, 1, 4, 4)
    assert right_step.membership(4) == 1.0
    assert right_step.membership(4.001) == 0.0


def test_invalid_corner_order_rejected():
    with pytest.raises(ValueError):
        Trapezoid(5, 3, 8, 10)


@given(trapezoid_corners(), st.floats(min_value=-60, max_value=60, allow_nan=False))
def test_membership_invariants(corners, x):
    t = Trapezoid(*corners)
    degree = t.membership(x)
    assert 0.0 <= degree <= 1.0
    assert t.membership(t.b) == 1.0
    assert t.membership(t.c) == 1.0
    if t.a != t.b:
        assert t.membership(t.a) == 0.0


@given(
    trapezoid_corners(),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_membership_monotone_on_ramps(corners, u, v):
    t = Trapezoid(*corners)
    u, v = min(u, v), max(u, v)
    # a + 1.0 * (b - a) can round past b; keep the points on the ramps
    x1 = min(t.a + u * (t.b - t.a), t.b)
    x2 = min(t.a + v * (t.b - t.a), t.b)
    assert t.membership(x1) <= t.membership(x2)
    y1 = min(t.c + u * (t.d - t.c), t.d)
    y2 = min(t.c + v * (t.d - t.c), t.d)
    assert t.membership(y1) >= t.membership(y2)


@given(trapezoid_corners(), st.lists(st.floats(-60, 60), min_size=1, max_size=20))
def test_membership_grid_matches_scalar(corners, xs):
    t = Trapezoid(*corners)
    grid = membership_grid(t, np.array(xs))
    for x, g in zip(xs, grid):
        assert g == t.membership(x)


# -- linguistic variables ----------------------------------------------------

DISCUSSION = LinguisticVariable(
    "discussion_participation",
    (0, 15),
    (
        ("low", Trapezoid(0, 0, 3, 5)),
        ("medium", Trapezoid(3, 5, 8, 10)),
        ("much", Trapezoid(8, 10, 15, 15)),
    ),
)

PERCEPTION = LinguisticVariable(
    "perception_score",
    (0, 12),
    (
        ("sensory", Trapezoid(0, 0, 6, 8)),
        ("sensory_intuitive", Trapezoid(6, 7, 8, 8)),
        ("intuitive", Trapezoid(6, 8, 12, 12)),
    ),
)


def test_fuzzify_between_terms():
    assert DISCUSSION.fuzzify(4) == {"low": 0.5, "medium": 0.5, "much": 0.0}


def test_fuzzify_left_shoulder():
    assert DISCUSSION.fuzzify(0) == {"low": 1.0, "medium": 0.0, "much": 0.0}


def test_fuzzify_right_plateau():
    assert DISCUSSION.fuzzify(12) == {"low": 0.0, "medium": 0.0, "much": 1.0}


def test_fuzzify_strict_about_universe():
    with pytest.raises(OutOfUniverseError):
        DISCUSSION.fuzzify(15.5)


def test_variable_invariants_enforced():
    with pytest.raises(ValueError):
        LinguisticVariable("v", (0, 10), ())
    with pytest.raises(ValueError):
        LinguisticVariable(
            "v", (0, 10), (("a", Trapezoid(0, 1, 2, 3)), ("a", Trapezoid(1, 2, 3, 4)))
        )
    with pytest.raises(ValueError):
        LinguisticVariable("v", (0, 10), (("a", Trapezoid(0, 1, 2, 11)),))


# -- rule strength -----------------------------------------------------------


def test_rule_strength_identity():
    assert rule_strength([1.0, 1.0, 1.0]) == 1.0


def test_rule_strength_product():
    assert rule_strength([0.5, 0.5]) == 0.25


def test_rule_strength_annihilator():
    assert rule_strength([0.9, 0.0, 0.7]) == 0.0


def test_rule_strength_empty_rejected():
    with pytest.raises(EmptyAntecedentError):
        rule_strength([])


@given(st.lists(st.floats(0, 1), min_size=1, max_size=6), st.randoms())
def test_rule_strength_commutative_and_bounded(degrees, rnd):
    shuffled = degrees[:]
    rnd.shuffle(shuffled)
    assert rule_strength(degrees) == pytest.approx(rule_strength(shuffled), abs=1e-12)
    assert rule_strength(degrees) <= min(degrees)
    assert rule_strength([degrees[0]]) == degrees[0]


# -- inference ---------------------------------------------------------------


def _single_input_rules():
    consequents = PERCEPTION
    return [
        InferenceRule("r1", ((DISCUSSION, "low"),), consequents, "sensory"),
        InferenceRule("r2", ((DISCUSSION, "much"),), consequents, "intuitive"),
    ]


def test_infer_identity_implication():
    rules = [_single_input_rules()[0]]
    out = infer(rules, {"discussion_participation": 1.0})  # low plateau: strength 1
    trap = PERCEPTION.term("sensory")
    for x in (0.0, 3.0, 6.5, 7.9, 10.0):
        assert out.envelope(x) == trap.membership(x)


def test_infer_zero_strength_everywhere():
    rules = [_single_input_rules()[1]]
    out = infer(rules, {"discussion_participation": 1.0})  # outside "much" support
    assert out.is_empty
    assert out.envelope(6.0) == 0.0
    with pytest.raises(NoRuleFiredError):
        defuzzify_centroid(out)


def test_infer_envelope_is_max_of_scaled_terms():
    # two independent single-clause rules driven to strengths 0.5 and 0.25
    other = LinguisticVariable(
        "chat_participation", DISCUSSION.universe, DISCUSSION.terms
    )
    rules = [
        InferenceRule("a", ((DISCUSSION, "low"),), PERCEPTION, "sensory"),
        InferenceRule("b", ((other, "low"),), PERCEPTION, "intuitive"),
    ]
    out = infer(rules, {"discussion_participation": 4.0, "chat_participation": 4.5})
    assert dict((r, s) for r, s, _ in out.fired) == {"a": 0.5, "b": 0.25}
    sensory = PERCEPTION.term("sensory")
    intuitive = PERCEPTION.term("intuitive")
    for x in (0.0, 5.0, 6.9, 8.0, 11.0):
        expected = max(0.5 * sensory.membership(x), 0.25 * intuitive.membership(x))
        assert out.envelope(x) == expected


def test_infer_missing_input():
    with pytest.raises(MissingInputError):
        infer(_single_input_rules(), {"something_else": 1.0})


def test_infer_requires_shared_output_variable():
    other = LinguisticVariable("other", (0, 1), (("x", Trapezoid(0, 0, 1, 1)),))
    rules = [
        _single_input_rules()[0],
        InferenceRule("bad", ((DISCUSSION, "low"),), other, "x"),
    ]
    with pytest.raises(ValueError):
        infer(rules, {"discussion_participation": 1.0})


@given(st.floats(min_value=0, max_value=15, allow_nan=False))
def test_infer_adding_a_rule_never_decreases_envelope(x_input):
    rules = _single_input_rules()
    base = infer(rules[:1], {"discussion_participation": x_input})
    more = infer(rules, {"discussion_participation": x_input})
    for x in np.linspace(0, 12, 25):
        assert more.envelope(x) >= base.envelope(x)
        assert more.envelope(x) <= 1.0


# -- defuzzification ---------------------------------------------------------


def _output(contributions):
    return FuzzyOutput(PERCEPTION, tuple(contributions))


def test_centroid_symmetric_trapezoid():
    out = _output([("r", 1.0, Trapezoid(3, 5, 8, 10))])
    assert defuzzify_centroid(out) == pytest.approx(6.5, abs=1e-9)


def test_centroid_invariant_to_uniform_scaling():
    full = _output([("r", 1.0, Trapezoid(3, 5, 8, 10))])
    half = _output([("r", 0.5, Trapezoid(3, 5, 8, 10))])
    assert defuzzify_centroid(half) == pytest.approx(defuzzify_centroid(full), abs=1e-12)


def test_centroid_against_riemann_oracle():
    # max(1.0*trap(0,0,6,8), 0.5*trap(6,8,12,12)); the crossing sits at 22/3
    # and the exact centroid works out to 2482/495.
    out = _output([("a", 1.0, Trapezoid(0, 0, 6, 8)), ("b", 0.5, Trapezoid(6, 8, 12, 12))])
    value = defuzzify_centroid(out)
    oracle = riemann_centroid(
        scaled_trap_envelope([(1.0, (0, 0, 6, 8)), (0.5, (6, 8, 12, 12))]), 0.0, 12.0
    )
    assert value == pytest.approx(oracle, abs=1e-4)
    assert value == pytest.approx(2482 / 495, abs=1e-9)


def test_centroid_zero_envelope_tolerance():
    out = _output([("r", 1e-16, Trapezoid(0, 0, 6, 8))])
    with pytest.raises(NoRuleFiredError):
        defuzzify_centroid(out)


# Corners on half units of [0, 12]: ties draw step edges (a == b, c == d)
# and shared corners, and overlapping terms at different strengths cross.
_HALF_UNITS = st.integers(0, 24).map(lambda k: k / 2.0)
_SCALED_TRAPEZOIDS = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=1.0),
        st.lists(_HALF_UNITS, min_size=4, max_size=4).map(sorted).filter(lambda c: c[3] > c[0]),
    ),
    min_size=1,
    max_size=5,
)


@settings(deadline=None)
@given(_SCALED_TRAPEZOIDS)
@example([(1.0, [0.0, 0.0, 6.0, 8.0]), (0.5, [6.0, 8.0, 12.0, 12.0])])
@example([(0.7, [2.0, 2.0, 5.0, 5.0]), (0.4, [4.0, 4.5, 9.0, 9.0]), (0.9, [8.5, 10, 12, 12])])
def test_centroid_is_exact_without_a_grid(contributions):
    # The oracle's 240k cells have edges on every half unit, so corners and
    # steps fall on cell edges; its only error is O(h^2) at crossings, below
    # 1e-7. A missed breakpoint costs orders of magnitude more than 1e-6.
    out = _output([(f"r{i}", s, Trapezoid(*c)) for i, (s, c) in enumerate(contributions)])
    oracle = riemann_centroid(scaled_trap_envelope(contributions), 0.0, 12.0, points=240_000)
    assert defuzzify_centroid(out) == pytest.approx(oracle, abs=1e-6)


def test_centroid_within_fired_support():
    rng = np.random.default_rng(7)
    terms = [PERCEPTION.term(label) for label in PERCEPTION.labels()]
    for _ in range(50):
        k = int(rng.integers(1, len(terms) + 1))
        picked = rng.choice(len(terms), size=k, replace=False)
        fired = [(f"r{i}", float(rng.uniform(0.05, 1.0)), terms[int(i)]) for i in picked]
        out = _output(fired)
        value = defuzzify_centroid(out)
        lo = min(t.a for _, _, t in fired)
        hi = max(t.d for _, _, t in fired)
        assert lo <= value <= hi
        scaled = _output([(r, 0.37 * s, t) for r, s, t in fired])
        assert defuzzify_centroid(scaled) == pytest.approx(value, abs=1e-9)


# -- classification ----------------------------------------------------------


def test_classify_left_pole():
    assert PERCEPTION.classify(3.0) == "sensory"
    assert PERCEPTION.fuzzify(3.0) == {
        "sensory": 1.0,
        "sensory_intuitive": 0.0,
        "intuitive": 0.0,
    }


def test_classify_hybrid_band():
    assert PERCEPTION.classify(7.5) == "sensory_intuitive"
    assert PERCEPTION.fuzzify(7.5) == {
        "sensory": 0.25,
        "sensory_intuitive": 1.0,
        "intuitive": 0.75,
    }


def test_classify_right_shoulder():
    assert PERCEPTION.classify(12.0) == "intuitive"


def test_classify_tie_breaks_to_first_declared():
    var = LinguisticVariable(
        "v",
        (0, 10),
        (("first", Trapezoid(0, 2, 4, 6)), ("second", Trapezoid(0, 2, 4, 6))),
    )
    assert var.classify(3.0) == "first"


def test_classify_strict_about_universe():
    with pytest.raises(OutOfUniverseError):
        PERCEPTION.classify(12.5)


@given(st.floats(min_value=0, max_value=12, allow_nan=False))
def test_classify_is_argmax_of_fuzzify(score):
    memberships = PERCEPTION.fuzzify(score)
    best = max(memberships.values())
    first_max = next(
        label for label in PERCEPTION.labels() if memberships[label] == best
    )
    assert PERCEPTION.classify(score) == first_max
    # argmax is invariant under a strictly increasing transform
    transformed = {label: math.sqrt(m) for label, m in memberships.items()}
    assert (
        max(transformed, key=lambda lb: (transformed[lb], -PERCEPTION.labels().index(lb)))
        == first_max
    )
