import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stylegroup import kernel
from stylegroup.dsl import Rule, RuleBase
from stylegroup.fuzzy import (
    EmptyAntecedentError,
    LinguisticVariable,
    OutOfUniverseError,
    Trapezoid,
    strongest_term,
)
from stylegroup.kernel import membership_grid

from conftest import riemann_centroid, rule_strength, scaled_trap_envelope


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


@pytest.mark.parametrize(
    "declaration, message",
    [
        ({"kind": "hidden"}, "kind must be 'input' or 'output', got 'hidden'"),
        ({"aggregation": "median"}, "aggregation must be one of sum, mean, max, got 'median'"),
        ({"max_expected": math.nan}, "max_expected must be a finite positive number, got nan"),
        ({"max_expected": math.inf}, "max_expected must be a finite positive number, got inf"),
        ({"max_expected": 0}, "max_expected must be a finite positive number, got 0"),
        ({"max_expected": -5.0}, "max_expected must be a finite positive number, got -5.0"),
    ],
)
def test_variable_refuses_a_declaration_the_fvars_parser_refuses(declaration, message):
    """A bad aggregation would read as max, and a bad ceiling as NaN, a 0 division or a clamp."""
    with pytest.raises(ValueError, match=f"^variable 'v': {re.escape(message)}$"):
        LinguisticVariable("v", (0, 10), (("a", Trapezoid(0, 1, 2, 3)),), **declaration)
    with pytest.raises(ValueError, match="^variable 'v': "):
        LinguisticVariable("v", (0, 10), (("a", Trapezoid(0, 1, 2, 3)),))._replace(**declaration)


# -- firing strengths ----------------------------------------------------------
# Hand-built perception rules compiled by `RuleBase.compile_dimension`; the
# kernel's strengths are held to the scalar Mamdani product in conftest.

CHAT = LinguisticVariable("chat_participation", DISCUSSION.universe, DISCUSSION.terms)
# membership(x) == x on [0, 1], so an input's value is its clause's degree
RAMPS = tuple(
    LinguisticVariable(f"u{i}", (0, 1), (("ramp", Trapezoid(0, 1, 1, 1)),)) for i in range(6)
)
SINGLE_INPUT_RULES = (
    ("r1", (("discussion_participation", "low"),), "sensory"),
    ("r2", (("discussion_participation", "much"),), "intuitive"),
)


def _compile(*rules, variables=(DISCUSSION, CHAT), output=PERCEPTION):
    """Compile (rule id, ((input, term), ...), output term) rules of the perception dimension."""
    output = output._replace(kind="output", dimension="perception")
    rb = RuleBase(
        variables=(*variables, output),
        rules=tuple(
            Rule(rule_id, "perception", clauses, (output.name, term))
            for rule_id, clauses, term in rules
        ),
    )
    return rb.compile_dimension("perception")


def _strength(degrees):
    """Kernel firing strength of one rule whose i-th clause has membership degrees[i]."""
    clauses = tuple((RAMPS[i].name, "ramp") for i in range(len(degrees)))
    compiled = _compile(("r", clauses, "sensory"), variables=RAMPS)
    return float(kernel.firing_strengths(compiled, [degrees])[0, 0])


def test_rule_strength_identity():
    assert _strength([1.0, 1.0, 1.0]) == rule_strength([1.0, 1.0, 1.0]) == 1.0


def test_rule_strength_product():
    assert _strength([0.5, 0.5]) == rule_strength([0.5, 0.5]) == 0.25


def test_rule_strength_annihilator():
    assert _strength([0.9, 0.0, 0.7]) == rule_strength([0.9, 0.0, 0.7]) == 0.0


def test_rule_strength_empty_rejected():
    # The kernel starts every strength at 1, so a rule without clauses would
    # fire at full strength for every input; compiling rejects it.
    with pytest.raises(EmptyAntecedentError):
        _compile(SINGLE_INPUT_RULES[0], ("empty", (), "sensory"))


@given(st.lists(st.floats(0, 1), min_size=1, max_size=6), st.randoms())
def test_rule_strength_commutative_and_bounded(degrees, rnd):
    shuffled = degrees[:]
    rnd.shuffle(shuffled)
    strength = _strength(degrees)
    assert strength == rule_strength(degrees)  # bit for bit
    assert strength == pytest.approx(_strength(shuffled), abs=1e-12)
    assert strength <= min(degrees)
    assert _strength(degrees[:1]) == degrees[0]


# -- inference: term scales, and one score_block row against the oracles -------


def _score_block(compiled, rows):
    """`kernel.score_block` over input dicts, NaN where a row lacks an input."""
    values = [[row.get(name, math.nan) for name in compiled.inputs] for row in rows]
    return kernel.score_block(compiled, np.array(values, dtype=float))


def _scales(compiled, inputs):
    """Kernel scale of each output term (max strength of its rules) for one input."""
    strengths = kernel.firing_strengths(compiled, [[inputs[name] for name in compiled.inputs]])
    return dict(zip(PERCEPTION.labels(), kernel.term_strengths(compiled, strengths)[0].tolist()))


def test_infer_identity_implication():
    # low plateau: strength 1 leaves the consequent term unscaled
    compiled = _compile(SINGLE_INPUT_RULES[0])
    assert _scales(compiled, {"discussion_participation": 1.0}) == {
        "sensory": 1.0,
        "sensory_intuitive": 0.0,
        "intuitive": 0.0,
    }


def test_infer_envelope_is_max_of_scaled_terms():
    # single-clause rules at strengths 0.5, 0.25 and 0.75; two conclude "sensory"
    compiled = _compile(
        ("a", (("discussion_participation", "low"),), "sensory"),
        ("b", (("chat_participation", "low"),), "sensory"),
        ("c", (("chat_participation", "medium"),), "intuitive"),
    )
    strengths = kernel.firing_strengths(compiled, [[4.0, 4.5]])
    assert strengths.tolist() == [[0.5, 0.25, 0.75]]
    scales = kernel.term_strengths(compiled, strengths)[0].tolist()
    assert scales == [0.5, 0.0, 0.75]
    # max over rules of s * term equals max over terms of (max s) * term
    terms = [trap.corners() for _, trap in PERCEPTION.terms]
    per_rule = scaled_trap_envelope(
        [(s, terms[t]) for s, t in zip(strengths[0].tolist(), compiled.consequents)]
    )
    per_term = scaled_trap_envelope(list(zip(scales, terms)))
    xs = np.linspace(0.0, 12.0, 97)
    assert np.array_equal(per_rule(xs), per_term(xs))


@given(st.floats(min_value=0, max_value=15, allow_nan=False))
def test_infer_adding_a_rule_never_decreases_envelope(x_input):
    inputs = {"discussion_participation": x_input}
    base = _scales(_compile(SINGLE_INPUT_RULES[0]), inputs)
    more = _scales(_compile(*SINGLE_INPUT_RULES), inputs)
    for label in PERCEPTION.labels():
        assert base[label] <= more[label] <= 1.0


@settings(deadline=None)
@given(st.floats(0, 15), st.floats(0, 15))
@example(4.0, 4.5)
@example(6.5, 12.0)  # no rule fires
@example(5.0 - 2e-13, 12.0)  # one rule fires, its area (7e-13) below the tolerance
def test_infer_and_defuzzify_match_score_block_row(discussion, chat):
    """One `score_block` row against the scalar Mamdani product and the Riemann centroid."""
    rules = (
        ("a", (("discussion_participation", "low"),), "sensory"),
        ("b", (("chat_participation", "medium"),), "sensory_intuitive"),
        ("c", (("discussion_participation", "much"), ("chat_participation", "much")), "intuitive"),
        ("d", (("chat_participation", "low"),), "sensory"),
    )
    compiled = _compile(*rules)
    inputs = {"discussion_participation": discussion, "chat_participation": chat}
    (first_missing,), (crisp,), (strengths,) = _score_block(compiled, [inputs])
    assert first_missing == -1
    variables = {v.name: v for v in (DISCUSSION, CHAT)}
    degrees = [
        [variables[name].term(term).membership(inputs[name]) for name, term in clauses]
        for _, clauses, _ in rules
    ]
    assert strengths.tolist() == [rule_strength(row) for row in degrees]  # bit for bit
    envelope = scaled_trap_envelope(
        [(s, PERCEPTION.term(term).corners()) for s, (_, _, term) in zip(strengths, rules) if s > 0]
    )
    points = 240_000  # cell edges on every half unit, as in the centroid tests below
    area = float(envelope((np.arange(points) + 0.5) * (12.0 / points)).sum()) * (12.0 / points)
    if math.isclose(area, kernel.ZERO_AREA_TOL, rel_tol=1e-6):
        return  # either side of the tolerance is right at the boundary
    assert math.isnan(crisp) == (area < kernel.ZERO_AREA_TOL)
    if not math.isnan(crisp):
        oracle = riemann_centroid(envelope, 0.0, 12.0, points=points)
        assert crisp == pytest.approx(oracle, abs=1e-6)


# -- exact centroids -------------------------------------------------------------


def _centroid(contributions):
    """`kernel.centroids` of max_k s_k * trap_k on [0, 12], for (s, trap) pairs."""
    traps = [trap for _, trap in contributions]
    return float(kernel.centroids((0.0, 12.0), traps, [[s for s, _ in contributions]])[0])


def test_centroid_symmetric_trapezoid():
    assert _centroid([(1.0, Trapezoid(3, 5, 8, 10))]) == pytest.approx(6.5, abs=1e-9)


def test_centroid_invariant_to_uniform_scaling():
    full = _centroid([(1.0, Trapezoid(3, 5, 8, 10))])
    half = _centroid([(0.5, Trapezoid(3, 5, 8, 10))])
    assert half == pytest.approx(full, abs=1e-12)


def test_centroid_against_riemann_oracle():
    # max(1.0*trap(0,0,6,8), 0.5*trap(6,8,12,12)); the crossing sits at 22/3
    # and the exact centroid works out to 2482/495.
    value = _centroid([(1.0, Trapezoid(0, 0, 6, 8)), (0.5, Trapezoid(6, 8, 12, 12))])
    oracle = riemann_centroid(
        scaled_trap_envelope([(1.0, (0, 0, 6, 8)), (0.5, (6, 8, 12, 12))]), 0.0, 12.0
    )
    assert value == pytest.approx(oracle, abs=1e-4)
    assert value == pytest.approx(2482 / 495, abs=1e-9)


def test_centroid_zero_envelope_tolerance():
    # an area below kernel.ZERO_AREA_TOL reads as "no rule fired"
    assert math.isnan(_centroid([(1e-16, Trapezoid(0, 0, 6, 8))]))


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
    value = _centroid([(s, Trapezoid(*c)) for s, c in contributions])
    oracle = riemann_centroid(scaled_trap_envelope(contributions), 0.0, 12.0, points=240_000)
    assert value == pytest.approx(oracle, abs=1e-6)


def _trapezoid_area(trap):
    return ((trap.d - trap.a) + (trap.c - trap.b)) / 2.0


@settings(deadline=None)
@given(
    st.lists(st.lists(_HALF_UNITS, min_size=4, max_size=4).map(sorted), min_size=1, max_size=5),
    st.data(),
)
@example([[0.0, 0.0, 6.0, 8.0], [6.0, 7.0, 8.0, 8.0], [6.0, 8.0, 12.0, 12.0]], None)
def test_single_term_rows_take_the_term_centroid(corners, data):
    # One rule per output term, each on its own ramp input, so a feature
    # row is the term-scale row: exactly one active term, s in [1e-13, 1].
    output = LinguisticVariable(
        "score", (0, 12), tuple((f"t{i}", Trapezoid(*c)) for i, c in enumerate(corners))
    )
    compiled = _compile(
        *((f"r{i}", ((RAMPS[i].name, "ramp"),), f"t{i}") for i in range(len(corners))),
        variables=RAMPS,
        output=output,
    )
    if data is None:  # the bundled shapes at full strength and far from it
        rows = [(t, s) for t in range(len(corners)) for s in (1.0, 0.3)]
    else:
        rows = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(corners) - 1), st.floats(1e-13, 1.0)),
                min_size=1,
                max_size=8,
            )
        )
    scales = [[s if i == t else 0.0 for i in range(len(corners))] for t, s in rows]
    features = [{RAMPS[i].name: row[i] for i in range(len(corners))} for row in scales]
    _, crisp, _ = _score_block(compiled, features)
    integrated = kernel.centroids((0, 12), [trap for _, trap in output.terms], scales)
    for (t, s), score, reference in zip(rows, crisp, integrated.tolist()):
        area = s * _trapezoid_area(output.terms[t][1])
        if math.isclose(area, kernel.ZERO_AREA_TOL, rel_tol=1e-6):
            continue  # either side of the tolerance is right at the boundary
        assert math.isnan(score) == math.isnan(reference)
        if not math.isnan(score):
            assert abs(score - reference) <= 1e-12 * 12
        if s == 1.0:
            assert score == reference or math.isnan(score)  # the same integration, bit for bit


@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 12.0]) | st.floats(-20, 20),
        min_size=1,
        max_size=40,
    )
)
def test_unique_sorted_is_np_unique(values):
    # Repeated corners, and 0.0 and -0.0 in either order: the same values and zero.
    values = np.array(values)
    found, expected = kernel.unique_sorted(values), np.unique(values)
    assert found.tolist() == expected.tolist()
    assert np.signbit(found).tolist() == np.signbit(expected).tolist()


def test_centroid_within_fired_support():
    rng = np.random.default_rng(7)
    terms = [PERCEPTION.term(label) for label in PERCEPTION.labels()]
    for _ in range(50):
        k = int(rng.integers(1, len(terms) + 1))
        picked = rng.choice(len(terms), size=k, replace=False)
        fired = [(float(rng.uniform(0.05, 1.0)), terms[int(i)]) for i in picked]
        value = _centroid(fired)
        lo = min(t.a for _, t in fired)
        hi = max(t.d for _, t in fired)
        assert lo <= value <= hi
        assert _centroid([(0.37 * s, t) for s, t in fired]) == pytest.approx(value, abs=1e-9)


# -- classification ----------------------------------------------------------


def test_classify_left_pole():
    assert strongest_term(PERCEPTION.fuzzify(3.0)) == "sensory"
    assert PERCEPTION.fuzzify(3.0) == {
        "sensory": 1.0,
        "sensory_intuitive": 0.0,
        "intuitive": 0.0,
    }


def test_classify_hybrid_band():
    assert strongest_term(PERCEPTION.fuzzify(7.5)) == "sensory_intuitive"
    assert PERCEPTION.fuzzify(7.5) == {
        "sensory": 0.25,
        "sensory_intuitive": 1.0,
        "intuitive": 0.75,
    }


def test_classify_right_shoulder():
    assert strongest_term(PERCEPTION.fuzzify(12.0)) == "intuitive"


def test_classify_tie_breaks_to_first_declared():
    var = LinguisticVariable(
        "v",
        (0, 10),
        (("first", Trapezoid(0, 2, 4, 6)), ("second", Trapezoid(0, 2, 4, 6))),
    )
    assert strongest_term(var.fuzzify(3.0)) == "first"


def test_classify_strict_about_universe():
    with pytest.raises(OutOfUniverseError):
        strongest_term(PERCEPTION.fuzzify(12.5))


@given(st.floats(min_value=0, max_value=12, allow_nan=False))
def test_classify_is_argmax_of_fuzzify(score):
    memberships = PERCEPTION.fuzzify(score)
    best = max(memberships.values())
    first_max = next(
        label for label in PERCEPTION.labels() if memberships[label] == best
    )
    assert strongest_term(PERCEPTION.fuzzify(score)) == first_max
    # argmax is invariant under a strictly increasing transform
    transformed = {label: math.sqrt(m) for label, m in memberships.items()}
    assert (
        max(transformed, key=lambda lb: (transformed[lb], -PERCEPTION.labels().index(lb)))
        == first_max
    )
