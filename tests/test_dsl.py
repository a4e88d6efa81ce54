from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stylegroup.dsl import (
    DIMENSIONS,
    Diagnostic,
    DslError,
    DuplicateClauseVariableError,
    ParseError,
    RangeError,
    Rule,
    RuleBase,
    UnknownTermError,
    UnknownVariableError,
    error_count,
    load_rulebase,
    parse_rulebase,
    parse_rules,
    parse_variables,
    pretty_print,
    validate,
)
from stylegroup.fuzzy import Trapezoid

GOLDEN = Path(__file__).parent / "data" / "default_rulebase_pretty.txt"


# -- variables parser --------------------------------------------------------


def test_parse_input_variable():
    specs = parse_variables(
        "input discussion_participation dim=processing universe=[0,15]"
        " { low=(0,0,3,5) medium=(3,5,8,10) much=(8,10,15,15) }"
    )
    assert len(specs) == 1
    spec = specs[0]
    assert spec.kind == "input"
    assert spec.dimension == "processing"
    assert spec.universe == (0.0, 15.0)
    assert spec.terms == (
        ("low", Trapezoid(0.0, 0.0, 3.0, 5.0)),
        ("medium", Trapezoid(3.0, 5.0, 8.0, 10.0)),
        ("much", Trapezoid(8.0, 10.0, 15.0, 15.0)),
    )


def test_parse_output_variable():
    specs = parse_variables(
        "output perception_score dim=perception universe=[0,12]"
        " { sensory=(0,0,6,8) sensory_intuitive=(6,7,8,8) intuitive=(6,8,12,12) }"
    )
    assert specs[0].kind == "output"
    assert specs[0].labels() == ("sensory", "sensory_intuitive", "intuitive")


def test_parse_rejects_unordered_corners():
    with pytest.raises(RangeError):
        parse_variables("input x dim=processing universe=[0,10] { bad=(5,3,8,10) }")


def test_parse_rejects_term_outside_universe():
    with pytest.raises(RangeError):
        parse_variables("input x dim=processing universe=[0,10] { big=(0,2,4,11) }")


def test_parse_defaults_for_percent_variables():
    specs = parse_variables("input test_time dim=processing")
    assert specs[0].universe == (0.0, 100.0)
    assert specs[0].labels() == ("low", "medium", "much")
    assert specs[0].aggregation == "sum"
    assert specs[0].max_expected is None


def test_parse_optional_attributes():
    specs = parse_variables("input study_time dim=entrance agg=mean max_expected=240")
    assert specs[0].aggregation == "mean"
    assert specs[0].max_expected == 240.0


def test_parse_decimal_numbers():
    specs = parse_variables(
        "input x dim=processing universe=[0,1.5] { a=(0,0.25,0.5,1.5) }"
    )
    assert specs[0].terms == (("a", Trapezoid(0.0, 0.25, 0.5, 1.5)),)


HUGE = "9" * 400  # a digit string that float() turns into inf


@pytest.mark.parametrize(
    "line",
    [
        f"input x dim=processing universe=[0,{HUGE}] {{ a=(0,1,2,3) }}",
        f"input x dim=processing universe=[0,10] {{ a=(0,1,2,{HUGE}) }}",
        f"input x dim=processing max_expected={HUGE}",
    ],
    ids=["universe_bound", "term_corner", "max_expected"],
)
def test_parse_rejects_number_too_large_to_be_finite(line):
    with pytest.raises(RangeError) as exc_info:
        parse_variables("input y dim=processing\n" + line)
    assert (exc_info.value.line, exc_info.value.column) == (2, line.index(HUGE) + 1)


def test_parse_custom_universe_requires_terms():
    with pytest.raises(ParseError):
        parse_variables("input x dim=processing universe=[0,7]")


def test_parse_unknown_dimension():
    with pytest.raises(ParseError):
        parse_variables("input x dim=sideways universe=[0,10] { a=(0,1,2,3) }")


def test_parse_duplicate_variable():
    text = "input x dim=processing\ninput x dim=processing"
    with pytest.raises(ParseError):
        parse_variables(text)


def test_parse_duplicate_term_label():
    with pytest.raises(ParseError):
        parse_variables("input x dim=processing universe=[0,10] { a=(0,1,2,3) a=(1,2,3,4) }")


def test_parse_comments_and_blank_lines():
    text = "# heading\n\ninput x dim=processing  # trailing note\n"
    assert len(parse_variables(text)) == 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse_variables("input\ninput x dim=")
    # first failure is on line 1 (missing name)
    assert exc_info.value.line == 1
    assert exc_info.value.column >= 1


# -- rules parser ------------------------------------------------------------


VARS = parse_variables(
    """
    input troubleshooting dim=processing
    input discussion_participation dim=processing universe=[0,15] { low=(0,0,3,5) medium=(3,5,8,10) much=(8,10,15,15) }
    input connected_people dim=processing universe=[0,5] { low=(0,0,1,2) medium=(1,2,3,4) much=(3,4,5,5) }
    input test_time dim=processing
    input training_time dim=processing
    output processing_score dim=processing universe=[0,12] { reactive=(0,0,6,8) reflective=(6,8,12,12) }
    """
)


def test_parse_rule_with_five_clauses():
    rules = parse_rules(
        "RULE p1: IF troubleshooting IS much AND discussion_participation IS much"
        " AND connected_people IS much AND test_time IS low AND training_time IS low"
        " THEN processing_score IS reactive",
        VARS,
    )
    assert len(rules) == 1
    rule = rules[0]
    assert rule.rule_id == "p1"
    assert rule.dimension == "processing"
    assert len(rule.antecedent) == 5
    assert rule.antecedent[0] == ("troubleshooting", "much")
    assert rule.consequent == ("processing_score", "reactive")


def test_parse_rule_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_rules("RULE z: IF a IS low THEN processing_score IS reactive", VARS)


def test_parse_rule_unknown_term():
    with pytest.raises(UnknownTermError):
        parse_rules("RULE z: IF test_time IS enormous THEN processing_score IS reactive", VARS)


def test_parse_rule_duplicate_clause_variable():
    with pytest.raises(DuplicateClauseVariableError):
        parse_rules(
            "RULE z: IF test_time IS low AND test_time IS much"
            " THEN processing_score IS reactive",
            VARS,
        )


def test_parse_rule_rejects_output_in_antecedent():
    with pytest.raises(ParseError):
        parse_rules(
            "RULE z: IF processing_score IS reactive THEN processing_score IS reactive",
            VARS,
        )


def test_parse_rule_rejects_input_as_consequent():
    with pytest.raises(ParseError):
        parse_rules("RULE z: IF test_time IS low THEN test_time IS much", VARS)


def test_parse_rule_keywords_case_insensitive():
    rules = parse_rules(
        "rule z: if test_time is low then processing_score is reactive", VARS
    )
    assert rules[0].rule_id == "z"


def test_parse_rule_identifiers_case_sensitive():
    with pytest.raises(UnknownVariableError):
        parse_rules("RULE z: IF Test_Time IS low THEN processing_score IS reactive", VARS)


def test_parse_rule_duplicate_id():
    text = (
        "RULE z: IF test_time IS low THEN processing_score IS reactive\n"
        "RULE z: IF test_time IS much THEN processing_score IS reflective\n"
    )
    with pytest.raises(ParseError):
        parse_rules(text, VARS)


def test_parse_rule_syntax_error_position():
    with pytest.raises(ParseError) as exc_info:
        parse_rules("RULE z: IF test_time low", VARS)
    assert exc_info.value.line == 1
    assert "keyword 'is'" in str(exc_info.value)


def test_load_rulebase_numbers_rules_file_lines_from_its_own_start():
    vars_text = "\n".join(["# variables", ""] + [f"input v{i} dim=processing" for i in range(9)])
    vars_text += "\noutput processing_score dim=processing universe=[0,12] { r=(0,0,6,8) }\n"
    rules_text = (
        "# rules\n"
        "RULE a: IF v0 IS low THEN processing_score IS r\n"
        "RULE b: IF v1 IS enormous THEN processing_score IS r\n"
    )
    with pytest.raises(UnknownTermError) as exc_info:
        load_rulebase(vars_text, rules_text)
    assert exc_info.value.line == 3
    assert str(exc_info.value).startswith("line 3, column 18: ")

    with pytest.raises(ParseError) as exc_info:
        load_rulebase("\n\ninput x dim=nowhere\n", rules_text)
    assert exc_info.value.line == 3


def test_load_rulebase_equals_combined_document(rb):
    text = pretty_print(rb)
    var_text = "\n".join(l for l in text.splitlines() if not l.startswith("RULE"))
    rule_text = "\n".join(l for l in text.splitlines() if l.startswith("RULE"))
    assert load_rulebase(var_text, rule_text) == rb


# -- validation --------------------------------------------------------------


def _rule(rule_id, antecedent, consequent_term):
    return Rule(
        rule_id=rule_id,
        dimension="processing",
        antecedent=tuple(antecedent),
        consequent=("processing_score", consequent_term),
    )


def test_validate_detects_conflict():
    rb = RuleBase(
        variables=tuple(VARS),
        rules=(
            _rule("a", [("test_time", "low"), ("training_time", "much")], "reactive"),
            _rule("b", [("training_time", "much"), ("test_time", "low")], "reflective"),
        ),
    )
    conflicts = [d for d in validate(rb) if d.code == "conflict"]
    assert len(conflicts) == 1
    assert conflicts[0].severity == "error"
    assert set(conflicts[0].rule_ids) == {"a", "b"}


def test_validate_conflict_requires_equal_clause_sets():
    rb = RuleBase(
        variables=tuple(VARS),
        rules=(
            _rule("a", [("test_time", "low")], "reactive"),
            _rule("b", [("test_time", "much")], "reflective"),
        ),
    )
    assert not [d for d in validate(rb) if d.code == "conflict"]


def test_validate_detects_duplicate_rules():
    rb = RuleBase(
        variables=tuple(VARS),
        rules=(
            _rule("a", [("test_time", "low")], "reactive"),
            _rule("b", [("test_time", "low")], "reactive"),
        ),
    )
    duplicates = [d for d in validate(rb) if d.code == "duplicate"]
    assert len(duplicates) == 1
    assert duplicates[0].severity == "warning"


def test_validate_reports_a_repeated_rule_id():
    """Only a hand-built rule base can repeat an id: the parsers refuse one."""
    rule = _rule("proc1", [("test_time", "low")], "reactive")
    diagnostics = validate(RuleBase(variables=tuple(VARS), rules=(rule, rule)))
    assert [d.format() for d in diagnostics if d.code == "duplicate-id"] == [
        "error duplicate-id [proc1] rule id 'proc1' is not unique"
    ]


def test_validate_reports_uncovered_variable():
    rb = RuleBase(
        variables=tuple(VARS),
        rules=(_rule("a", [("test_time", "low")], "reactive"),),
    )
    uncovered = [d for d in validate(rb) if d.code == "uncovered-variable"]
    assert {d.message.split("'")[1] for d in uncovered} == {
        "troubleshooting",
        "discussion_participation",
        "connected_people",
        "training_time",
    }
    assert all(d.severity == "warning" for d in uncovered)


def test_validate_flags_incomplete_antecedent():
    rb = RuleBase(
        variables=tuple(VARS),
        rules=(_rule("a", [("test_time", "low")], "reactive"),),
    )
    incomplete = [d for d in validate(rb) if d.code == "incomplete-antecedent"]
    assert len(incomplete) == 1
    assert incomplete[0].rule_ids == ("a",)


def test_validate_missing_output():
    inputs_only = [v for v in VARS if v.kind == "input"]
    rb = RuleBase(
        variables=tuple(inputs_only),
        rules=(_rule("a", [("test_time", "low")], "reactive"),),
    )
    assert any(d.code == "missing-output" and d.severity == "error" for d in validate(rb))


def test_bundled_rulebase_is_clean(rb):
    diagnostics = validate(rb)
    assert error_count(diagnostics) == 0
    assert diagnostics == [
        Diagnostic(
            "warning", "unproduced-term", (),
            "output term understanding_score 'global' is concluded by no rule",
        )
    ]


def test_validate_reports_unproduced_terms():
    output = parse_variables(
        "output perception_score dim=perception universe=[0,12]"
        " { sensory=(0,0,6,8) sensory_intuitive=(6,7,8,8) intuitive=(6,8,12,12) }"
    )
    rb = RuleBase(
        variables=tuple(VARS) + tuple(output),
        rules=(
            _rule("a", [("test_time", "low")], "reactive"),
            _rule("b", [("test_time", "much")], "reflective"),
            Rule("c", "perception", (("test_time", "much"),), ("perception_score", "intuitive")),
        ),
    )
    unproduced = [d for d in validate(rb) if d.code == "unproduced-term"]
    assert [(d.severity, d.rule_ids, d.message) for d in unproduced] == [
        ("warning", (), "output term perception_score 'sensory' is concluded by no rule"),
        ("warning", (), "output term perception_score 'sensory_intuitive' is concluded by no rule"),
    ]


def test_diagnostic_line_format():
    d = Diagnostic("error", "conflict", ("a", "b"), "rules disagree")
    assert d.format() == "error conflict [a,b] rules disagree"


# -- pretty printing ---------------------------------------------------------


def test_pretty_print_variables_only():
    rb = RuleBase(variables=tuple(VARS), rules=())
    text = pretty_print(rb)
    assert "RULE" not in text
    assert text.count("\n") == len(VARS)


def test_pretty_print_single_rule():
    rb = RuleBase(
        variables=tuple(VARS),
        rules=(_rule("only", [("test_time", "low")], "reactive"),),
    )
    assert (
        "RULE only: IF test_time IS low THEN processing_score IS reactive"
        in pretty_print(rb)
    )


def test_pretty_print_round_trip(rb):
    text = pretty_print(rb)
    reparsed = parse_rulebase(text)
    assert reparsed == rb
    assert pretty_print(reparsed) == text


def test_pretty_print_matches_golden(rb):
    assert pretty_print(rb) == GOLDEN.read_text(encoding="utf-8")


def _positional(value: float) -> str:
    """The exact decimal expansion of a float, with no exponent."""
    return format(Decimal(value), "f")


_MAGNITUDES = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False)
_NUMBERS = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.just(0.0))


@st.composite
def _declarations(draw) -> str:
    """A variables-and-rules document whose numbers span 1e-9 to 1e9 in magnitude."""
    lines = []
    for kind in ("input", "output"):
        terms = draw(st.lists(st.lists(_NUMBERS, min_size=4, max_size=4), min_size=1, max_size=3))
        points = sorted(v for corners in terms for v in corners)
        lo, hi = points[0], points[-1]
        if lo == hi:
            hi = lo + 1.0
        attributes = f"universe=[{_positional(lo)},{_positional(hi)}]"
        if kind == "input" and draw(st.booleans()):
            attributes += f" agg=mean max_expected={_positional(draw(_MAGNITUDES))}"
        block = " ".join(
            f"t{i}=({','.join(_positional(v) for v in sorted(corners))})"
            for i, corners in enumerate(terms)
        )
        lines.append(f"{kind} {kind}_var dim=processing {attributes} {{ {block} }}")
    lines.append("RULE r: IF input_var IS t0 THEN output_var IS t0")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_declarations())
@example(
    "input input_var dim=processing universe=[0,0.00004] { t0=(0,0.00001,0.00002,0.00004) }\n"
    "output output_var dim=processing universe=[0,1] { t0=(0,0.5,0.5,1) }\n"
    "RULE r: IF input_var IS t0 THEN output_var IS t0\n"
)
def test_pretty_print_reparses_to_the_same_rulebase(document):
    rb = parse_rulebase(document)
    text = pretty_print(rb)
    reparsed = parse_rulebase(text)
    assert reparsed == rb
    assert pretty_print(reparsed) == text


# -- bundled content ---------------------------------------------------------


def test_bundled_rulebase_shape(rb):
    assert len(rb.variables) == 22
    assert len(rb.rules) == 20
    assert rb.dimensions() == DIMENSIONS
    for dimension in DIMENSIONS:
        assert len(rb.rules_for(dimension)) == 5
        out = rb.output_for(dimension)
        assert out.universe == (0.0, 12.0)


def test_bundled_rules_reference_all_dimension_inputs(rb):
    for dimension in DIMENSIONS:
        declared = {v.name for v in rb.inputs_for(dimension)}
        for rule in rb.rules_for(dimension):
            assert {name for name, _ in rule.antecedent} == declared


# -- fuzzing -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_variables_parser_never_panics(text):
    try:
        parse_variables(text)
    except DslError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_rules_parser_never_panics(text):
    try:
        parse_rules(text, VARS)
    except DslError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="RULEIFANDTHENIS inputoutdim=[](){},:0123456789.x_", max_size=120))
def test_parser_never_panics_on_grammar_like_text(text):
    try:
        parse_rulebase(text)
    except DslError:
        pass
