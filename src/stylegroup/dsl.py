"""Text formats and parsers for variable definitions and the fuzzy rule base.

Two line-oriented formats share one tokenizer. Keywords are
case-insensitive, identifiers case-sensitive, and `#` starts a comment.

Variables file (`*.fvars`), one declaration per line::

    input discussion_participation dim=processing universe=[0,15] \
        { low=(0,0,3,5) medium=(3,5,8,10) much=(8,10,15,15) }
    output processing_score dim=processing universe=[0,12] { ... }

`universe` defaults to [0,100] (percent-of-maximum scale) and the term
block to low/medium/much on that scale, so behaviour variables without
published ranges need only `input <name> dim=<dimension>`. Optional
attributes: `agg=sum|mean|max` (how repeated observations aggregate,
default sum) and `max_expected=<number>` (raw observations are rescaled
to percent of this ceiling at ingest time).

Rules file (`*.frules`), one rule per line::

    RULE p1: IF troubleshooting IS much AND test_time IS low THEN processing_score IS reactive

Parsing is strict and position-bearing: any structural violation raises a
`ParseError` carrying line and column. `validate` turns semantic problems
(conflicting rules, unused variables, ...) into diagnostics rather than
exceptions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from typing import Iterable, Iterator, Sequence

from .fuzzy import CompiledRules, EmptyAntecedentError, LinguisticVariable, Trapezoid

DIMENSIONS = ("processing", "perception", "entrance", "understanding")

AGGREGATIONS = ("sum", "mean", "max")

DEFAULT_UNIVERSE = (0.0, 100.0)
DEFAULT_TERMS = (
    ("low", Trapezoid(0.0, 0.0, 25.0, 40.0)),
    ("medium", Trapezoid(25.0, 40.0, 60.0, 75.0)),
    ("much", Trapezoid(60.0, 75.0, 100.0, 100.0)),
)


class DslError(Exception):
    """Base class for rule-definition errors."""


class ParseError(DslError):
    """Structural violation of the grammar, with source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class RangeError(ParseError):
    """Trapezoid corners out of order, or a term outside its universe."""


class UnknownVariableError(ParseError):
    """A rule references a variable that was never declared."""


class UnknownTermError(ParseError):
    """A rule references a term its variable does not define."""


class DuplicateClauseVariableError(ParseError):
    """A variable appears twice within one rule antecedent."""


@dataclass(frozen=True)
class Rule:
    """One IF/THEN rule; clauses are (variable name, term label) pairs."""

    rule_id: str
    dimension: str
    antecedent: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    rule_ids: tuple[str, ...]
    message: str

    def format(self) -> str:
        ids = ",".join(self.rule_ids) if self.rule_ids else "-"
        return f"{self.severity} {self.code} [{ids}] {self.message}"


@dataclass(frozen=True)
class RuleBase:
    """Parsed variables plus rules, grouped by dimension on demand."""

    variables: tuple[LinguisticVariable, ...]
    rules: tuple[Rule, ...]

    def variable(self, name: str) -> LinguisticVariable:
        for variable in self.variables:
            if variable.name == name:
                return variable
        raise KeyError(f"no variable named {name!r}")

    def dimensions(self) -> tuple[str, ...]:
        present = {rule.dimension for rule in self.rules}
        return tuple(d for d in DIMENSIONS if d in present)

    def rules_for(self, dimension: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.dimension == dimension)

    def inputs_for(self, dimension: str) -> tuple[LinguisticVariable, ...]:
        return tuple(
            v for v in self.variables if v.kind == "input" and v.dimension == dimension
        )

    def output_for(self, dimension: str) -> LinguisticVariable:
        outputs = [
            v for v in self.variables if v.kind == "output" and v.dimension == dimension
        ]
        if len(outputs) != 1:
            raise ValueError(
                f"dimension {dimension!r} declares {len(outputs)} output variables, expected 1"
            )
        return outputs[0]

    def referenced_inputs(self, dimension: str) -> tuple[str, ...]:
        """Input variables referenced by this dimension's rules, in declaration order."""
        used = {name for rule in self.rules_for(dimension) for name, _ in rule.antecedent}
        return tuple(v.name for v in self.variables if v.name in used)

    def compile_dimension(self, dimension: str) -> CompiledRules:
        """Resolve one dimension's rules into feature columns, clause terms and term indices.

        Columns are numbered in the order the rules and their clauses first
        reference them. A rule with no clause would fire at strength 1 for
        every input, so it raises `EmptyAntecedentError`.
        """
        variables = {v.name: v for v in self.variables}
        out_var = self.output_for(dimension)
        rules = self.rules_for(dimension)
        for rule in rules:
            if not rule.antecedent:
                raise EmptyAntecedentError(f"rule {rule.rule_id!r} has no antecedent clauses")
        term_index = {label: i for i, (label, _) in enumerate(out_var.terms)}
        columns: dict[str, int] = {}
        clauses = tuple(
            tuple(
                (columns.setdefault(name, len(columns)), variables[name].term(label))
                for name, label in rule.antecedent
            )
            for rule in rules
        )
        return CompiledRules(
            rule_ids=tuple(rule.rule_id for rule in rules),
            inputs=tuple(columns),
            clauses=clauses,
            consequents=tuple(term_index[rule.consequent[1]] for rule in rules),
            variable=out_var,
        )


# --------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"(?P<number>-?(?:\d+\.\d*|\.\d+|\d+))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[=\[\](){},:])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "punct"
    text: str
    column: int


def _tokenize(line_no: int, line: str) -> list[_Token]:
    text = line.split("#", 1)[0]
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(line_no, pos + 1, f"unexpected character {text[pos]!r}")
        tokens.append(_Token(str(match.lastgroup), match.group(), pos + 1))
        pos = match.end()
    return tokens


class _LineParser:
    """Cursor over one line's tokens with expectation-style errors."""

    def __init__(self, line_no: int, tokens: list[_Token], line_len: int):
        self.line_no = line_no
        self.tokens = tokens
        self.pos = 0
        self.end_column = line_len + 1

    def fail(self, expected: str):
        column = (
            self.tokens[self.pos].column if self.pos < len(self.tokens) else self.end_column
        )
        raise ParseError(self.line_no, column, f"expected {expected}")

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, expected: str) -> _Token:
        token = self.peek()
        if token is None:
            self.fail(expected)
        self.pos += 1
        return token

    def expect_punct(self, char: str) -> _Token:
        token = self.take(f"'{char}'")
        if token.kind != "punct" or token.text != char:
            raise ParseError(self.line_no, token.column, f"expected '{char}'")
        return token

    def expect_ident(self, what: str = "identifier") -> _Token:
        token = self.take(what)
        if token.kind != "ident":
            raise ParseError(self.line_no, token.column, f"expected {what}")
        return token

    def expect_keyword(self, word: str) -> _Token:
        token = self.take(f"keyword '{word}'")
        if token.kind != "ident" or token.text.lower() != word:
            raise ParseError(self.line_no, token.column, f"expected keyword '{word}'")
        return token

    def expect_number(self) -> tuple[float, _Token]:
        token = self.take("number")
        if token.kind != "number":
            raise ParseError(self.line_no, token.column, "expected number")
        value = float(token.text)
        if not math.isfinite(value):
            raise RangeError(self.line_no, token.column, "number is too large to be finite")
        return value, token

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "ident" and token.text.lower() == word

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "punct" and token.text == char

    def expect_end(self):
        token = self.peek()
        if token is not None:
            raise ParseError(self.line_no, token.column, "expected end of line")


# --------------------------------------------------------------------------
# Variables grammar


def _parse_universe(p: _LineParser) -> tuple[float, float]:
    p.expect_punct("[")
    lo, _ = p.expect_number()
    p.expect_punct(",")
    hi, _ = p.expect_number()
    p.expect_punct("]")
    return (lo, hi)


def _parse_term_block(p: _LineParser) -> list[tuple[str, float, float, float, float, _Token]]:
    p.expect_punct("{")
    terms = []
    while not p.at_punct("}"):
        label_tok = p.expect_ident("term label")
        p.expect_punct("=")
        p.expect_punct("(")
        corners = []
        for i in range(4):
            if i:
                p.expect_punct(",")
            value, _ = p.expect_number()
            corners.append(value)
        p.expect_punct(")")
        terms.append((label_tok.text, *corners, label_tok))
    p.expect_punct("}")
    if not terms:
        p.fail("at least one term")
    return terms


def _parse_variable_line(p: _LineParser) -> LinguisticVariable:
    line_no = p.line_no
    kind_tok = p.expect_ident("'input' or 'output'")
    kind = kind_tok.text.lower()
    if kind not in ("input", "output"):
        raise ParseError(line_no, kind_tok.column, "expected 'input' or 'output'")
    name = p.expect_ident("variable name").text

    dimension = None
    universe = DEFAULT_UNIVERSE
    aggregation = "sum"
    max_expected = None
    while not p.done() and not p.at_punct("{"):
        key_tok = p.expect_ident("attribute")
        key = key_tok.text.lower()
        p.expect_punct("=")
        if key == "dim":
            dim_tok = p.expect_ident("dimension name")
            if dim_tok.text.lower() not in DIMENSIONS:
                raise ParseError(
                    line_no, dim_tok.column, f"expected one of {', '.join(DIMENSIONS)}"
                )
            dimension = dim_tok.text.lower()
        elif key == "universe":
            universe = _parse_universe(p)
        elif key == "agg":
            agg_tok = p.expect_ident("aggregation mode")
            if agg_tok.text.lower() not in AGGREGATIONS:
                raise ParseError(
                    line_no, agg_tok.column, f"expected one of {', '.join(AGGREGATIONS)}"
                )
            aggregation = agg_tok.text.lower()
        elif key == "max_expected":
            value, num_tok = p.expect_number()
            if value <= 0:
                raise RangeError(line_no, num_tok.column, "max_expected must be positive")
            max_expected = value
        else:
            raise ParseError(
                line_no, key_tok.column, "expected one of dim, universe, agg, max_expected"
            )

    raw_terms = None
    if p.at_punct("{"):
        raw_terms = _parse_term_block(p)
    p.expect_end()

    if dimension is None:
        raise ParseError(line_no, p.end_column, "variable declaration needs dim=<dimension>")

    lo, hi = universe
    if not lo < hi:
        raise RangeError(line_no, 1, f"universe bounds must satisfy lo < hi, got [{lo}, {hi}]")

    if raw_terms is None:
        if universe != DEFAULT_UNIVERSE:
            raise ParseError(
                line_no,
                p.end_column,
                "a variable with a custom universe must declare its terms",
            )
        terms = DEFAULT_TERMS
    else:
        seen = set()
        terms = []
        for label, a, b, c, d, tok in raw_terms:
            if label in seen:
                raise ParseError(line_no, tok.column, f"duplicate term label {label!r}")
            seen.add(label)
            if not a <= b <= c <= d:
                raise RangeError(
                    line_no, tok.column,
                    f"term {label!r}: corners must satisfy a <= b <= c <= d",
                )
            if a < lo or d > hi:
                raise RangeError(
                    line_no, tok.column,
                    f"term {label!r} extends outside the universe [{lo}, {hi}]",
                )
            terms.append((label, Trapezoid(a, b, c, d)))

    return LinguisticVariable(
        name=name,
        universe=universe,
        terms=tuple(terms),
        kind=kind,
        dimension=dimension,
        aggregation=aggregation,
        max_expected=max_expected,
    )


# --------------------------------------------------------------------------
# Rules grammar


def _expect_variable(
    p: _LineParser, variables: dict[str, LinguisticVariable], kind: str
) -> tuple[LinguisticVariable, _Token]:
    tok = p.expect_ident(f"{kind} variable name")
    variable = variables.get(tok.text)
    if variable is None:
        raise UnknownVariableError(p.line_no, tok.column, f"unknown variable {tok.text!r}")
    if variable.kind != kind:
        side = "antecedents" if kind == "input" else "consequents"
        message = f"{tok.text!r} is an {variable.kind} variable; {side} use {kind}s"
        raise ParseError(p.line_no, tok.column, message)
    return variable, tok


def _expect_term(p: _LineParser, variable: LinguisticVariable) -> str:
    p.expect_keyword("is")
    tok = p.expect_ident("term label")
    if tok.text not in variable.labels():
        raise UnknownTermError(
            p.line_no, tok.column, f"variable {variable.name!r} has no term {tok.text!r}"
        )
    return tok.text


def _parse_rule_line(p: _LineParser, variables: dict[str, LinguisticVariable]) -> Rule:
    p.expect_keyword("rule")
    rule_id = p.expect_ident("rule id").text
    p.expect_punct(":")
    p.expect_keyword("if")

    antecedent = []
    while True:
        variable, tok = _expect_variable(p, variables, "input")
        if any(name == variable.name for name, _ in antecedent):
            raise DuplicateClauseVariableError(
                p.line_no, tok.column,
                f"variable {variable.name!r} appears twice in one antecedent",
            )
        antecedent.append((variable.name, _expect_term(p, variable)))
        if not p.at_keyword("and"):
            break
        p.take("keyword 'and'")

    p.expect_keyword("then")
    out_var, _ = _expect_variable(p, variables, "output")
    label = _expect_term(p, out_var)
    p.expect_end()
    return Rule(
        rule_id=rule_id,
        dimension=out_var.dimension,
        antecedent=tuple(antecedent),
        consequent=(out_var.name, label),
    )


# --------------------------------------------------------------------------
# Documents


def _numbered_lines(text: str) -> Iterator[_LineParser]:
    """A parser per line that holds a token, numbered from 1, tokenized lazily."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line_no, line)
        if tokens:
            yield _LineParser(line_no, tokens, len(line))


def _variables_from(lines: Iterable[_LineParser]) -> list[LinguisticVariable]:
    variables = []
    names = set()
    for p in lines:
        variable = _parse_variable_line(p)
        if variable.name in names:
            raise ParseError(p.line_no, 1, f"variable {variable.name!r} declared twice")
        names.add(variable.name)
        variables.append(variable)
    return variables


def _rules_from(
    lines: Iterable[_LineParser], variables: Sequence[LinguisticVariable]
) -> list[Rule]:
    by_name = {variable.name: variable for variable in variables}
    rules = []
    ids = set()
    for p in lines:
        rule = _parse_rule_line(p, by_name)
        if rule.rule_id in ids:
            raise ParseError(p.line_no, 1, f"rule id {rule.rule_id!r} declared twice")
        ids.add(rule.rule_id)
        rules.append(rule)
    return rules


def parse_variables(text: str) -> list[LinguisticVariable]:
    """Parse a variables document into declared variables, in file order."""
    return _variables_from(_numbered_lines(text))


def parse_rules(text: str, variables: Sequence[LinguisticVariable]) -> list[Rule]:
    """Parse a rules document against already-parsed variable declarations."""
    return _rules_from(_numbered_lines(text), variables)


def parse_rulebase(text: str) -> RuleBase:
    """Parse a combined document: variable lines first, rule lines in any position."""
    var_lines = []
    rule_lines = []
    for p in _numbered_lines(text):
        head = p.peek()
        if head.kind == "ident" and head.text.lower() in ("input", "output"):
            var_lines.append(p)
        elif head.kind == "ident" and head.text.lower() == "rule":
            rule_lines.append(p)
        else:
            raise ParseError(p.line_no, head.column, "expected 'input', 'output' or 'RULE'")
    variables = _variables_from(var_lines)
    return RuleBase(variables=tuple(variables), rules=tuple(_rules_from(rule_lines, variables)))


def load_rulebase(vars_text: str, rules_text: str) -> RuleBase:
    """A rule base from a variables document and a rules document.

    An error names its line within the document it comes from.
    """
    variables = parse_variables(vars_text)
    return RuleBase(variables=tuple(variables), rules=tuple(parse_rules(rules_text, variables)))


# --------------------------------------------------------------------------
# Validation


def validate(rb: RuleBase) -> list[Diagnostic]:
    """Structural diagnostics over a parsed rule base.

    Errors: conflicting rules (equal antecedent clause sets, different
    consequents), duplicate rule ids, a dimension with rules but not
    exactly one output variable. Warnings: identical rules, declared
    inputs no rule references, rules that omit some of their dimension's
    inputs.
    """
    diagnostics: list[Diagnostic] = []

    seen_ids = set()
    for rule in rb.rules:
        if rule.rule_id in seen_ids:
            diagnostics.append(
                Diagnostic("error", "duplicate-id", (rule.rule_id,),
                           f"rule id {rule.rule_id!r} is not unique")
            )
        seen_ids.add(rule.rule_id)

    for dimension in rb.dimensions():
        outputs = [
            v for v in rb.variables if v.kind == "output" and v.dimension == dimension
        ]
        if len(outputs) != 1:
            diagnostics.append(
                Diagnostic(
                    "error", "missing-output" if not outputs else "multiple-output", (),
                    f"dimension {dimension!r} has {len(outputs)} output variables, expected 1",
                )
            )

        rules = rb.rules_for(dimension)
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                left, right = rules[i], rules[j]
                if set(left.antecedent) != set(right.antecedent):
                    continue
                if left.consequent == right.consequent:
                    diagnostics.append(
                        Diagnostic(
                            "warning", "duplicate", (left.rule_id, right.rule_id),
                            "rules are identical",
                        )
                    )
                else:
                    diagnostics.append(
                        Diagnostic(
                            "error", "conflict", (left.rule_id, right.rule_id),
                            "rules share an antecedent but disagree on the consequent",
                        )
                    )

        declared = {v.name for v in rb.inputs_for(dimension)}
        for rule in rules:
            omitted = declared - {name for name, _ in rule.antecedent}
            if omitted:
                diagnostics.append(
                    Diagnostic(
                        "warning", "incomplete-antecedent", (rule.rule_id,),
                        f"rule omits declared inputs: {', '.join(sorted(omitted))}",
                    )
                )

    referenced = {name for rule in rb.rules for name, _ in rule.antecedent}
    for spec in rb.variables:
        if spec.kind == "input" and spec.name not in referenced:
            diagnostics.append(
                Diagnostic(
                    "warning", "uncovered-variable", (),
                    f"input variable {spec.name!r} is referenced by no rule",
                )
            )
    return diagnostics


def error_count(diagnostics: list[Diagnostic]) -> int:
    return sum(1 for d in diagnostics if d.severity == "error")


# --------------------------------------------------------------------------
# Pretty printing


def _format_number(value: float) -> str:
    """Shortest positional form that parses back to the same float.

    The tokenizer reads no exponent, so `repr`'s `4e-05` is written `0.00004`.
    """
    if value == int(value):
        return str(int(value))
    return format(Decimal(repr(value)), "f")


def _format_variable(variable: LinguisticVariable) -> str:
    parts = [variable.kind, variable.name, f"dim={variable.dimension}"]
    lo, hi = variable.universe
    parts.append(f"universe=[{_format_number(lo)},{_format_number(hi)}]")
    if variable.aggregation != "sum":
        parts.append(f"agg={variable.aggregation}")
    if variable.max_expected is not None:
        parts.append(f"max_expected={_format_number(variable.max_expected)}")
    terms = " ".join(
        f"{label}=({','.join(_format_number(x) for x in trap.corners())})"
        for label, trap in variable.terms
    )
    parts.append("{ " + terms + " }")
    return " ".join(parts)


def _format_rule(rule: Rule) -> str:
    clauses = " AND ".join(f"{name} IS {term}" for name, term in rule.antecedent)
    out_name, out_term = rule.consequent
    return f"RULE {rule.rule_id}: IF {clauses} THEN {out_name} IS {out_term}"


def pretty_print(rb: RuleBase) -> str:
    """Canonical single-document form: variables block, blank line, one rule per line."""
    lines = [_format_variable(variable) for variable in rb.variables]
    if rb.rules:
        lines.append("")
        lines.extend(_format_rule(rule) for rule in rb.rules)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Bundled rule base


def default_rulebase() -> RuleBase:
    """The rule base shipped with the package (learning-style identification)."""
    data = resources.files("stylegroup.data")
    return load_rulebase(
        (data / "default.fvars").read_text(encoding="utf-8"),
        (data / "default.frules").read_text(encoding="utf-8"),
    )
