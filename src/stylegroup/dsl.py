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

import re
from dataclasses import dataclass
from importlib import resources

from .fuzzy import InferenceRule, LinguisticVariable, Trapezoid

DIMENSIONS = ("processing", "perception", "entrance", "understanding")

AGGREGATIONS = ("sum", "mean", "max")

DEFAULT_UNIVERSE = (0.0, 100.0)
DEFAULT_TERMS = (
    ("low", 0.0, 0.0, 25.0, 40.0),
    ("medium", 25.0, 40.0, 60.0, 75.0),
    ("much", 60.0, 75.0, 100.0, 100.0),
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
class VariableSpec:
    """Declaration of one linguistic variable, as written in a `.fvars` file."""

    name: str
    kind: str  # "input" | "output"
    dimension: str
    universe: tuple[float, float] = DEFAULT_UNIVERSE
    terms: tuple[tuple[str, float, float, float, float], ...] = DEFAULT_TERMS
    aggregation: str = "sum"
    max_expected: float | None = None

    def term_labels(self) -> tuple[str, ...]:
        return tuple(t[0] for t in self.terms)

    def to_linguistic(self) -> LinguisticVariable:
        return LinguisticVariable(
            name=self.name,
            universe=self.universe,
            terms=tuple((label, Trapezoid(a, b, c, d)) for label, a, b, c, d in self.terms),
        )


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

    variables: tuple[VariableSpec, ...]
    rules: tuple[Rule, ...]

    def variable(self, name: str) -> VariableSpec:
        for spec in self.variables:
            if spec.name == name:
                return spec
        raise KeyError(f"no variable named {name!r}")

    def dimensions(self) -> tuple[str, ...]:
        present = {rule.dimension for rule in self.rules}
        return tuple(d for d in DIMENSIONS if d in present)

    def rules_for(self, dimension: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.dimension == dimension)

    def inputs_for(self, dimension: str) -> tuple[VariableSpec, ...]:
        return tuple(
            v for v in self.variables if v.kind == "input" and v.dimension == dimension
        )

    def output_for(self, dimension: str) -> VariableSpec:
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

    def compile_dimension(
        self, dimension: str
    ) -> tuple[tuple[InferenceRule, ...], LinguisticVariable]:
        """Resolve one dimension's rules against concrete linguistic variables.

        Only the variables those rules reference, and the dimension's output,
        are converted.
        """
        rules = self.rules_for(dimension)
        used = {name for rule in rules for name, _ in rule.antecedent}
        linguistic = {v.name: v.to_linguistic() for v in self.variables if v.name in used}
        out_var = self.output_for(dimension).to_linguistic()
        compiled = tuple(
            InferenceRule(
                rule_id=rule.rule_id,
                antecedent=tuple(
                    (linguistic[name], term) for name, term in rule.antecedent
                ),
                consequent_variable=out_var,
                consequent_term=rule.consequent[1],
            )
            for rule in rules
        )
        return compiled, out_var


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
        return float(token.text), token

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


def _parse_variable_line(line_no: int, line: str) -> VariableSpec:
    p = _LineParser(line_no, _tokenize(line_no, line), len(line))
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
        terms = DEFAULT_TERMS if universe == DEFAULT_UNIVERSE else None
        if terms is None:
            raise ParseError(
                line_no,
                p.end_column,
                "a variable with a custom universe must declare its terms",
            )
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
            terms.append((label, a, b, c, d))
        terms = tuple(terms)

    return VariableSpec(
        name=name,
        kind=kind,
        dimension=dimension,
        universe=universe,
        terms=terms,
        aggregation=aggregation,
        max_expected=max_expected,
    )


def parse_variables(text: str) -> list[VariableSpec]:
    """Parse a variables document into specs, in file order."""
    specs = []
    names = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not _tokenize(line_no, line):
            continue
        spec = _parse_variable_line(line_no, line)
        if spec.name in names:
            raise ParseError(line_no, 1, f"variable {spec.name!r} declared twice")
        names.add(spec.name)
        specs.append(spec)
    return specs


# --------------------------------------------------------------------------
# Rules grammar


def _parse_rule_line(
    line_no: int, line: str, variables: dict[str, VariableSpec]
) -> Rule:
    p = _LineParser(line_no, _tokenize(line_no, line), len(line))
    p.expect_keyword("rule")
    rule_id = p.expect_ident("rule id").text
    p.expect_punct(":")
    p.expect_keyword("if")

    antecedent = []
    seen_vars = set()
    while True:
        var_tok = p.expect_ident("input variable name")
        spec = variables.get(var_tok.text)
        if spec is None:
            raise UnknownVariableError(
                line_no, var_tok.column, f"unknown variable {var_tok.text!r}"
            )
        if spec.kind != "input":
            raise ParseError(
                line_no, var_tok.column,
                f"{var_tok.text!r} is an output variable; antecedents use inputs",
            )
        if spec.name in seen_vars:
            raise DuplicateClauseVariableError(
                line_no, var_tok.column,
                f"variable {spec.name!r} appears twice in one antecedent",
            )
        seen_vars.add(spec.name)
        p.expect_keyword("is")
        term_tok = p.expect_ident("term label")
        if term_tok.text not in spec.term_labels():
            raise UnknownTermError(
                line_no, term_tok.column,
                f"variable {spec.name!r} has no term {term_tok.text!r}",
            )
        antecedent.append((spec.name, term_tok.text))
        if p.at_keyword("and"):
            p.take("keyword 'and'")
            continue
        break

    p.expect_keyword("then")
    out_tok = p.expect_ident("output variable name")
    out_spec = variables.get(out_tok.text)
    if out_spec is None:
        raise UnknownVariableError(
            line_no, out_tok.column, f"unknown variable {out_tok.text!r}"
        )
    if out_spec.kind != "output":
        raise ParseError(
            line_no, out_tok.column,
            f"{out_tok.text!r} is an input variable; consequents use outputs",
        )
    p.expect_keyword("is")
    cons_tok = p.expect_ident("term label")
    if cons_tok.text not in out_spec.term_labels():
        raise UnknownTermError(
            line_no, cons_tok.column,
            f"variable {out_spec.name!r} has no term {cons_tok.text!r}",
        )
    p.expect_end()

    return Rule(
        rule_id=rule_id,
        dimension=out_spec.dimension,
        antecedent=tuple(antecedent),
        consequent=(out_spec.name, cons_tok.text),
    )


def parse_rules(text: str, variables: list[VariableSpec]) -> list[Rule]:
    """Parse a rules document against already-parsed variable declarations."""
    var_map = {spec.name: spec for spec in variables}
    rules = []
    ids = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not _tokenize(line_no, line):
            continue
        rule = _parse_rule_line(line_no, line, var_map)
        if rule.rule_id in ids:
            raise ParseError(line_no, 1, f"rule id {rule.rule_id!r} declared twice")
        ids.add(rule.rule_id)
        rules.append(rule)
    return rules


def parse_rulebase(text: str) -> RuleBase:
    """Parse a combined document: variable lines first, rule lines in any position."""
    var_lines = []
    rule_lines = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line_no, line)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind == "ident" and head.text.lower() in ("input", "output"):
            var_lines.append((line_no, line))
        elif head.kind == "ident" and head.text.lower() == "rule":
            rule_lines.append((line_no, line))
        else:
            raise ParseError(
                line_no, head.column, "expected 'input', 'output' or 'RULE'"
            )
    specs = []
    names = set()
    for line_no, line in var_lines:
        spec = _parse_variable_line(line_no, line)
        if spec.name in names:
            raise ParseError(line_no, 1, f"variable {spec.name!r} declared twice")
        names.add(spec.name)
        specs.append(spec)
    var_map = {spec.name: spec for spec in specs}
    rules = []
    ids = set()
    for line_no, line in rule_lines:
        rule = _parse_rule_line(line_no, line, var_map)
        if rule.rule_id in ids:
            raise ParseError(line_no, 1, f"rule id {rule.rule_id!r} declared twice")
        ids.add(rule.rule_id)
        rules.append(rule)
    return RuleBase(variables=tuple(specs), rules=tuple(rules))


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
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_variable(spec: VariableSpec) -> str:
    parts = [spec.kind, spec.name, f"dim={spec.dimension}"]
    lo, hi = spec.universe
    parts.append(f"universe=[{_format_number(lo)},{_format_number(hi)}]")
    if spec.aggregation != "sum":
        parts.append(f"agg={spec.aggregation}")
    if spec.max_expected is not None:
        parts.append(f"max_expected={_format_number(spec.max_expected)}")
    terms = " ".join(
        f"{label}=({_format_number(a)},{_format_number(b)},"
        f"{_format_number(c)},{_format_number(d)})"
        for label, a, b, c, d in spec.terms
    )
    parts.append("{ " + terms + " }")
    return " ".join(parts)


def _format_rule(rule: Rule) -> str:
    clauses = " AND ".join(f"{name} IS {term}" for name, term in rule.antecedent)
    out_name, out_term = rule.consequent
    return f"RULE {rule.rule_id}: IF {clauses} THEN {out_name} IS {out_term}"


def pretty_print(rb: RuleBase) -> str:
    """Canonical single-document form: variables block, blank line, one rule per line."""
    lines = [_format_variable(spec) for spec in rb.variables]
    if rb.rules:
        lines.append("")
        lines.extend(_format_rule(rule) for rule in rb.rules)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Bundled rule base


def default_rulebase() -> RuleBase:
    """The rule base shipped with the package (learning-style identification)."""
    data = resources.files("stylegroup.data")
    variables = parse_variables((data / "default.fvars").read_text(encoding="utf-8"))
    rules = parse_rules((data / "default.frules").read_text(encoding="utf-8"), variables)
    return RuleBase(variables=tuple(variables), rules=tuple(rules))
