"""Line-oriented model description language (.fdl): parser and serializer.

Statement forms, one per line (``#`` starts a comment, blank lines are
ignored):

    hypothesis <id> prior <decimal>
    observable <id> [free]
    rule <id> (& <id>)* => <observable-id>        # empty body: rule true => <id>
    fact <formula>                                # operators: ! & | -> <->
    observe [!]<observable-id>
    treatment <id> targets <hypothesis-id>
    utility <treatment-id> treat-faulty <v> treat-ok <v> skip-faulty <v> skip-ok <v>
    utility joint when <lit> (& <lit>)* given <lit> (& <lit>)* value <v>

Lines end at LF, CR LF or CR; the other Unicode line separators (form
feed, U+2028, ...) are whitespace. After ``utility joint`` the next word
decides the form: ``treat-faulty`` opens the additive line of a treatment
named ``joint``, anything else a joint line. Joint-utility literals accept
``!`` on hypothesis ids (fault absent) and on treatment ids (treatment not
chosen). An identifier starts with a letter or ``_``, continues with
letters, digits and ``_``, and may contain a ``-`` only before a letter
(``treat-faulty`` is one token); ``true`` and ``false`` are reserved.
Numbers are plain decimals (``-2.5``, ``0.00001``), without
exponent notation. Parsing stops at the first syntax error; semantic
problems (priors out of range, unknown ids, contradictory observations,
...) are collected as validation findings on the parsed bundle instead.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

from .errors import DiagnoscopeError
from .formulas import CONNECTIVES, FALSE, TRUE, Atom, Formula, Not, atom_names, render
from .model import (
    AdditiveEntry,
    CausalRule,
    FaultModel,
    Hypothesis,
    JointEntry,
    ObservableVar,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
    ValidationFinding,
    validate_decision_inputs,
    validate_model,
    validate_observations,
)

RESERVED_WORDS = frozenset({"true", "false"})

_ADDITIVE_LABELS = ("treat-faulty", "treat-ok", "skip-faulty", "skip-ok")

# Deepest nesting accepted in one formula, counting each '(', '!' and
# '->'/'<->' chain operator; deeper input is a parse error instead of a
# RecursionError in the parser or the evaluator.
MAX_FORMULA_DEPTH = 100

_PUNCTUATION = ("=>", "(", ")", "!", *(c.spelling for c in CONNECTIVES))

# One token after optional whitespace; punctuation longest first, so that
# '<->' is not read as '<' followed by '->'. \d is str.isdecimal, so a
# superscript (a digit that float() rejects) is no number.
_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<end>#|$)"
    rf"|(?P<punct>{'|'.join(map(re.escape, sorted(_PUNCTUATION, key=len, reverse=True)))})"
    r"|(?P<number>[+-]?\d+(?:\.\d+)?)"
    r"|(?P<ident>[^\W\d]\w*(?:-[^\W\d_]\w*)*)"
    r"|(?P<other>.))"
)
_PART_START = re.compile(r"(?:^|-)(.)")  # first character of each hyphen-joined part


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    column: int
    length: int


class ParseError(DiagnoscopeError):
    """First syntax error found; parsing does not continue past it."""

    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.span = span
        self.message = message
        self.expected = tuple(expected)


class Token(NamedTuple):
    kind: str  # "ident", "number", or the punctuation text itself
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, len(self.text))


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN_PATTERN.finditer(text):
        kind = match.lastgroup
        if kind == "end":
            break
        word, column = match[kind], match.start(kind)
        if kind == "ident" and not word.isascii():
            # [^\W\d] also admits numerals ('²', 'Ⅷ') that str.isalpha rejects;
            # one opening the identifier, or following a hyphen in it, is an error
            for part in _PART_START.finditer(word):
                if not (part[1].isalpha() or part[1] == "_"):
                    kind, column = "other", column + part.start()
                    break
        if kind == "other":
            raise ParseError(
                SourceSpan(line_no, column + 1, 1), f"unexpected character {text[column]!r}"
            )
        tokens.append(Token(word if kind == "punct" else kind, word, line_no, column + 1))
    return tokens


class _Cursor:
    """Token stream over one line; errors point at the offending token, or
    at the last token when the line ends too early."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open '(', '!' and chain operators in the formula being parsed

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, kind: str | None = None, text: str | None = None) -> bool:
        """Whether a next token exists, of ``kind`` and reading ``text``
        where they are given."""
        token = self.peek()
        return token is not None and kind in (None, token.kind) and text in (None, token.text)

    def fail(self, what: str, expected: tuple[str, ...]) -> ParseError:
        token = self.peek()
        if token is None:
            return ParseError(
                self.tokens[-1].span, f"unexpected end of line, expected {what}", expected
            )
        return ParseError(
            token.span, f"expected {what}, found '{token.text}'", expected
        )

    def descend(self) -> None:
        """Consume a token that nests what follows one level deeper."""
        if self.depth == MAX_FORMULA_DEPTH:
            raise ParseError(
                self.peek().span, f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
            )
        self.advance()
        self.depth += 1

    def expect(self, kind: str, what: str, text: str | None = None) -> Token:
        """Consume the next token if it is of ``kind`` (and reads ``text``,
        when given); otherwise fail, naming ``what`` (quoted for a literal)."""
        if not self.at(kind, text):
            raise self.fail(what, (what.strip("'"),))
        return self.advance()

    def expect_name(self, what: str) -> Token:
        token = self.expect("ident", what)
        if token.text in RESERVED_WORDS:
            raise ParseError(
                token.span, f"reserved word '{token.text}' cannot be used as {what}", (what,)
            )
        return token

    def expect_end(self) -> None:
        if self.at():
            token = self.peek()
            raise ParseError(
                token.span, f"unexpected token '{token.text}' after statement", ("end of line",)
            )


@dataclass
class Document:
    """Raw parse result of one source text, before cross-reference checks."""

    hypotheses: list[Hypothesis] = field(default_factory=list)
    observables: list[ObservableVar] = field(default_factory=list)
    rules: list[CausalRule] = field(default_factory=list)
    facts: list[Formula] = field(default_factory=list)
    observations: list[tuple[str, bool]] = field(default_factory=list)
    treatments: list[TreatmentAction] = field(default_factory=list)
    additive: list[tuple[str, AdditiveEntry]] = field(default_factory=list)
    joints: list[JointEntry] = field(default_factory=list)


@dataclass(frozen=True)
class ParsedBundle:
    """A validated model bundle; ``findings`` is empty when everything checks out."""

    model: FaultModel
    observations: ObservationSet | None
    utility: UtilityModel | None
    treatments: tuple[TreatmentAction, ...]
    findings: tuple[ValidationFinding, ...]


def parse_document(text: str) -> Document:
    """Parse one source text; raises ParseError at the first syntax error."""
    doc = Document()
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        cursor = _Cursor(_tokenize_line(raw, line_no))
        if not cursor.at():
            continue
        head = cursor.advance()
        if head.text not in _STATEMENT_PARSERS:  # keywords are identifiers
            raise ParseError(
                head.span, f"unknown keyword '{head.text}'", tuple(_STATEMENT_PARSERS)
            )
        _STATEMENT_PARSERS[head.text](cursor, doc)
    return doc


def _parse_hypothesis(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("hypothesis identifier")
    cursor.expect("ident", "'prior'", "prior")
    prior = float(cursor.expect("number", "prior probability").text)
    cursor.expect_end()
    doc.hypotheses.append(Hypothesis(name.text, prior))


def _parse_observable(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("observable identifier")
    free = cursor.at()
    if free:
        cursor.expect("ident", "'free'", "free")
    cursor.expect_end()
    doc.observables.append(ObservableVar(name.text, free))


def _parse_rule(cursor: _Cursor, doc: Document) -> None:
    body: list[str] = []
    if cursor.at("ident", "true"):
        cursor.advance()
    else:
        body.append(cursor.expect_name("hypothesis identifier").text)
        while cursor.at("&"):
            amp = cursor.advance()
            if not cursor.at("ident") or cursor.peek().text in RESERVED_WORDS:
                raise ParseError(
                    amp.span, "dangling '&' in rule body", ("hypothesis identifier",)
                )
            body.append(cursor.advance().text)
    cursor.expect("=>", "'=>'")
    head = cursor.expect_name("observable identifier")
    cursor.expect_end()
    doc.rules.append(CausalRule(tuple(body), head.text))


def _parse_fact(cursor: _Cursor, doc: Document) -> None:
    formula = _parse_formula(cursor)
    cursor.expect_end()
    doc.facts.append(formula)


def _parse_observe(cursor: _Cursor, doc: Document) -> None:
    literal = _parse_literal(cursor, "observable identifier")
    cursor.expect_end()
    doc.observations.append(literal)


def _parse_treatment(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("treatment identifier")
    cursor.expect("ident", "'targets'", "targets")
    target = cursor.expect_name("hypothesis identifier")
    cursor.expect_end()
    doc.treatments.append(TreatmentAction(name.text, target.text))


def _parse_literal(cursor: _Cursor, what: str) -> tuple[str, bool]:
    negated = cursor.at("!")
    if negated:
        cursor.advance()
    return cursor.expect_name(what).text, not negated


def _parse_literal_list(cursor: _Cursor, what: str) -> tuple[tuple[str, bool], ...]:
    literals = [_parse_literal(cursor, what)]
    while cursor.at("&"):
        cursor.advance()
        literals.append(_parse_literal(cursor, what))
    return tuple(literals)


def _parse_utility(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("treatment identifier")
    if name.text == "joint" and not cursor.at("ident", _ADDITIVE_LABELS[0]):
        cursor.expect("ident", "'when'", "when")
        when = _parse_literal_list(cursor, "hypothesis literal")
        cursor.expect("ident", "'given'", "given")
        given = _parse_literal_list(cursor, "treatment literal")
        cursor.expect("ident", "'value'", "value")
        value = float(cursor.expect("number", "utility value").text)
        cursor.expect_end()
        doc.joints.append(JointEntry(when, given, value))
        return
    values: list[float] = []
    for label in _ADDITIVE_LABELS:
        cursor.expect("ident", f"'{label}'", label)
        values.append(float(cursor.expect("number", "utility value").text))
    cursor.expect_end()
    doc.additive.append((name.text, AdditiveEntry(*values)))


_STATEMENT_PARSERS = {
    "hypothesis": _parse_hypothesis,
    "observable": _parse_observable,
    "rule": _parse_rule,
    "fact": _parse_fact,
    "observe": _parse_observe,
    "treatment": _parse_treatment,
    "utility": _parse_utility,
}


def _parse_formula(cursor: _Cursor, level: int = 0) -> Formula:
    """A formula whose loosest connective is ``CONNECTIVES[level]`` or tighter."""
    if level == len(CONNECTIVES):
        return _parse_unary(cursor)
    connective = CONNECTIVES[level]
    depth = cursor.depth
    operands = [_parse_formula(cursor, level + 1)]
    while cursor.at(connective.spelling):
        if connective.nary:
            cursor.advance()
        else:
            cursor.descend()  # each chain operator nests its right operand
        operands.append(_parse_formula(cursor, level + 1))
    cursor.depth = depth
    return connective.join(operands)


def _parse_unary(cursor: _Cursor) -> Formula:
    token = cursor.peek()
    if token is None:
        raise cursor.fail("formula", ("identifier", "'!'", "'('", "true", "false"))
    if token.kind in ("!", "("):
        cursor.descend()
        if token.kind == "!":
            inner = Not(_parse_unary(cursor))
        else:
            inner = _parse_formula(cursor)
            cursor.expect(")", "')'")
        cursor.depth -= 1
        return inner
    if token.kind == "ident":
        cursor.advance()
        if token.text == "true":
            return TRUE
        if token.text == "false":
            return FALSE
        return Atom(token.text)
    raise ParseError(
        token.span,
        f"unexpected token '{token.text}' in formula",
        ("identifier", "'!'", "'('", "true", "false"),
    )


def assemble_bundle(documents: list[Document]) -> ParsedBundle:
    """Merge documents into one validated bundle.

    Contradictory observations and duplicate utility entries are reported
    as findings (keeping the first occurrence), so a bundle is always
    produced; callers decide whether findings block further work.
    """
    model = FaultModel(
        hypotheses=tuple(h for doc in documents for h in doc.hypotheses),
        observables=tuple(o for doc in documents for o in doc.observables),
        rules=tuple(r for doc in documents for r in doc.rules),
        extra_facts=tuple(f for doc in documents for f in doc.facts),
    )
    findings = validate_model(model)

    first_polarity: dict[str, bool] = {}  # insertion order is observation order
    for doc in documents:
        for name, polarity in doc.observations:
            if first_polarity.setdefault(name, polarity) != polarity:
                findings.append(
                    ValidationFinding(
                        "contradictory-observation",
                        f"contradictory observation of '{name}'",
                    )
                )
    observations = (
        ObservationSet(tuple(first_polarity.items())) if first_polarity else None
    )
    if observations is not None:
        findings.extend(validate_observations(model, observations))

    treatments = tuple(t for doc in documents for t in doc.treatments)
    additive: dict[str, AdditiveEntry] = {}
    for doc in documents:
        for tid, entry in doc.additive:
            if tid in additive:
                findings.append(
                    ValidationFinding(
                        "duplicate-utility",
                        f"duplicate utility entry for treatment '{tid}'",
                    )
                )
                continue
            additive[tid] = entry
    joints = tuple(j for doc in documents for j in doc.joints)
    utility = UtilityModel(additive, joints) if additive or joints else None
    findings.extend(validate_decision_inputs(model, treatments, utility))
    return ParsedBundle(model, observations, utility, treatments, tuple(findings))


def parse_model_file(text: str) -> ParsedBundle:
    """Parse and validate one source text."""
    return assemble_bundle([parse_document(text)])


def _format_number(value: float) -> str:
    # Imported here because only serialization needs it: importing decimal
    # adds about 0.4 MB to every command-line run, which never serializes.
    from decimal import Decimal

    # .fdl numbers are plain decimals: the positional form of the shortest
    # repr, which parses back to the same float, or for an infinity 1e309,
    # which parses back to it too. No text parses to NaN.
    number = Decimal(repr(float(value)))
    if number.is_nan():
        raise ValueError("NaN cannot be written as .fdl")
    return format(Decimal("1e309").copy_sign(number) if number.is_infinite() else number, "f")


def _name(name: str) -> str:
    """``name``, if the reader reads it back as one identifier token."""
    try:
        if _tokenize_line(name, 1) == [Token("ident", name, 1, 1)] and name not in RESERVED_WORDS:
            return name
    except ParseError:
        pass
    raise ValueError(f"name cannot be written as .fdl: {name!r}")


def _format_literals(literals: tuple[tuple[str, bool], ...]) -> str:
    return " & ".join(("" if pol else "!") + _name(name) for name, pol in literals)


def _fact_line(fact: Formula) -> str:
    """The ``fact`` line for ``fact``, read back by the parser's own formula
    reader so that its nesting is counted exactly as the parser counts it."""
    for name in sorted(atom_names(fact)):
        _name(name)
    text = render(fact)
    try:
        _parse_formula(_Cursor(_tokenize_line(text, 1)))
    except ParseError as exc:
        raise ValueError(f"fact cannot be written as .fdl: {exc.message}") from None
    return f"fact {text}"


def serialize_bundle(bundle: ParsedBundle) -> str:
    """Render a bundle back to source text.

    Reparsing yields an equal bundle when the bundle is in the parser's
    normal form: nested conjunctions and disjunctions read back flattened,
    so a fact ``And((And((A, A)), A))`` returns as ``And((A, A, A))``.
    Raises ValueError for what would not read back: a name that is not one
    non-reserved identifier, a fact nested deeper than MAX_FORMULA_DEPTH
    levels, a NaN.
    """
    lines: list[str] = []
    for hypothesis in bundle.model.hypotheses:
        lines.append(
            f"hypothesis {_name(hypothesis.id)} prior {_format_number(hypothesis.prior)}"
        )
    for observable in bundle.model.observables:
        suffix = " free" if observable.free else ""
        lines.append(f"observable {_name(observable.id)}{suffix}")
    for rule in bundle.model.rules:
        body = " & ".join(map(_name, rule.body)) if rule.body else "true"
        lines.append(f"rule {body} => {_name(rule.head)}")
    for fact in bundle.model.extra_facts:
        lines.append(_fact_line(fact))
    if bundle.observations is not None:
        for literal in bundle.observations.literals:
            lines.append(f"observe {_format_literals((literal,))}")
    for treatment in bundle.treatments:
        lines.append(f"treatment {_name(treatment.id)} targets {_name(treatment.target)}")
    if bundle.utility is not None:
        for tid, entry in bundle.utility.additive.items():
            values = map(_format_number, astuple(entry))
            fields = " ".join(f"{label} {value}" for label, value in zip(_ADDITIVE_LABELS, values))
            lines.append(f"utility {_name(tid)} {fields}")
        for joint in bundle.utility.joint_entries:
            lines.append(
                f"utility joint when {_format_literals(joint.when)}"
                f" given {_format_literals(joint.given)}"
                f" value {_format_number(joint.value)}"
            )
    return "\n".join(lines) + "\n"
