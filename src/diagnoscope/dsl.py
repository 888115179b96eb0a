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

How a text is read: one ``findall`` of one pattern (``_TOKEN_PATTERN``)
splits the whole text into token strings. A line end, together with the
comment before it, is one empty string, and so is the end of the text. A
token's kind comes from its first character; the full rules run only for
a word with a non-ASCII character and for a lone ``+ - < =``. One cursor
walks the strings line by line and counts lines as it passes the empty
ones. A token's column is worked out only for an error, by scanning that
one line again. So a valid text makes no object per token beyond its
string: no match object, no token record, no position.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass, field

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


# One token after optional whitespace, other than a line end, as the one
# group; identifiers come first, as the commonest. A line end (LF, CR LF
# or CR) with the comment before it, and the end of the text, match with
# the group empty, so findall gives '' for each and its list always ends
# with ''. Punctuation comes longest first, so that '<->' is not read as
# '<' followed by '->'. \d is str.isdecimal, so a superscript (a digit
# that float() rejects) is no number. The group's last alternative, any
# other character but the '#' of a comment, is an error.
_TOKEN_PATTERN = re.compile(
    r"[^\S\r\n]*(?:([^\W\d]\w*(?:-[^\W\d_]\w*)*"
    r"|[+-]?\d+(?:\.\d+)?"
    rf"|{'|'.join(map(re.escape, sorted(_PUNCTUATION, key=len, reverse=True)))}"
    r"|[^\s#])"
    r"|(?:#[^\r\n]*)?(?:\r\n?|\n|\Z))"
)
_PART_START = re.compile(r"(?:^|-)(.)")  # first character of each hyphen-joined part
_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# Token kinds that the first character decides: "ident", "number", a
# one-character punctuation token itself, and "end" for a line end ('').
# Any other first character, and an identifier with a non-ASCII character,
# takes the full rules of _kind.
_KIND_BY_FIRST = {
    "": "end",
    **{c: "ident" for c in map(chr, range(128)) if c.isalpha() or c == "_"},
    **dict.fromkeys("0123456789", "number"),
    **{p: p for p in _PUNCTUATION if len(p) == 1},
}


def _kind(token: str) -> str:
    """The kind of one token of _TOKEN_PATTERN: "ident", "number", the
    punctuation text itself, "end", or "other" for a token that holds a
    character no token may hold."""
    kind = _KIND_BY_FIRST.get(token[:1])
    if kind is not None and (kind != "ident" or token.isascii()):
        return kind
    if token[0] in "+-<=":  # alone, or opening '->', '<->', '=>' or a signed number
        return "other" if len(token) == 1 else token if token in _PUNCTUATION else "number"
    if token[0].isdecimal():
        return "number"
    return "ident" if _misplaced(token) is None else "other"


def _misplaced(word: str) -> int | None:
    """Offset of the first character of ``word`` that no token may hold
    where it stands, or None. [^\\W\\d] also admits numerals ('²', 'Ⅷ')
    that str.isalpha rejects; one opening a word is misplaced, and one
    after a hyphen makes the hyphen misplaced."""
    for part in _PART_START.finditer(word):
        if not (part[1].isalpha() or part[1] == "_"):
            return part.start()
    return None


def _error_at(
    text: str, line: int, index: int, message: str, expected: tuple[str, ...]
) -> ParseError:
    """The error ``message`` at the ``index``-th token of line ``line``, by
    scanning that one line again: the one place where a column is worked
    out. A line that holds a character no token may hold is an error at
    that character instead, wherever its parse stopped."""
    raw = _LINE_BREAK.split(text, maxsplit=line)[line - 1]
    span = None
    for count, match in enumerate(_TOKEN_PATTERN.finditer(raw)):
        token = match[1]
        if token is None:  # a comment, or the end of the line
            break
        column = match.start(1)
        if _kind(token) == "other":
            column += _misplaced(token)
            return ParseError(
                SourceSpan(line, column + 1, 1), f"unexpected character {raw[column]!r}"
            )
        if count == index:
            span = SourceSpan(line, column + 1, len(token))
    return ParseError(span, message, expected)


class _Cursor:
    """The tokens of one text, walked line by line: ``pos`` is the next
    token, which is '' at the end of a line. Errors point at the offending
    token, or at the last token when the line ends too early."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_PATTERN.findall(text)
        self.pos = 0
        self.start = 0  # index of the first token of the current line
        self.line = 1
        self.depth = 0  # open '(', '!' and chain operators in the formula being parsed

    def next_line(self) -> bool:
        """Move to the first token of the next line that has one, from the
        start of the text or from the end of a statement; False when no
        line is left."""
        tokens, pos = self.tokens, self.pos
        while not tokens[pos]:
            pos += 1
            if pos == len(tokens):
                return False
            self.line += 1
        self.pos = self.start = pos
        return True

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def error(self, message: str, expected: tuple[str, ...] = (), back: int = 0) -> ParseError:
        """A ParseError at the next token, or ``back`` tokens before it."""
        return _error_at(self.text, self.line, self.pos - back - self.start, message, expected)

    def fail(self, what: str, expected: tuple[str, ...]) -> ParseError:
        token = self.tokens[self.pos]
        if not token:
            return self.error(f"unexpected end of line, expected {what}", expected, back=1)
        return self.error(f"expected {what}, found '{token}'", expected)

    def descend(self) -> None:
        """Consume a token that nests what follows one level deeper."""
        if self.depth == MAX_FORMULA_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")
        self.pos += 1
        self.depth += 1

    def expect(self, text: str) -> None:
        """Consume the next token if it reads ``text``; otherwise fail."""
        if self.tokens[self.pos] != text:
            raise self.fail(f"'{text}'", (text,))
        self.pos += 1

    def expect_number(self, what: str) -> float:
        token = self.tokens[self.pos]
        if _kind(token) != "number":
            raise self.fail(what, (what,))
        self.pos += 1
        return float(token)

    def expect_name(self, what: str) -> str:
        token = self.tokens[self.pos]
        if _kind(token) != "ident":
            raise self.fail(what, (what,))
        if token in RESERVED_WORDS:
            raise self.error(f"reserved word '{token}' cannot be used as {what}", (what,))
        self.pos += 1
        return token

    def expect_end(self) -> None:
        token = self.tokens[self.pos]
        if token:
            raise self.error(f"unexpected token '{token}' after statement", ("end of line",))


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
    cursor = _Cursor(text)
    while cursor.next_line():
        parse = _STATEMENT_PARSERS.get(cursor.peek())  # keywords are identifiers
        if parse is None:
            raise cursor.error(f"unknown keyword '{cursor.peek()}'", tuple(_STATEMENT_PARSERS))
        cursor.advance()
        parse(cursor, doc)
    return doc


def _parse_hypothesis(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("hypothesis identifier")
    cursor.expect("prior")
    prior = cursor.expect_number("prior probability")
    cursor.expect_end()
    doc.hypotheses.append(Hypothesis(name, prior))


def _parse_observable(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("observable identifier")
    free = bool(cursor.peek())
    if free:
        cursor.expect("free")
    cursor.expect_end()
    doc.observables.append(ObservableVar(name, free))


def _parse_rule(cursor: _Cursor, doc: Document) -> None:
    body: list[str] = []
    if cursor.at("true"):
        cursor.advance()
    else:
        body.append(cursor.expect_name("hypothesis identifier"))
        while cursor.at("&"):
            cursor.advance()
            if _kind(cursor.peek()) != "ident" or cursor.peek() in RESERVED_WORDS:
                raise cursor.error(
                    "dangling '&' in rule body", ("hypothesis identifier",), back=1
                )
            body.append(cursor.advance())
    cursor.expect("=>")
    head = cursor.expect_name("observable identifier")
    cursor.expect_end()
    doc.rules.append(CausalRule(tuple(body), head))


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
    cursor.expect("targets")
    target = cursor.expect_name("hypothesis identifier")
    cursor.expect_end()
    doc.treatments.append(TreatmentAction(name, target))


def _parse_literal(cursor: _Cursor, what: str) -> tuple[str, bool]:
    negated = cursor.at("!")
    if negated:
        cursor.advance()
    return cursor.expect_name(what), not negated


def _parse_literal_list(cursor: _Cursor, what: str) -> tuple[tuple[str, bool], ...]:
    literals = [_parse_literal(cursor, what)]
    while cursor.at("&"):
        cursor.advance()
        literals.append(_parse_literal(cursor, what))
    return tuple(literals)


def _parse_utility(cursor: _Cursor, doc: Document) -> None:
    name = cursor.expect_name("treatment identifier")
    if name == "joint" and not cursor.at(_ADDITIVE_LABELS[0]):
        cursor.expect("when")
        when = _parse_literal_list(cursor, "hypothesis literal")
        cursor.expect("given")
        given = _parse_literal_list(cursor, "treatment literal")
        cursor.expect("value")
        value = cursor.expect_number("utility value")
        cursor.expect_end()
        doc.joints.append(JointEntry(when, given, value))
        return
    values: list[float] = []
    for label in _ADDITIVE_LABELS:
        cursor.expect(label)
        values.append(cursor.expect_number("utility value"))
    cursor.expect_end()
    doc.additive.append((name, AdditiveEntry(*values)))


_STATEMENT_PARSERS = {
    "hypothesis": _parse_hypothesis,
    "observable": _parse_observable,
    "rule": _parse_rule,
    "fact": _parse_fact,
    "observe": _parse_observe,
    "treatment": _parse_treatment,
    "utility": _parse_utility,
}

_FORMULA_START = ("identifier", "'!'", "'('", "true", "false")


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
    if token in ("!", "("):
        cursor.descend()
        if token == "!":
            inner = Not(_parse_unary(cursor))
        else:
            inner = _parse_formula(cursor)
            cursor.expect(")")
        cursor.depth -= 1
        return inner
    if _kind(token) == "ident":
        cursor.advance()
        if token == "true":
            return TRUE
        if token == "false":
            return FALSE
        return Atom(token)
    if not token:
        raise cursor.fail("formula", _FORMULA_START)
    raise cursor.error(f"unexpected token '{token}' in formula", _FORMULA_START)


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
    if _Cursor(name).tokens == [name, ""] and _kind(name) == "ident" and name not in RESERVED_WORDS:
        return name
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
        _parse_formula(_Cursor(text))
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
