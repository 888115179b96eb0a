"""The .fdl reader against the per-line reader it replaced.

The reader tokenizes a whole text with one ``findall`` and works out a
column only for an error. The reference below is the earlier reader,
kept verbatim: it split the text into lines, tokenized each line into
``Token`` records with their columns, and walked them with a per-line
cursor. The two must give the same ``Document``, or the same
``ParseError`` (line, column, length, message and ``expected``), on every
text. The last tests count what the reader scans: a valid text once, and
for an error, the line of the error once more.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from diagnoscope import dsl
from diagnoscope.dsl import (
    _ADDITIVE_LABELS,
    MAX_FORMULA_DEPTH,
    RESERVED_WORDS,
    Document,
    ParseError,
    SourceSpan,
)
from diagnoscope.formulas import CONNECTIVES, FALSE, TRUE, Atom, Formula, Not
from diagnoscope.model import (
    AdditiveEntry,
    CausalRule,
    Hypothesis,
    JointEntry,
    ObservableVar,
    TreatmentAction,
)

from .conftest import FIXTURES

# --- the reference: the per-line reader, verbatim ----------------------------

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



# --- the comparison ----------------------------------------------------------


def _outcome(parse, text: str):
    try:
        return vars(parse(text))
    except ParseError as exc:
        span = exc.span
        return ("error", span.line, span.column, span.length, exc.message, exc.expected)


def assert_same_reading(text: str) -> None:
    assert _outcome(dsl.parse_document, text) == _outcome(parse_document, text)


_KEYWORDS = ["", *dsl._STATEMENT_PARSERS, "utility joint when", "utility joint", "rule true"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
# Pieces that reach every rule of the tokenizer: words, numbers and
# punctuation, a lone '+ - < =', comments right after a token, Unicode
# spaces that are no line end, and non-ASCII letters and numerals.
_PIECES = [
    "A", "H1", "_h", "pump-stuck", "a-1", "é", "h-ǅ", "x²",
    "²", "Ⅷ", "_-²", "é²-½", "٣", "1٣",
    "true", "false", "prior", "free", "targets", "when", "given", "value", "joint",
    *_ADDITIVE_LABELS,
    "0.1", "-2.5", "+3", "1.", ".5", "2a", "1e5",
    "=>", "(", ")", "!", "&", "|", "->", "<->", "+", "-", "<", "=", ">", "<-", "@", "%",
    "#", "# note", "A#c", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029",
    *_LINE_ENDS,
]


@st.composite
def _texts(draw):
    pieces = st.one_of(st.sampled_from(_PIECES), st.text(max_size=3))
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        keyword = draw(st.sampled_from(_KEYWORDS))
        words = draw(st.lists(pieces, max_size=8))
        separators = draw(st.lists(st.sampled_from(["", " "]), min_size=len(words), max_size=len(words)))
        lines.append(keyword + " " + "".join(s + w for s, w in zip(separators, words)))
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_texts())
def test_the_reader_reads_as_the_per_line_reader(text):
    assert_same_reading(text)


def test_random_texts_read_as_before():
    rng = random.Random(2)
    for _ in range(20_000):
        lines = []
        for _ in range(rng.randint(1, 3)):
            words = rng.choices(_PIECES, k=rng.randint(0, 8))
            lines.append(rng.choice(_KEYWORDS) + " " + "".join(rng.choice(("", " ")) + w for w in words))
            lines.append(rng.choice(_LINE_ENDS))
        assert_same_reading("".join(lines[: rng.choice((-1, None))]))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.sampled_from(_KEYWORDS), st.text())
def test_any_text_after_a_keyword_reads_as_before(keyword, text):
    assert_same_reading(f"{keyword} {text}")


def _nested(opening: str, closing: str, depth: int) -> str:
    return f"fact {opening * depth}A{closing * depth}"


_NESTINGS = [("(", ")"), ("!", ""), ("A -> ", ""), ("A <-> ", "")]


@pytest.mark.parametrize(
    "text",
    [
        # a lone '<' is no '<->'
        "fact A < B\n", "fact A <\n", "fact <\n", "fact A <- B\n", "fact A <-> B <\n",
        # '_' opens an identifier, but '²' may not follow its hyphen
        "hypothesis _-² prior 0.1\n", "rule A & _-² => E\n",
        "hypothesis A prior 0.1\nrule A => _-²\n",
        # a comment and its line end end one line, with each line end
        *(f"hypothesis A prior 0.1 # note{end}bogus line\n" for end in _LINE_ENDS),
        *(f"# heading{end}{end}hypothesis A A{end}" for end in _LINE_ENDS),
        # a comment right after a token, and one that ends the text
        "hypothesis A#c prior 0.1\n", "observable E#\nobserve E", "observable E # last",
        "observable E#", "#", "# only a comment", "hypothesis A prior 0.1\n# last\n@",
        # spaces that end no line
        "hypothesis A\x0cprior 0.1\n", "hypothesis A\x85prior 0.1\nbogus\n",
        "hypothesis A prior 0.1\n \nbogus\n", "observable E" + " " * 10_000,
        # numerals that are no letters
        "hypothesis ² prior 0.1\n", "hypothesis Ⅷ prior 0.1\n",
        "hypothesis A-² prior 0.1\n", "hypothesis é²-½ prior 0.1\n",
        "hypothesis A prior ٣.٥\n", "hypothesis A prior ²\n",
        # a lone '+ - < =' anywhere on a line
        "hypothesis A prior +\n", "hypothesis A prior -\n", "rule A = E\n", "fact A - B\n",
        "hypothesis A prior 0.1 +\n", "+ hypothesis\n", "fact (A & B\n<\n",
        # a bad character after an earlier error on its line, and on a later line
        "hypothesis A A @\n", "hypothesis true prior @\n", "gadget @\n",
        "hypothesis A prior 0.1 extra\n@\n",
        # reserved words
        "hypothesis true prior 0.1\n", "rule A & false => E\n", "rule true => E\n",
        "observe !true\n", "fact true & !false\n", "treatment false targets A\n",
        "utility joint when true given A value 1\n",
        # formulas at the depth cap and one level past it
        *(_nested(o, c, MAX_FORMULA_DEPTH) for o, c in _NESTINGS),
        *(_nested(o, c, MAX_FORMULA_DEPTH + 1) for o, c in _NESTINGS),
        *(_nested(o, c, MAX_FORMULA_DEPTH + 1) + " @" for o, c in _NESTINGS),
        "",
        "\n\r\n\r",
    ],
)
def test_edge_cases_read_as_before(text):
    assert_same_reading(text)


def test_fixture_files_read_as_before():
    for path in sorted(FIXTURES.glob("*.fdl")):
        text = path.read_text()
        assert_same_reading(text)
        assert_same_reading(text.replace("\n", "\r\n"))
        assert_same_reading(text.replace("\n", "\r"))


def seeded_model_text(hypotheses: int, seed: int) -> str:
    """A random model of every statement form, with comments and facts that
    use every connective."""
    rng = random.Random(seed)
    names = [f"H{k}" for k in range(hypotheses)]
    lines = [f"# seeded model {seed}"]
    lines += [f"hypothesis {name} prior {rng.randint(1, 300) / 1000}" for name in names]
    lines += ["observable O0", "observable O1  # comment after a statement", "observable F free"]
    for _ in range(2 * hypotheses):
        body = " & ".join(rng.sample(names, rng.randint(1, 3)))
        lines.append(f"rule {body} => O{rng.randint(0, 1)}")
    for spelling in ("<->", "->", "|", "&"):
        a, b, c = rng.sample(names, 3)
        lines.append(f"fact !({a} {spelling} {b}) {spelling} ({c} | true)")
    lines += ["", "observe O0", "observe !O1"]
    fixes = rng.sample(names, 4)
    lines += [f"treatment Fix{name} targets {name}" for name in fixes]
    lines += [
        f"utility Fix{name} treat-faulty {rng.randint(1, 9)} treat-ok -{rng.randint(1, 4)}"
        f" skip-faulty -{rng.randint(1, 9)}.5 skip-ok 0"
        for name in fixes
    ]
    lines.append(f"utility joint when {fixes[0]} & !{fixes[1]} given Fix{fixes[0]} & !Fix{fixes[1]} value -4")
    return "\n".join(lines) + "\n"


def test_seeded_models_read_as_before():
    for seed in range(5):
        text = seeded_model_text(20, seed)
        assert_same_reading(text)
        assert_same_reading(text.replace("\n", "\r\n"))


# --- what the reader scans ---------------------------------------------------


class _CountingPattern:
    """Stands in for the token pattern and records each text it scans."""

    def __init__(self, pattern: re.Pattern):
        self.pattern = pattern
        self.scans: list[tuple[str, str]] = []

    def findall(self, text: str) -> list[str]:
        self.scans.append(("findall", text))
        return self.pattern.findall(text)

    def finditer(self, text: str):
        self.scans.append(("finditer", text))
        return self.pattern.finditer(text)


@pytest.fixture
def scanned(monkeypatch):
    """The texts the token pattern scans, and the line of each column
    lookup."""
    pattern = _CountingPattern(dsl._TOKEN_PATTERN)
    located: list[int] = []
    error_at = dsl._error_at

    def counting(text, line, *args):
        located.append(line)
        return error_at(text, line, *args)

    monkeypatch.setattr(dsl, "_TOKEN_PATTERN", pattern)
    monkeypatch.setattr(dsl, "_error_at", counting)
    return pattern.scans, located


def test_a_valid_text_is_scanned_once_and_locates_nothing(scanned):
    scans, located = scanned
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.fdl"))]
    texts.append(seeded_model_text(20, 1))
    for text in texts:
        dsl.parse_document(text)
    assert scans == [("findall", text) for text in texts]
    assert located == []


@pytest.mark.parametrize("bad", ["hypothesis H99 prior x", "fact (H1 & @", "observe"])
@pytest.mark.parametrize("line", [1, 2, 30])
@pytest.mark.parametrize("end", _LINE_ENDS)
def test_an_error_scans_its_own_line_again_and_no_other(scanned, bad, line, end):
    scans, located = scanned
    lines = seeded_model_text(20, 1).splitlines()[: line - 1] + [bad, "@ after the error", "bogus"]
    text = end.join(lines)
    with pytest.raises(ParseError) as exc_info:
        dsl.parse_document(text)
    assert exc_info.value.span.line == line
    assert located == [line]
    assert scans == [("findall", text), ("finditer", bad)]
