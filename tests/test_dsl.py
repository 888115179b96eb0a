from __future__ import annotations

import functools
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diagnoscope.dsl import (
    MAX_FORMULA_DEPTH,
    Document,
    ParseError,
    assemble_bundle,
    parse_document,
    parse_model_file,
    serialize_bundle,
)
from diagnoscope.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Iff,
    Implies,
    Not,
    Or,
    conjunction,
    disjunction,
)
from diagnoscope.model import (
    AdditiveEntry,
    CausalRule,
    Hypothesis,
    JointEntry,
    ObservableVar,
    TreatmentAction,
)

from .conftest import FIXTURES

CIRCUIT4_TEXT = (FIXTURES / "circuit4.fdl").read_text()


def test_parse_circuit4_fixture():
    bundle = parse_model_file(CIRCUIT4_TEXT)
    assert bundle.findings == ()
    model = bundle.model
    assert [h.id for h in model.hypotheses] == ["A", "B", "C", "D"]
    assert [h.prior for h in model.hypotheses] == [0.016, 0.1, 0.15, 0.1]
    assert [o.id for o in model.observables] == ["E"]
    assert [(r.body, r.head) for r in model.rules] == [
        (("A",), "E"), (("B", "C"), "E"), (("B", "D"), "E"),
    ]
    assert bundle.observations is None
    assert bundle.utility is None
    assert bundle.treatments == ()


def test_semantic_problems_become_findings_not_parse_errors():
    bundle = parse_model_file("hypothesis A prior 1.3\nobservable E\nrule A => E\n")
    assert [f.code for f in bundle.findings] == ["prior-out-of-range"]


def test_dangling_ampersand_is_a_parse_error():
    with pytest.raises(ParseError) as exc_info:
        parse_document("rule B & => E\n")
    error = exc_info.value
    assert "dangling '&'" in error.message
    assert (error.span.line, error.span.column) == (1, 8)
    assert "hypothesis identifier" in error.expected


def test_unknown_keyword_rejected():
    with pytest.raises(ParseError) as exc_info:
        parse_document("gadget X prior 0.5\n")
    assert "unknown keyword" in exc_info.value.message
    assert "hypothesis" in exc_info.value.expected


def test_various_parse_errors():
    for text, fragment in [
        ("hypothesis A prior\n", "prior probability"),
        ("hypothesis true prior 0.5\n", "reserved word"),
        ("observable E spare\n", "'free'"),
        ("rule A -> E\n", "'=>'"),
        ("fact (A & B\n", "')'"),
        ("fact A & & B\n", "unexpected token"),
        ("observe\n", "observable identifier"),
        ("hypothesis A prior 0.5 extra\n", "after statement"),
        ("fact A @ B\n", "unexpected character"),
        ("hypothesis A prior \u00b2\n", "unexpected character"),
        ("hypothesis \u2167 prior 0.1\n", "unexpected character '\u2167'"),
        ("hypothesis A-\u00b2 prior 0.1\n", "unexpected character '-'"),
        ("utility FixA treat-faulty 1 skip-faulty 0 treat-ok -1 skip-ok 0\n", "treat-ok"),
    ]:
        with pytest.raises(ParseError) as exc_info:
            parse_document(text)
        assert fragment in str(exc_info.value) or fragment in exc_info.value.expected


def test_parse_error_spans_point_inside_the_text():
    broken = [
        "rule B & => E\n",
        "fact (A | \n",
        "observe !\n",
        "hypothesis A prior x\n",
        "treatment T targets\n",
        "utility joint when A given value 1\n",
        "% strange\n",
        "hypothesis \u2167 prior 0.1\n",
        "hypothesis A-\u00b2 prior 0.1\n",
    ]
    for text in broken:
        with pytest.raises(ParseError) as exc_info:
            parse_document(text)
        _assert_inside(exc_info.value.span, text)


def _assert_inside(span, text):
    lines = re.split(r"\r\n|\r|\n", text)
    assert 1 <= span.line <= len(lines)
    line = lines[span.line - 1]
    assert 1 <= span.column <= len(line)
    assert span.column + span.length - 1 <= len(line)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(["", "hypothesis ", "rule ", "fact ", "utility joint when "]), st.text())
def test_any_text_parses_or_fails_inside_its_line(statement, text):
    try:
        parse_document(statement + text)
    except ParseError as exc:
        _assert_inside(exc.span, statement + text)


@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_line_feeds_and_carriage_returns_end_lines(separator):
    """Other line separators are whitespace, so line numbers are an editor's."""
    with pytest.raises(ParseError) as exc_info:
        parse_document(f"hypothesis A prior 0.1\n{separator}\nbogus line\n")
    assert (exc_info.value.span.line, exc_info.value.span.column) == (3, 1)
    doc = parse_document(
        f"hypothesis A{separator}prior 0.1  # note {separator} inside\r\n"
        "observable E\rrule A => E\n"
    )
    assert doc.hypotheses == [Hypothesis("A", 0.1)]
    assert doc.observables == [ObservableVar("E")]
    assert doc.rules == [CausalRule(("A",), "E")]


@pytest.mark.parametrize(
    "text, column, character",
    [
        ("hypothesis \u2167 prior 0.1", 12, "\u2167"),  # a numeral, not a letter
        ("hypothesis A-\u00b2 prior 0.1", 13, "-"),  # a hyphen must precede a letter
        ("hypothesis \u00e9\u00b2-\u00bd prior 0.1", 14, "-"),
    ],
)
def test_numerals_are_not_letters(text, column, character):
    with pytest.raises(ParseError) as exc_info:
        parse_document(text)
    error = exc_info.value
    assert (error.span.line, error.span.column, error.span.length) == (1, column, 1)
    assert error.message == f"unexpected character {character!r}"


def test_fact_formula_grammar():
    doc = parse_document(
        "fact !(H1 & H2)\n"
        "fact H1 | H2 & H3\n"
        "fact H1 -> H2 -> H3\n"
        "fact H1 <-> H2 | !H3\n"
        "fact true -> H1\n"
    )
    h1, h2, h3 = Atom("H1"), Atom("H2"), Atom("H3")
    assert doc.facts == [
        Not(And((h1, h2))),
        Or((h1, And((h2, h3)))),
        Implies(h1, Implies(h2, h3)),
        Iff(h1, Or((h2, Not(h3)))),
        Implies(TRUE, h1),
    ]


def test_rule_with_empty_body_and_observe_negation():
    doc = parse_document("rule true => E\nobserve !E\nobserve F\n")
    assert doc.rules[0].body == ()
    assert doc.observations == [("E", False), ("F", True)]


def test_utility_lines():
    doc = parse_document(
        "utility FixA treat-faulty 1 treat-ok -1 skip-faulty -10 skip-ok 0\n"
        "utility joint when A & !D given FixA & !FixD value -2.5\n"
    )
    assert doc.additive == [("FixA", AdditiveEntry(1.0, -1.0, -10.0, 0.0))]
    assert doc.joints == [
        JointEntry((("A", True), ("D", False)), (("FixA", True), ("FixD", False)), -2.5)
    ]


def test_contradictory_observations_become_finding():
    bundle = parse_model_file(
        "hypothesis A prior 0.1\nobservable E\nrule A => E\nobserve E\nobserve !E\n"
    )
    assert [f.code for f in bundle.findings] == ["contradictory-observation"]
    # the first polarity wins
    assert bundle.observations.literals == (("E", True),)


def test_duplicate_utility_entry_finding():
    bundle = parse_model_file(
        "hypothesis A prior 0.1\nobservable E\nrule A => E\n"
        "treatment FixA targets A\n"
        "utility FixA treat-faulty 1 treat-ok -1 skip-faulty 0 skip-ok 0\n"
        "utility FixA treat-faulty 2 treat-ok -2 skip-faulty 0 skip-ok 0\n"
    )
    assert [f.code for f in bundle.findings] == ["duplicate-utility"]
    assert bundle.utility.additive["FixA"].treat_faulty == 1.0


def test_merge_model_with_separate_utility_document():
    model_doc = parse_document(CIRCUIT4_TEXT)
    utility_doc = parse_document((FIXTURES / "fix_unit_gain.fdl").read_text())
    bundle = assemble_bundle([model_doc, utility_doc])
    assert bundle.findings == ()
    assert [t.id for t in bundle.treatments] == ["FixA", "FixB", "FixC", "FixD"]
    assert set(bundle.utility.additive) == {"FixA", "FixB", "FixC", "FixD"}


def test_round_trip_is_structurally_identical():
    text = (
        "hypothesis A prior 0.016\n"
        "hypothesis B prior 0.1\n"
        "observable E\n"
        "observable F free\n"
        "rule A => E\n"
        "rule A & B => E\n"
        "rule true => E\n"
        "fact !(A & B) | (A <-> B)\n"
        "fact A -> B\n"
        "observe E\n"
        "treatment FixA targets A\n"
        "treatment FixB targets B\n"
        "utility FixA treat-faulty 1 treat-ok -1 skip-faulty 0 skip-ok 0\n"
        "utility joint when A & !B given FixA & !FixB value -2.5\n"
    )
    first = parse_model_file(text)
    serialized = serialize_bundle(first)
    second = parse_model_file(serialized)
    assert first == second
    assert serialize_bundle(second) == serialized


def _chains(children, node):
    """Right-associative chains of two to four operands, as the parser builds them."""
    return st.lists(children, min_size=2, max_size=4).map(
        lambda operands: functools.reduce(lambda right, left: node(left, right), reversed(operands))
    )


def _formulas(names):
    def extend(children):
        operands = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            children.map(Not),
            operands.map(conjunction),
            operands.map(disjunction),
            _chains(children, Implies),
            _chains(children, Iff),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        )

    leaves = st.sampled_from([Atom(name) for name in names] + [TRUE, FALSE])
    return st.recursive(leaves, extend, max_leaves=8)


def _literals(names):
    return st.lists(
        st.tuples(st.sampled_from(names), st.booleans()),
        min_size=1, max_size=3, unique_by=lambda literal: literal[0],
    ).map(tuple)


@st.composite
def _bundles(draw):
    # non-ASCII letters, a leading '_' and inner hyphens exercise the identifier rule
    pool = ["H0", "H1", "\u00e9", "_h", "h-\u01c5", "Stra\u00dfe-\u00e42", "x\u00b2"]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    priors = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-05, 5e-324, 1e-100]))
    values = st.floats(allow_nan=False, allow_infinity=False)
    targets = draw(st.lists(st.sampled_from(names), unique=True))
    ids = [f"Fix{name}" for name in targets]
    if ids and draw(st.booleans()):
        ids[0] = "joint"  # its additive line starts like a joint utility line
    treatments = [TreatmentAction(tid, target) for tid, target in zip(ids, targets)]
    joints = []
    if treatments:
        joint = st.builds(
            JointEntry, _literals(names), _literals([t.id for t in treatments]), values
        )
        joints = draw(st.lists(joint, max_size=2))
    document = Document(
        hypotheses=[Hypothesis(name, draw(priors)) for name in names],
        observables=[ObservableVar("E"), ObservableVar("F", free=True)],
        rules=[
            CausalRule(tuple(draw(st.lists(st.sampled_from(names), unique=True))), "E")
            for _ in range(draw(st.integers(1, 3)))
        ],
        facts=draw(st.lists(_formulas(names), max_size=3)),
        observations=draw(st.sampled_from([[], [("E", True)], [("E", False)]])),
        treatments=treatments,
        additive=[
            (t.id, AdditiveEntry(*draw(st.tuples(values, values, values, values))))
            for t in treatments
        ],
        joints=joints,
    )
    return assemble_bundle([document])


@settings(derandomize=True, deadline=None)
@given(_bundles())
def test_round_trip_property(bundle):
    assert parse_model_file(serialize_bundle(bundle)) == bundle


def test_numbers_are_written_as_plain_decimals():
    bundle = parse_model_file(
        "hypothesis A prior 0.00001\nobservable E\nrule A => E\n"
        "treatment FixA targets A\n"
        "utility FixA treat-faulty 100000000000000000000 treat-ok -0.5 skip-faulty 0 skip-ok 1\n"
    )
    text = serialize_bundle(bundle)
    assert "prior 0.00001\n" in text
    assert "treat-faulty 100000000000000000000 treat-ok -0.5 skip-faulty 0.0 skip-ok 1.0" in text
    assert parse_model_file(text) == bundle


def test_numbers_past_the_float_range_round_trip():
    """A literal too large for a float reads as an infinity; it is written
    back as a plain decimal that reads as the same infinity. NaN, which no
    text reads as, is refused."""
    huge = "9" * 400
    bundle = parse_model_file(
        f"hypothesis A prior {huge}\nobservable E\nrule A => E\n"
        "treatment FixA targets A\n"
        f"utility FixA treat-faulty -{huge} treat-ok {huge} skip-faulty 0 skip-ok 1\n"
    )
    assert bundle.model.hypotheses[0].prior == float("inf")
    assert bundle.findings
    text = serialize_bundle(bundle)
    assert f"prior 1{'0' * 309}\n" in text
    assert f"treat-faulty -1{'0' * 309} treat-ok 1{'0' * 309} " in text
    assert parse_model_file(text) == bundle
    nan_prior = replace(bundle.model, hypotheses=(Hypothesis("A", float("nan")),))
    with pytest.raises(ValueError, match="NaN"):
        serialize_bundle(replace(bundle, model=nan_prior))


_NAMED = Document(
    hypotheses=[Hypothesis("A", 0.1)],
    observables=[ObservableVar("E")],
    rules=[CausalRule(("A",), "E")],
    treatments=[TreatmentAction("FixA", "A")],
)


@pytest.mark.parametrize(
    "changes",
    [
        # read back without error as FixA targeting B
        {"treatments": [TreatmentAction("FixA targets B #", "A")]},
        {"treatments": [TreatmentAction("FixA", "A#")]},
        {"facts": [Atom("A#x")]},  # read back as fact A
        {"facts": [Atom("true")]},
        {"hypotheses": [Hypothesis("a b", 0.1)]},
        {"hypotheses": [Hypothesis("true", 0.1)]},
        {"hypotheses": [Hypothesis("1A", 0.1)]},
        {"hypotheses": [Hypothesis("", 0.1)]},
        {"observables": [ObservableVar(" E")]},
        {"rules": [CausalRule(("A", "false"), "E")]},
        {"rules": [CausalRule(("A",), "E-\u00b2")]},
        {"observations": [("!E", True)]},
        {"additive": [("Fix-_A", AdditiveEntry(1, 0, 0, 0))]},
        {"joints": [JointEntry((("A", True),), (("FixA&", False),), 1.0)]},
    ],
)
def test_serializer_refuses_names_that_do_not_read_back(changes):
    bundle = assemble_bundle([replace(_NAMED, **changes)])
    with pytest.raises(ValueError, match="cannot be written as .fdl"):
        serialize_bundle(bundle)


def test_a_treatment_named_joint_round_trips():
    bundle = assemble_bundle([
        replace(
            _NAMED,
            treatments=[TreatmentAction("joint", "A")],
            additive=[("joint", AdditiveEntry(1.0, -1.0, 0.0, 0.0))],
            joints=[JointEntry((("A", True),), (("joint", False),), -2.0)],
        )
    ])
    assert bundle.findings == ()
    text = serialize_bundle(bundle)
    assert "utility joint treat-faulty 1.0 treat-ok -1.0 skip-faulty 0.0 skip-ok 0.0\n" in text
    assert "utility joint when A given !joint value -2.0\n" in text
    assert parse_model_file(text) == bundle


def _bundle_with_fact(fact):
    document = Document(
        hypotheses=[Hypothesis("A", 0.1)],
        observables=[ObservableVar("E")],
        rules=[CausalRule(("A",), "E")],
        facts=[fact],
    )
    return assemble_bundle([document])


def _nested_not(depth):
    fact = Atom("A")
    for _ in range(depth):
        fact = Not(fact)
    return fact


def test_serializer_refuses_facts_nested_deeper_than_the_parser_reads():
    bundle = _bundle_with_fact(_nested_not(MAX_FORMULA_DEPTH))
    assert parse_model_file(serialize_bundle(bundle)) == bundle
    with pytest.raises(ValueError, match="nested deeper than 100 levels"):
        serialize_bundle(_bundle_with_fact(_nested_not(150)))


def test_round_trip_holds_for_the_parsers_normal_form():
    nested = _bundle_with_fact(And((And((Atom("A"), Atom("A"))), Atom("A"))))
    reparsed = parse_model_file(serialize_bundle(nested))
    assert reparsed.model.extra_facts == (And((Atom("A"), Atom("A"), Atom("A"))),)
    assert parse_model_file(serialize_bundle(reparsed)) == reparsed


def test_round_trip_all_fixture_files():
    for path in sorted(FIXTURES.glob("*.fdl")):
        first = parse_model_file(path.read_text())
        second = parse_model_file(serialize_bundle(first))
        assert first == second, path.name


def test_comments_and_blank_lines_ignored():
    bundle = parse_model_file(
        "# heading comment\n\nhypothesis A prior 0.1  # trailing\n\nobservable E\nrule A => E\n"
    )
    assert bundle.findings == ()
    assert [h.id for h in bundle.model.hypotheses] == ["A"]


def test_hyphenated_identifiers_survive():
    doc = parse_document("hypothesis pump-stuck prior 0.2\n")
    assert doc.hypotheses[0].id == "pump-stuck"
    for name in ("_h", "\u00e9\u00b2", "h-\u01c5", "a_-b", "x1-y2-z"):
        assert parse_document(f"hypothesis {name} prior 0.2\n").hypotheses[0].id == name


@pytest.mark.parametrize(
    "opening, closing", [("(", ")"), ("!", ""), ("A -> ", ""), ("A <-> ", "")]
)
def test_formula_nesting_depth_is_capped(opening, closing):
    def fact(depth: int) -> str:
        return f"hypothesis A prior 0.1\nfact {opening * depth}A{closing * depth}\n"

    parse_document(fact(MAX_FORMULA_DEPTH))
    for depth in (MAX_FORMULA_DEPTH + 1, 3000):
        with pytest.raises(ParseError) as exc_info:
            parse_document(fact(depth))
        error = exc_info.value
        assert "nested deeper than" in error.message
        # the error points at the first '(', '!' or chain operator beyond the cap
        token = opening.strip("A ")
        column = 6 + MAX_FORMULA_DEPTH * len(opening) + opening.index(token)
        assert (error.span.line, error.span.column, error.span.length) == (2, column, len(token))
