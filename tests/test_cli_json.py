"""``--format json`` output: the writer against ``json.dumps(..., indent=2)``.

The writer spells small payloads with a recursive walk and row-sized lists
from per-row templates. Both must give exactly the bytes that
``print(json.dumps(payload, indent=2))`` gives. Every failing query writes
nothing to stdout.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from diagnoscope import ObservationSet, compare_strategies, diagnose_mpe, parse_model_file
from diagnoscope.cli import _numbers, _print_json, run_cli
from diagnoscope.model import interpretation_at
from diagnoscope.probability import covering_mass_set, posterior_table
from diagnoscope.strategies import Strategy

from .conftest import FIXTURES

CIRCUIT4 = str(FIXTURES / "circuit4.fdl")


def written(payload: object) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _print_json(payload) == 0
    return out.getvalue()


def dumped(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the writer on generated payloads

_HARD_CHARACTERS = '"\\/\x00\x08\t\n\x1f\x7f\x80é \ud800€\U0001f600'
_TEXTS = st.text(st.characters() | st.sampled_from(_HARD_CHARACTERS), max_size=8)
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf, 1e16, 0.1])
_INTS = st.integers() | st.sampled_from([2**64, -(2**63) - 1, 10**40])
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXTS


def _containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(_TEXTS, children, max_size=4)


_PAYLOADS = st.recursive(_SCALARS, _containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert written(payload) == dumped(payload)


def _pairs(children):
    """(written form, dumped form) of a list or dict of pairs."""
    lists = st.lists(children, max_size=4).map(
        lambda items: ([a for a, _ in items], [b for _, b in items])
    )
    dicts = st.dictionaries(_TEXTS, children, max_size=4).map(
        lambda d: ({k: a for k, (a, _) in d.items()}, {k: b for k, (_, b) in d.items()})
    )
    return lists | dicts


# Leaves are scalars, or lists of floats that the writer gets as row-sized
# lists (_numbers) and json.dumps as plain lists, at any depth and empty too.
_ROW_PAIRS = st.recursive(
    _SCALARS.map(lambda x: (x, x)) | st.lists(_FLOATS, max_size=5).map(lambda xs: (_numbers(xs), xs)),
    _pairs,
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_ROW_PAIRS)
def test_row_sized_lists_match_json_dumps(pair):
    rows, plain = pair
    assert written(rows) == dumped(plain)


def test_rows_are_written_in_chunks(monkeypatch):
    """No write carries the whole text: the rows go out a few thousand at
    a time."""
    writes: list[str] = []

    class Recorder:
        def write(self, text: str) -> int:
            writes.append(text)
            return len(text)

    monkeypatch.setattr("sys.stdout", Recorder())
    values = [k / 7 for k in range(20_000)]
    _print_json({"values": _numbers(values), "tail": [1.5, None]})
    text = "".join(writes)
    assert text == dumped({"values": values, "tail": [1.5, None]})
    assert max(map(len, writes)) < len(text) / 4


# ---------------------------------------------------------------------------
# the row templates on a model with 2^12 rows, against the parent's payloads


def _wide_model(seed: int = 12) -> str:
    """12 hypotheses (one with a non-ASCII name), rules onto E, F and G, a
    fact, and treatments with a joint utility term."""
    rng = random.Random(seed)
    names = [f"H{k}" for k in range(11)] + ["Pumpe_ü"]
    lines = [f"hypothesis {name} prior {rng.choice(('0.05', '0.1', '0.2', '0.3'))}" for name in names]
    lines += ["observable E", "observable F", "observable G"]
    for head in "EFG":
        for _ in range(3):
            lines.append(f"rule {' & '.join(rng.sample(names, rng.randint(1, 2)))} => {head}")
    lines.append(f"fact !{names[0]} | !{names[1]}")
    for name in names[:3]:
        lines.append(f"treatment Fix{name} targets {name}")
        lines.append(f"utility Fix{name} treat-faulty 2 treat-ok -1 skip-faulty -3 skip-ok 0")
    lines.append(f"utility joint when {names[2]} given Fix{names[0]} & Fix{names[1]} value 1")
    return "\n".join(lines) + "\n"


def _fault_list(model, fault_set) -> list[str]:
    return sorted(fault_set, key=model.hypothesis_index.__getitem__)


def _ranking_reference(model, ranking) -> dict:
    payload = {
        "strategy": ranking.strategy.value,
        "candidates": [_fault_list(model, c.fault_set) for c in ranking.candidates],
        "scores": [c.score for c in ranking.candidates],
        "leader": _fault_list(model, ranking.leader.fault_set) if ranking.leader is not None else None,
        "ties": [_fault_list(model, c.fault_set) for c in ranking.ties],
        "rounded": {"scores": [round(c.score, 4) for c in ranking.candidates]},
    }
    if ranking.strategy is Strategy.MPE:
        payload["indices"] = [c.index for c in ranking.candidates]
    return payload


def _treatment_reference(decision) -> dict | None:
    if decision is None:
        return None
    breakdown = decision.per_treatment_breakdown
    return {
        "chosen": sorted(decision.chosen),
        "expected_utility": decision.expected_utility,
        "breakdown": breakdown,
        "rounded": {
            "expected_utility": round(decision.expected_utility, 4),
            "breakdown": {t: round(v, 4) for t, v in breakdown.items()} if breakdown is not None else None,
        },
    }


def _reference(command: str, bundle, observations: ObservationSet) -> dict:
    """The payload of ``command``, built as dicts and lists from the
    public API, one per row where the answer has rows."""
    model = bundle.model
    table = posterior_table(model, observations)
    evidence = table.evidence_probability
    if command == "interpretations":
        return {
            "evidence_probability": evidence,
            "entries": [
                {
                    "index": index,
                    "assignment": dict(zip(model.hypothesis_ids, interpretation_at(model, index).values)),
                    "posterior": posterior,
                }
                for index, posterior in enumerate(table.posteriors)
            ],
            "rounded": {
                "evidence_probability": round(evidence, 4),
                "posteriors": [round(p, 4) for p in table.posteriors],
            },
        }
    if command == "mpe":
        payload = _ranking_reference(model, diagnose_mpe(model, observations))
        payload["evidence_probability"] = evidence
        payload["rounded"]["evidence_probability"] = round(evidence, 4)
        return payload
    if command == "cover":
        prefix = covering_mass_set(table, 1.0)
        posteriors = [table.posteriors[i] for i in prefix]
        cumulative = list(itertools.accumulate(posteriors))
        return {
            "mass": 1.0,
            "evidence_probability": evidence,
            "entries": [
                {"index": i, "posterior": p, "cumulative": c}
                for i, p, c in zip(prefix, posteriors, cumulative)
            ],
            "rounded": {
                "evidence_probability": round(evidence, 4),
                "posteriors": [round(p, 4) for p in posteriors],
                "cumulative": [round(c, 4) for c in cumulative],
            },
        }
    report = compare_strategies(model, observations, bundle.utility, bundle.treatments)
    return {
        "strategies": [_ranking_reference(model, ranking) for _, ranking in report.rankings],
        "evidence_probability": evidence,
        "leaders": {label: _fault_list(model, s) for label, s in report.leaders},
        "failures": dict(report.failures),
        "disagreements": [list(pair) for pair in report.disagreements],
        "agreement": report.agreement,
        "treatment": _treatment_reference(report.treatment),
        "rounded": {"evidence_probability": round(evidence, 4)},
    }


_COMMANDS_WITH_ROWS = [
    ("interpretations", ("interpretations",)),
    ("mpe", ("diagnose", "--strategy", "mpe")),
    ("all", ("diagnose", "--strategy", "all")),
    ("cover", ("cover", "--mass", "1")),
]


def _answer(capsys, tmp_path, text: str, argv: tuple[str, ...], observed: tuple[str, ...]) -> str:
    path = tmp_path / "model.fdl"
    path.write_text(text, encoding="utf-8")
    observe = [arg for literal in observed for arg in ("--observe", literal)]
    code = run_cli([argv[0], str(path), *argv[1:], *observe, "--format", "json"])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command, argv", _COMMANDS_WITH_ROWS)
def test_row_templates_match_json_dumps(capsys, tmp_path, command, argv):
    text = _wide_model()
    out = _answer(capsys, tmp_path, text, argv, ("E", "!F"))
    expected = _reference(command, parse_model_file(text), ObservationSet.of("E", "!F"))
    assert out == dumped(expected)
    if command == "all":
        # The abductive ranker refuses the negative observation.
        assert "abductive" in expected["failures"]
        assert len(expected["strategies"][2]["candidates"]) == 1 << 12


@pytest.mark.parametrize("command, argv", _COMMANDS_WITH_ROWS)
def test_row_templates_without_hypotheses(capsys, tmp_path, command, argv):
    """One row, whose assignment and fault set are empty: {} and []."""
    text = "observable E free\n"
    out = _answer(capsys, tmp_path, text, argv, ())
    assert out == dumped(_reference(command, parse_model_file(text), ObservationSet()))


# ---------------------------------------------------------------------------
# failing queries write nothing

_UTILITY = "treatment FixA targets A\nutility FixA treat-faulty 1 treat-ok -1 skip-faulty 0 skip-ok 0\n"
_MODELS = {
    "impossible": "hypothesis A prior 0\nobservable E\nrule A => E\n" + _UTILITY,
    "finding": "hypothesis A prior 0.1\nobservable E\nobservable F\nrule A => E\n" + _UTILITY,
    "unparsable": "hypothesis A prior\n",
}
_COMMANDS = [
    ("interpretations",),
    *(("diagnose", "--strategy", s.value) for s in Strategy),
    ("diagnose", "--strategy", "all"),
    ("cover", "--mass", "0.5"),
    ("treat",),
]


@pytest.mark.parametrize("failure", ["impossible", "finding", "unparsable", "missing", "unknown atom"])
@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
def test_failing_json_query_writes_nothing(capsys, tmp_path, command, failure):
    """A zero-probability observation, a validation finding, a parse error,
    a missing file and an unknown observable fail every command before
    its first byte."""
    path = tmp_path / "model.fdl"
    if failure in _MODELS:
        path.write_text(_MODELS[failure])
    observe = "Z" if failure == "unknown atom" else "E"
    model = CIRCUIT4 if failure == "unknown atom" else str(path)
    argv = [command[0], model, *command[1:], "--observe", observe, "--format", "json"]
    if command[0] == "treat" and failure == "unknown atom":
        argv += ["--utility", str(FIXTURES / "fix_unit_gain.fdl")]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert captured.out == ""
    assert captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("cover", CIRCUIT4, "--observe", "E", "--mass", "2"),
        ("cover", CIRCUIT4, "--observe", "E", "--mass", "nan"),
        ("cover", CIRCUIT4, "--observe", "E", "--mass", "-1"),
        ("treat", CIRCUIT4, "--observe", "E"),
        ("diagnose", CIRCUIT4, "--observe", "!E", "--strategy", "abductive"),
        ("interpretations", CIRCUIT4, "--observe", "E", "--observe", "!E"),
    ],
)
def test_failing_query_of_one_command_writes_nothing(capsys, argv):
    code = run_cli([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
