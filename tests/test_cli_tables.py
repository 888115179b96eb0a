"""Table answers against reference renderers that build every row.

The CLI writes the row-sized tables (the rankings, ``interpretations`` and
``cover``) one row at a time, with column widths worked out before the
first row. The references here lay out the same tables as lists of cells
padded to the widest cell of each column, with each row decoded through
the public API, and the two must agree byte for byte.
"""

from __future__ import annotations

import itertools
import random

import pytest

from diagnoscope import ObservationSet, parse_model_file
from diagnoscope.cli import run_cli
from diagnoscope.errors import DiagnoscopeError
from diagnoscope.model import interpretation_at
from diagnoscope.probability import Query, covering_mass_set
from diagnoscope.strategies import _RANKERS, Strategy

from .conftest import assert_same_text


def _table(rows: list[list[str]], right_align: set[int]) -> list[str]:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.rjust(widths[col]) if col in right_align else cell.ljust(widths[col])
            for col, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _interpretation_text(model, index: int) -> str:
    interpretation = interpretation_at(model, index)
    return " ".join(name if value else f"!{name}" for name, value in zip(interpretation.ids, interpretation.values))


def _fault_set_text(model, fault_set) -> str:
    return "{" + ",".join(sorted(fault_set, key=model.hypothesis_index.__getitem__)) + "}"


def _ranking_reference(model, ranking, evidence: float) -> str:
    lines = [f"strategy: {ranking.strategy.value}", f"evidence probability: {evidence:.6f}"]
    candidates = tuple(ranking.candidates)
    if not candidates:
        return "\n".join(lines + ["no candidates"]) + "\n"
    if ranking.strategy is Strategy.MPE:
        def text(candidate):
            # With no hypotheses the interpretation text is empty: "[0]".
            return f"[{candidate.index}] {_interpretation_text(model, candidate.index)}".rstrip()
    else:
        def text(candidate):
            return _fault_set_text(model, candidate.fault_set)
    rows = [["rank", "candidate", "score"]]
    for rank, candidate in enumerate(candidates, start=1):
        rows.append([str(rank), text(candidate), f"{candidate.score:.4f}"])
    lines.extend(_table(rows, right_align={0, 2}))
    lines.append(f"leader: {text(ranking.leader)}")
    if len(ranking.ties) > 1:
        lines.append("ties: " + " ".join(text(c) for c in ranking.ties))
    return "\n".join(lines) + "\n"


def _interpretations_reference(model, table) -> str:
    rows = [["index", "interpretation", "posterior"]]
    for index, posterior in enumerate(table.posteriors):
        rows.append([str(index), _interpretation_text(model, index), f"{posterior:.4f}"])
    lines = [f"evidence probability: {table.evidence_probability:.6f}"]
    return "\n".join(lines + _table(rows, right_align={0, 2})) + "\n"


def _cover_reference(model, table, mass: str) -> str:
    prefix = covering_mass_set(table, float(mass))
    posteriors = [table.posteriors[index] for index in prefix]
    cumulative = itertools.accumulate(posteriors)
    rows = [["rank", "index", "interpretation", "posterior", "cumulative"]]
    for rank, (index, posterior, cum) in enumerate(zip(prefix, posteriors, cumulative), start=1):
        text = _interpretation_text(model, index)
        rows.append([str(rank), str(index), text, f"{posterior:.4f}", f"{cum:.4f}"])
    lines = [f"evidence probability: {table.evidence_probability:.6f}", f"mass: {float(mass)}"]
    return "\n".join(lines + _table(rows, right_align={0, 1, 3, 4})) + "\n"


def _seeded(m: int, seed: int, names: list[str] | None = None) -> str:
    """m hypotheses with mixed priors (one 0 and one 1 when m >= 4), rules
    onto E, F and G, and a fact."""
    rng = random.Random(seed)
    names = names or [f"H{k}" for k in range(m)]
    priors = [rng.choice(("0.01", "0.05", "0.1", "0.2", "0.3", "0.5")) for _ in names]
    if m >= 4:
        priors[1], priors[3] = "0", "1"
    lines = [f"hypothesis {name} prior {prior}" for name, prior in zip(names, priors)]
    lines += ["observable E", "observable F", "observable G"]
    for head in "EFG":
        for _ in range(3):
            lines.append(f"rule {' & '.join(rng.sample(names, rng.randint(1, min(2, m))))} => {head}")
    lines.append(f"fact !{names[0]} | !{names[-1]}")
    return "\n".join(lines) + "\n"


_MIXED_NAMES = ["A", "Pumpe_ü", "valve_stuck_open", "x2", "B", "sensor_drift", "é", "Q7", "relay", "w"]

# name -> (model text, observation literals)
_MODELS = {
    "no hypotheses": ("observable E free\n", ()),
    "one hypothesis": ("hypothesis Überdruck prior 0.2\nobservable E\nrule Überdruck => E\n", ("E",)),
    "one hypothesis, negative": ("hypothesis A prior 0.2\nobservable E\nrule A => E\n", ("!E",)),
    "equal priors": (
        "".join(f"hypothesis {name} prior 0.5\n" for name in _MIXED_NAMES[:3]) + "observable E free\n",
        (),
    ),
    "equal priors, m = 10": (
        "".join(f"hypothesis {name} prior 0.5\n" for name in _MIXED_NAMES)
        + "observable E\nrule A => E\nrule B & x2 => E\n",
        ("E",),
    ),
    "priors 0 and 1": (
        "hypothesis A prior 0\nhypothesis Bb prior 1\nhypothesis Ccc prior 0.3\n"
        "observable E\nrule Bb => E\nrule Ccc => E\n",
        ("E",),
    ),
    "mixed names, m = 10": (_seeded(10, 10, _MIXED_NAMES), ("E", "!F")),
    "m = 11": (_seeded(11, 11), ("E", "F")),
    "m = 12": (_seeded(12, 12), ("!G",)),
}

_ARGVS = [
    *(("diagnose", "--strategy", strategy.value) for strategy in Strategy),
    ("interpretations",),
    ("cover", "--mass", "0.5"),
    ("cover", "--mass", "1"),
]


def _reference(argv: tuple[str, ...], text: str, observed: tuple[str, ...]) -> str | None:
    """The reference table, or None where the query fails."""
    query = Query(parse_model_file(text).model, ObservationSet.of(*observed))
    try:
        table = query.table
        if argv[0] == "interpretations":
            return _interpretations_reference(query.model, table)
        if argv[0] == "cover":
            return _cover_reference(query.model, table, argv[2])
        ranking = _RANKERS[Strategy(argv[2])](query)
    except DiagnoscopeError:
        return None
    return _ranking_reference(query.model, ranking, table.evidence_probability)


# 2^17 rows: the rank and index columns are wider than their titles.
_WIDE = ("hypothesis A prior 0.2\n" + "".join(f"hypothesis Q{k} prior 0.1\n" for k in range(16))
         + "observable E\nrule A => E\nrule Q3 & Q15 => E\n", ("E",))
_WIDE_ARGVS = [("diagnose", "--strategy", "mpe"), ("interpretations",), ("cover", "--mass", "1")]


@pytest.mark.parametrize(
    "name, argv",
    [(name, argv) for name in _MODELS for argv in _ARGVS] + [("m = 17", argv) for argv in _WIDE_ARGVS],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else value,
)
def test_tables_match_the_reference(capsys, tmp_path, name, argv):
    text, observed = _MODELS[name] if name in _MODELS else _WIDE
    path = tmp_path / "model.fdl"
    path.write_text(text, encoding="utf-8")
    observe = [arg for literal in observed for arg in ("--observe", literal)]
    code = run_cli([argv[0], str(path), *argv[1:], *observe])
    out = capsys.readouterr().out
    expected = _reference(argv, text, observed)
    if expected is None:
        assert code == 1 and out == ""
        return
    assert code == 0
    assert_same_text(out, expected)


def test_the_models_reach_the_edges():
    """Every row ties under equal priors, and the seeded models keep more
    than one live row after their fact and observations."""
    for name in ("equal priors", "equal priors, m = 10"):
        text, observed = _MODELS[name]
        query = Query(parse_model_file(text).model, ObservationSet.of(*observed))
        ranking = _RANKERS[Strategy.MPE](query)
        live = sum(1 for p in query.table.posteriors if p > 0.0)
        assert len(ranking.ties) == live > 1
    for name in ("mixed names, m = 10", "m = 11", "m = 12"):
        text, observed = _MODELS[name]
        table = Query(parse_model_file(text).model, ObservationSet.of(*observed)).table
        assert sum(1 for p in table.posteriors if p > 0.0) > 1


# 2^14 rows that all tie: the MPE ties line is as long as the table.
_TIED = "".join(f"hypothesis H{k} prior 0.5\n" for k in range(14)) + "observable E free\n"


@pytest.mark.parametrize("argv", _WIDE_ARGVS, ids=" ".join)
def test_tables_are_written_in_chunks(monkeypatch, tmp_path, argv):
    """No write carries the whole text, and no write the whole MPE ties
    line: the rows and the tied labels go out a few thousand at a time."""
    path = tmp_path / "model.fdl"
    path.write_text(_TIED)
    writes: list[str] = []

    class Recorder:
        def write(self, text: str) -> int:
            writes.append(text)
            return len(text)

    monkeypatch.setattr("sys.stdout", Recorder())
    assert run_cli([argv[0], str(path), *argv[1:]]) == 0
    text = "".join(writes)
    assert_same_text(text, _reference(argv, _TIED, ()))
    assert max(map(len, writes)) < len(text) / 4
    if argv[0] == "diagnose":
        ties = text.splitlines()[-1]
        assert ties.startswith("ties: ") and len(ties) > len(text) / 3


@pytest.mark.parametrize(
    "argv",
    [
        ("diagnose", "--strategy", "mpe", "--observe", "E"),
        ("interpretations", "--observe", "E"),
        ("cover", "--mass", "0.5", "--observe", "E"),
        ("cover", "--mass", "2", "--observe", "!E"),
    ],
    ids=" ".join,
)
def test_failing_table_query_writes_nothing(capsys, tmp_path, argv):
    """An impossible observation or a mass outside (0, 1] fails before the
    first byte of the table."""
    path = tmp_path / "model.fdl"
    path.write_text("hypothesis A prior 0\nobservable E\nrule A => E\n")
    code = run_cli([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
