"""Command-line interface.

Subcommands: ``check`` (validate a model file), ``interpretations`` (print
the posterior table), ``diagnose`` (rank candidates under one or all
strategies), ``treat`` (optimize a treatment set), and ``cover`` (smallest
set of interpretations reaching a posterior mass).

Exit codes: 0 success, 1 domain errors (validation findings, impossible
observations, ...), 2 usage, file or parse errors. Results go to stdout,
diagnostics to stderr; output is byte-identical across runs on identical
inputs. Tables round probabilities to 4 decimals; ``--format json`` adds
full-precision values alongside the rounded ones, and is written exactly
as ``json.dumps(payload, indent=2)`` spells it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import sys
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .decision import TreatmentDecision, optimal_treatment
from .dsl import Document, ParseError, ParsedBundle, assemble_bundle, parse_document
from .errors import DiagnoscopeError
from .model import FaultModel, ObservationSet
from .probability import PosteriorTable, Query, covering_mass_set
from .strategies import (
    _RANKERS,
    Candidate,
    RankedDiagnoses,
    RowCandidates,
    Strategy,
    StrategyReport,
    _compare,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagnoscope",
        description="Diagnose propositional fault models and optimize treatments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="model file (.fdl)")
        p.add_argument(
            "--observe",
            action="append",
            default=[],
            metavar="LIT",
            help="observation literal, e.g. E or !E; overrides file observations",
        )
        p.add_argument(
            "--format", choices=("table", "json"), default="table", dest="fmt"
        )

    p_check = sub.add_parser("check", help="parse and validate a model file")
    p_check.add_argument("file", help="model file (.fdl)")

    p_interp = sub.add_parser("interpretations", help="print the posterior table")
    add_common(p_interp)

    p_diag = sub.add_parser("diagnose", help="rank diagnosis candidates")
    add_common(p_diag)
    p_diag.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy] + ["all"],
        required=True,
    )

    p_treat = sub.add_parser("treat", help="choose the treatment set maximizing expected utility")
    add_common(p_treat)
    p_treat.add_argument(
        "--utility",
        metavar="FILE",
        help="extra file with treatment and utility declarations",
    )

    p_cover = sub.add_parser("cover", help="smallest interpretation set reaching a posterior mass")
    add_common(p_cover)
    p_cover.add_argument("--mass", type=float, required=True)
    return parser


# One parser per process: parse_args returns a new namespace, the parser is unchanged.
_PARSER = build_parser()


def run_cli(argv: list[str]) -> int:
    """Answer one query: the answer goes to stdout, diagnostics to stderr,
    and the exit code is returned. Every check runs before the first byte
    of the answer is written, so a query that fails writes nothing to
    stdout; a table or JSON answer is then written in chunks of rows
    (``_write_each``). The cyclic collector is paused while a query runs
    and its youngest generation collected once when it returns. A query
    allocates container objects (parsed statements, formula nodes, the
    searches' fault sets) that live until it returns; unpaused, the
    collector passes over them a varying number of times mid-query,
    which costs small queries more than the one collection does. The
    collection also frees the reference cycles argparse leaves behind
    after a usage error or ``--help``."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _answer(argv)
    finally:
        if collecting:
            gc.collect(0)
            gc.enable()


def _answer(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _dispatch(args)
    except ParseError as exc:
        path = getattr(exc, "filename", args.file)
        print(
            f"{path}:{exc.span.line}:{exc.span.column}: parse error: {exc.message}",
            file=sys.stderr,
        )
        return 2
    except UnicodeDecodeError as exc:
        print(f"{exc.filename}: error: {exc}", file=sys.stderr)
        return 2
    except (DiagnoscopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def _parse_file(path: str) -> Document:
    try:
        return parse_document(Path(path).read_text(encoding="utf-8"))
    except (ParseError, UnicodeDecodeError) as exc:
        exc.filename = path
        raise


def _load_bundle(args: argparse.Namespace) -> ParsedBundle:
    documents = [_parse_file(args.file)]
    extra = getattr(args, "utility", None)
    if extra:
        documents.append(_parse_file(extra))
    return assemble_bundle(documents)


def _gate_findings(bundle: ParsedBundle) -> bool:
    if not bundle.findings:
        return False
    for finding in bundle.findings:
        print(f"finding: {finding.message}", file=sys.stderr)
    return True


def _observations(args: argparse.Namespace, bundle: ParsedBundle) -> ObservationSet:
    if args.observe:
        return ObservationSet.of(*args.observe)
    return bundle.observations if bundle.observations is not None else ObservationSet()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "check":
        return _cmd_check(args)
    bundle = _load_bundle(args)
    if _gate_findings(bundle):
        return 1
    observations = _observations(args, bundle)
    if args.command == "treat":
        return _cmd_treat(args, bundle, observations)
    # The other commands answer one query, whose table is built before
    # anything else so that its errors take precedence.
    query = Query(bundle.model, observations)
    table = query.table
    if args.command == "interpretations":
        return _cmd_interpretations(args, table)
    if args.command == "diagnose":
        return _cmd_diagnose(args, bundle, query)
    if args.command == "cover":
        return _cmd_cover(args, table)
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_check(args: argparse.Namespace) -> int:
    bundle = assemble_bundle([_parse_file(args.file)])
    if bundle.findings:
        for finding in bundle.findings:
            print(finding.message)
        return 1
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# rendering helpers


def _braced(names: list[str]) -> str:
    return "{" + ",".join(names) + "}"


def _fault_set_list(model: FaultModel, fault_set: frozenset[str]) -> list[str]:
    order = model.hypothesis_index
    return sorted(fault_set, key=lambda name: order[name])


def _fault_set_text(model: FaultModel, fault_set: frozenset[str]) -> str:
    return _braced(_fault_set_list(model, fault_set))


def _row_text(choices: list[tuple[str, str]]) -> Callable[[int], str]:
    """The text of a row from its index: per hypothesis, in declaration
    order, the first of its ``choices`` where it is faulty and the second
    where it is normal. The text is looked up in two tables of half-row
    texts, each in itertools.product order: one for the first hypotheses
    (the high bits of the index) and one for the rest."""
    low = len(choices) // 2
    high_texts = ["".join(row) for row in itertools.product(*choices[: len(choices) - low])]
    low_texts = ["".join(row) for row in itertools.product(*choices[len(choices) - low :])]
    mask = (1 << low) - 1
    return lambda index: high_texts[index >> low] + low_texts[index & mask]


def _interpretation_text(model: FaultModel) -> Callable[[int], str]:
    """A row's interpretation text from its index: ``A !B ...``."""
    return _row_text(
        [(f" {name}", f" !{name}") if k else (name, f"!{name}") for k, name in enumerate(model.hypothesis_ids)]
    )


def _interpretation_width(model: FaultModel, normal: int) -> int:
    """The length of an interpretation text with ``normal`` hypotheses
    normal: the names, one space between each two and a ``!`` per normal
    one. A row index has one bit set per normal hypothesis."""
    ids = model.hypothesis_ids
    return sum(map(len, ids)) + max(len(ids) - 1, 0) + normal


def _dollars(value: float) -> str:
    text = f"{value:.4f}"
    return f"-${text[1:]}" if text.startswith("-") else f"${text}"


def _layout(columns: list[tuple[str, str, int]]) -> tuple[str, str]:
    """The header line and the %-template of the rows of a table, each
    column as wide as its title or its widest value and two spaces apart,
    so that rows can be written one at a time. A column is (title,
    conversion, width of its widest value): conversion ``-s`` is text,
    left-aligned; ``s``, ``d`` and ``.4f`` are right-aligned. A probability
    in [0, 1] is 6 characters wide as ``.4f``. Every table ends in a
    right-aligned column, so no line ends in spaces."""
    widths = [max(len(title), width) for title, _, width in columns]
    header = "  ".join(
        title.ljust(width) if conversion == "-s" else title.rjust(width)
        for (title, conversion, _), width in zip(columns, widths)
    )
    template = "  ".join(
        f"%-{width}s" if conversion == "-s" else f"%{width}{conversion}"
        for (_, conversion, _), width in zip(columns, widths)
    )
    return header, template


def _print(text: str) -> int:
    print(text)
    return 0


# ---------------------------------------------------------------------------
# JSON


class _Rows:
    """A row-sized list in a JSON payload, which ``_print_json`` writes
    without building it: ``items(newline)`` yields the text of each item,
    given the newline and indent that come before it."""

    __slots__ = ("items",)

    def __init__(self, items: Callable[[str], Iterator[str]]):
        self.items = items


# Rows of a table or items of a _Rows written to stdout in one call.
_ROWS_PER_WRITE = 4096


def _write_each(write: Callable[[str], object], items: Iterator[str], separator: str) -> None:
    """Write ``separator`` before each item, a few thousand items per write."""
    while batch := list(itertools.islice(items, _ROWS_PER_WRITE)):
        write(separator + separator.join(batch))


def _print_json(payload: object) -> int:
    """Print ``payload`` exactly as ``print(json.dumps(payload, indent=2))``
    would, each ``_Rows`` as the list it stands for. Dict keys are strings.
    The text goes to stdout in chunks, so it is never built as one string:
    the rows a few thousand at a time, the small parts around them as a
    row-sized list is reached and at the end."""
    write = sys.stdout.write
    parts: list[str] = []
    _encode(payload, "\n", parts, write)
    parts.append("\n")
    write("".join(parts))
    return 0


def _encode(value: object, newline: str, parts: list[str], write: Callable[[str], object]) -> None:
    """Append the text of ``value`` to ``parts``; ``newline`` is the newline
    and indent of its own lines. The scalars are spelled by the json
    module's own rules, checked in its order."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            parts.append(separator + encode_basestring_ascii(key) + ": ")
            _encode(item, inner, parts, write)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _encode(item, inner, parts, write)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, _Rows):
        inner = newline + "  "
        items = value.items(inner)
        first = next(items, None)
        if first is None:
            parts.append("[]")
            return
        parts.append("[" + inner + first)
        write("".join(parts))
        parts.clear()
        _write_each(write, items, "," + inner)
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    """A float as json spells it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _numbers(values: Iterable[float]) -> _Rows:
    """A row-sized list of floats."""
    return _Rows(lambda newline: map(_float_text, values))


def _entry_items(model: FaultModel, posteriors: Sequence[float], newline: str) -> Iterator[str]:
    """The interpretation entries, one dict per row, each from one template.
    Every hypothesis has one assignment line per value, and a row's
    assignment is looked up by its index (_row_text)."""
    field = newline + "  "
    line = field + "  "
    choices = [
        (f"{line}{key}: true", f"{line}{key}: false")
        for key in map(encode_basestring_ascii, model.hypothesis_ids)
    ]
    # Every line after the first opens with the comma that ends the one before.
    choices[1:] = [("," + true, "," + false) for true, false in choices[1:]]
    assignment_text = _row_text(choices)
    # With no hypotheses the one row's assignment is "{}" and its text "".
    assignment = "{%s" + field + "}" if choices else "{}%s"
    template = (
        "{" + field + '"index": %d,' + field + '"assignment": ' + assignment + ","
        + field + '"posterior": %s' + newline + "}"
    )
    return (
        template % (index, assignment_text(index), _float_text(posterior))
        for index, posterior in enumerate(posteriors)
    )


def _fault_set_items(model: FaultModel, indices: Iterable[int], newline: str) -> Iterator[str]:
    """The fault set of each row as a JSON list, from its index: every
    hypothesis has one line where it is faulty and none where it is normal."""
    line = newline + "  "
    text = _row_text([("," + line + key, "") for key in map(encode_basestring_ascii, model.hypothesis_ids)])
    for index in indices:
        names = text(index)
        # names[1:] drops the comma before the first name.
        yield "[" + names[1:] + newline + "]" if names else "[]"


def _cover_items(
    prefix: list[int], posteriors: list[float], cumulative: list[float], newline: str
) -> Iterator[str]:
    """The cover entries, one dict per row, each from one template."""
    field = newline + "  "
    template = (
        "{" + field + '"index": %d,' + field + '"posterior": %s,'
        + field + '"cumulative": %s' + newline + "}"
    )
    return (
        template % (index, _float_text(posterior), _float_text(cum))
        for index, posterior, cum in zip(prefix, posteriors, cumulative)
    )


# ---------------------------------------------------------------------------
# interpretations


def _cmd_interpretations(args: argparse.Namespace, table: PosteriorTable) -> int:
    model = table.theory.model
    if args.fmt == "json":
        posteriors = table.posteriors
        payload = {
            "evidence_probability": table.evidence_probability,
            "entries": _Rows(partial(_entry_items, model, posteriors)),
            "rounded": {
                "evidence_probability": round(table.evidence_probability, 4),
                "posteriors": _numbers(round(posterior, 4) for posterior in posteriors),
            },
        }
        return _print_json(payload)
    count = len(table.posteriors)
    header, row = _layout(
        [
            ("index", "d", len(str(count - 1))),
            ("interpretation", "-s", _interpretation_width(model, len(model.hypotheses))),
            ("posterior", ".4f", 6),
        ]
    )
    text = _interpretation_text(model)
    rows = zip(itertools.count(), map(text, range(count)), table.posteriors)
    write = sys.stdout.write
    write(f"evidence probability: {table.evidence_probability:.6f}\n{header}")
    _write_each(write, map(row.__mod__, rows), "\n")
    write("\n")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def _scores(candidates: Sequence[Candidate]) -> Iterable[float]:
    """The candidates' scores; an MPE view's are read from its table."""
    if isinstance(candidates, RowCandidates):
        return candidates.scores()
    return (candidate.score for candidate in candidates)


def _ranking_payload(model: FaultModel, ranking: RankedDiagnoses) -> dict:
    """A ranking as JSON. The MPE ranking has one candidate per table row,
    so its fault sets are written from their row indices."""
    candidates, leader = ranking.candidates, ranking.leader
    mpe = isinstance(candidates, RowCandidates)

    def fault_sets(ranked: Sequence[Candidate]) -> list | _Rows:
        if isinstance(ranked, RowCandidates):
            return _Rows(partial(_fault_set_items, model, ranked.indices))
        return [_fault_set_list(model, candidate.fault_set) for candidate in ranked]

    payload: dict = {
        "strategy": ranking.strategy.value,
        "candidates": fault_sets(candidates),
        "scores": _numbers(_scores(candidates)),
        "leader": _fault_set_list(model, leader.fault_set) if leader is not None else None,
        "ties": fault_sets(ranking.ties),
        "rounded": {"scores": _numbers(round(score, 4) for score in _scores(candidates))},
    }
    if mpe:
        payload["indices"] = _Rows(lambda newline: map(int.__repr__, candidates.indices))
    return payload


def _render_ranking(model: FaultModel, ranking: RankedDiagnoses, evidence: float) -> int:
    """A ranking as a table, then its leader and, when several candidates
    tie, the ties. An MPE row is written ``[index] A !B ...``: the last
    row, every hypothesis normal, has the widest text and index."""
    head = f"strategy: {ranking.strategy.value}\nevidence probability: {evidence:.6f}"
    candidates = ranking.candidates
    if not candidates:
        return _print(head + "\nno candidates")
    if isinstance(candidates, RowCandidates):
        text = _interpretation_text(model)

        def label(index: int) -> str:
            return f"[{index}] {text(index)}"

        width = len(str(len(candidates) - 1)) + 3 + _interpretation_width(model, len(model.hypotheses))
        labels: Iterable[str] = map(label, candidates.indices)
        leader = label(candidates.indices[0])
        tied: Iterable[str] = map(label, ranking.ties.indices)
    else:
        labels = [_fault_set_text(model, candidate.fault_set) for candidate in candidates]
        width = max(map(len, labels))
        leader = labels[0]
        tied = [_fault_set_text(model, candidate.fault_set) for candidate in ranking.ties]
    header, row = _layout(
        [("rank", "d", len(str(len(candidates)))), ("candidate", "-s", width), ("score", ".4f", 6)]
    )
    write = sys.stdout.write
    write(f"{head}\n{header}")
    _write_each(write, map(row.__mod__, zip(itertools.count(1), labels, _scores(candidates))), "\n")
    write(f"\nleader: {leader}")
    if len(ranking.ties) > 1:
        write("\nties:")
        _write_each(write, iter(tied), " ")
    write("\n")
    return 0


def _render_report(
    model: FaultModel, report: StrategyReport, evidence: float
) -> str:
    lines = [f"evidence probability: {evidence:.6f}"]
    rows = []
    for strategy, ranking in report.rankings:
        leader = ranking.leader
        if leader is None:
            rows.append((strategy.value, "(none)", "-"))
        else:
            rows.append((strategy.value, _fault_set_text(model, leader.fault_set), f"{leader.score:.4f}"))
    widths = [max(len(cells[k]) for cells in rows) for k in range(3)]
    header, row = _layout(list(zip(("strategy", "leader", "score"), ("-s", "-s", "s"), widths)))
    lines.append(header)
    lines.extend(row % cells for cells in rows)
    if report.treatment is not None:
        label = dict(report.leaders).get("treatment", frozenset())
        lines.append(
            "treatment: "
            + _braced(sorted(report.treatment.chosen))
            + f"  expected utility {_dollars(report.treatment.expected_utility)}"
            + f"  (targets {_fault_set_text(model, label)})"
        )
    if report.failures:
        lines.append("errors:")
        for label, message in report.failures:
            lines.append(f"  {label}: {message}")
    if report.disagreements:
        lines.append("disagreements:")
        for label_a, label_b in report.disagreements:
            lines.append(f"  {label_a} vs {label_b}")
    lines.append("agreement: " + ("yes" if report.agreement else "no"))
    return "\n".join(lines)


def _cmd_diagnose(args: argparse.Namespace, bundle: ParsedBundle, query: Query) -> int:
    model, evidence = query.model, query.table.evidence_probability
    if args.strategy == "all":
        report = _compare(query, bundle.utility, bundle.treatments)
        if args.fmt == "json":
            payload = {
                "strategies": [
                    _ranking_payload(model, ranking) for _, ranking in report.rankings
                ],
                "evidence_probability": evidence,
                "leaders": {
                    label: _fault_set_list(model, fault_set)
                    for label, fault_set in report.leaders
                },
                "failures": {label: message for label, message in report.failures},
                "disagreements": [list(pair) for pair in report.disagreements],
                "agreement": report.agreement,
                "treatment": _treatment_payload(report.treatment),
                "rounded": {"evidence_probability": round(evidence, 4)},
            }
            return _print_json(payload)
        return _print(_render_report(model, report, evidence))
    rank = _RANKERS[Strategy(args.strategy)]
    ranking = rank(query)
    if args.fmt == "json":
        payload = _ranking_payload(model, ranking)
        payload["evidence_probability"] = evidence
        payload["rounded"]["evidence_probability"] = round(evidence, 4)
        return _print_json(payload)
    return _render_ranking(model, ranking, evidence)


# ---------------------------------------------------------------------------
# treat


def _treatment_payload(decision: TreatmentDecision | None) -> dict | None:
    if decision is None:
        return None
    breakdown = decision.per_treatment_breakdown
    return {
        "chosen": sorted(decision.chosen),
        "expected_utility": decision.expected_utility,
        "breakdown": breakdown,
        "rounded": {
            "expected_utility": round(decision.expected_utility, 4),
            "breakdown": (
                {tid: round(value, 4) for tid, value in breakdown.items()}
                if breakdown is not None
                else None
            ),
        },
    }


def _cmd_treat(
    args: argparse.Namespace, bundle: ParsedBundle, observations: ObservationSet
) -> int:
    if bundle.utility is None:
        raise DiagnoscopeError("no utility model given (use --utility or utility lines)")
    decision = optimal_treatment(
        bundle.model, observations, bundle.utility, bundle.treatments
    )
    if args.fmt == "json":
        return _print_json(_treatment_payload(decision))
    lines = [
        "chosen: " + _braced(sorted(decision.chosen)),
        f"expected utility: {_dollars(decision.expected_utility)}",
    ]
    if decision.per_treatment_breakdown is not None:
        lines.append("breakdown:")
        for tid, value in decision.per_treatment_breakdown.items():
            lines.append(f"  {tid} {_dollars(value)}")
    return _print("\n".join(lines))


# ---------------------------------------------------------------------------
# cover


def _cmd_cover(args: argparse.Namespace, table: PosteriorTable) -> int:
    prefix = covering_mass_set(table, args.mass)
    posteriors = [table.posteriors[index] for index in prefix]
    cumulative = list(itertools.accumulate(posteriors))
    if args.fmt == "json":
        payload = {
            "mass": args.mass,
            "evidence_probability": table.evidence_probability,
            "entries": _Rows(partial(_cover_items, prefix, posteriors, cumulative)),
            "rounded": {
                "evidence_probability": round(table.evidence_probability, 4),
                "posteriors": _numbers(round(posterior, 4) for posterior in posteriors),
                "cumulative": _numbers(round(cum, 4) for cum in cumulative),
            },
        }
        return _print_json(payload)
    model = table.theory.model
    header, row = _layout(
        [
            ("rank", "d", len(str(len(prefix)))),
            ("index", "d", len(str(max(prefix)))),
            ("interpretation", "-s", _interpretation_width(model, max(map(int.bit_count, prefix)))),
            ("posterior", ".4f", 6),
            ("cumulative", ".4f", 6),
        ]
    )
    text = _interpretation_text(model)
    rows = zip(itertools.count(1), prefix, map(text, prefix), posteriors, cumulative)
    write = sys.stdout.write
    write(f"evidence probability: {table.evidence_probability:.6f}\nmass: {args.mass}\n{header}")
    _write_each(write, map(row.__mod__, rows), "\n")
    write("\n")
    return 0
