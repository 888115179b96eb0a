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
from .model import (
    FaultModel,
    Interpretation,
    ObservationSet,
    _each_row,
    interpretation_at,
)
from .probability import PosteriorTable, Query, covering_mass_set
from .strategies import _RANKERS, Candidate, RankedDiagnoses, Strategy, StrategyReport, _compare


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
    stdout; a JSON answer is then written in chunks (``_print_json``).
    Rankings still build thousands of short-lived objects (one candidate
    per MPE row), so the cyclic collector is paused while a query runs
    and its youngest generation collected once when it returns: every
    query pays the same small collection instead of a varying number of
    passes over its own live objects."""
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


def _interpretation_text(interpretation: Interpretation) -> str:
    return " ".join(
        name if value else f"!{name}"
        for name, value in zip(interpretation.ids, interpretation.values)
    )


def _row_texts(model: FaultModel) -> list[str]:
    """Every row's interpretation text (``A !B ...``), in index order."""
    choices = [(name, f"!{name}") for name in model.hypothesis_ids]
    return [" ".join(row) for row in _each_row(model, choices)]


def _dollars(value: float) -> str:
    text = f"{value:.4f}"
    return f"-${text[1:]}" if text.startswith("-") else f"${text}"


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


# Items of a _Rows written to stdout in one call.
_ROWS_PER_WRITE = 4096


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
        separator = "," + inner
        while batch := list(itertools.islice(items, _ROWS_PER_WRITE)):
            write(separator + separator.join(batch))
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
    assignment is its lines in the order that _each_row gives them."""
    field = newline + "  "
    line = field + "  "
    choices = [
        (f"{line}{key}: true", f"{line}{key}: false")
        for key in map(encode_basestring_ascii, model.hypothesis_ids)
    ]
    # With no hypotheses the one row's assignment is "{}" and its text "".
    assignment = "{%s" + field + "}" if choices else "{}%s"
    template = (
        "{" + field + '"index": %d,' + field + '"assignment": ' + assignment + ","
        + field + '"posterior": %s' + newline + "}"
    )
    rows = zip(_each_row(model, choices), posteriors)
    return (
        template % (index, ",".join(row), _float_text(posterior))
        for index, (row, posterior) in enumerate(rows)
    )


def _fault_set_items(model: FaultModel, candidates: Iterable[Candidate], newline: str) -> Iterator[str]:
    """The fault set of each MPE candidate as a JSON list, from its row
    index. Every hypothesis has one line where it is faulty and none where
    it is normal; a row's text is looked up in two tables of half-row
    texts, in the itertools.product order of _each_row, one for the first
    hypotheses (the high bits of the index) and one for the rest."""
    line = newline + "  "
    choices = [("," + line + key, "") for key in map(encode_basestring_ascii, model.hypothesis_ids)]
    low = len(choices) // 2
    high_texts = ["".join(row) for row in itertools.product(*choices[: len(choices) - low])]
    low_texts = ["".join(row) for row in itertools.product(*choices[len(choices) - low :])]
    mask = (1 << low) - 1
    for candidate in candidates:
        text = high_texts[candidate.index >> low] + low_texts[candidate.index & mask]
        # text[1:] drops the comma before the first name.
        yield "[" + text[1:] + newline + "]" if text else "[]"


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
    rows = [["index", "interpretation", "posterior"]]
    for index, (text, posterior) in enumerate(zip(_row_texts(model), table.posteriors)):
        rows.append([str(index), text, f"{posterior:.4f}"])
    lines = [f"evidence probability: {table.evidence_probability:.6f}"]
    lines.extend(_table(rows, right_align={0, 2}))
    return _print("\n".join(lines))


# ---------------------------------------------------------------------------
# diagnose


def _candidate_text(model: FaultModel, ranking: RankedDiagnoses) -> Callable[[Candidate], str]:
    """The text of a candidate of ``ranking``: an MPE row as
    ``[index] A !B ...``, any other candidate as its fault set."""
    if ranking.strategy is Strategy.MPE:
        texts = _row_texts(model)
        return lambda candidate: f"[{candidate.index}] {texts[candidate.index]}"
    return lambda candidate: _fault_set_text(model, candidate.fault_set)


def _ranking_payload(model: FaultModel, ranking: RankedDiagnoses) -> dict:
    """A ranking as JSON. The MPE ranking has one candidate per table row,
    so its fault sets are written from their row indices."""
    candidates = ranking.candidates
    mpe = ranking.strategy is Strategy.MPE

    def fault_sets(ranked: tuple[Candidate, ...]) -> list | _Rows:
        if mpe:
            return _Rows(partial(_fault_set_items, model, ranked))
        return [_fault_set_list(model, candidate.fault_set) for candidate in ranked]

    payload: dict = {
        "strategy": ranking.strategy.value,
        "candidates": fault_sets(candidates),
        "scores": _numbers(candidate.score for candidate in candidates),
        "leader": (
            _fault_set_list(model, ranking.leader.fault_set)
            if ranking.leader is not None
            else None
        ),
        "ties": fault_sets(ranking.ties),
        "rounded": {"scores": _numbers(round(candidate.score, 4) for candidate in candidates)},
    }
    if mpe:
        payload["indices"] = _Rows(lambda newline: (int.__repr__(c.index) for c in candidates))
    return payload


def _render_ranking(
    model: FaultModel, ranking: RankedDiagnoses, evidence: float
) -> str:
    lines = [
        f"strategy: {ranking.strategy.value}",
        f"evidence probability: {evidence:.6f}",
    ]
    if not ranking.candidates:
        lines.append("no candidates")
        return "\n".join(lines)
    text = _candidate_text(model, ranking)
    rows = [["rank", "candidate", "score"]]
    for rank, candidate in enumerate(ranking.candidates, start=1):
        rows.append([str(rank), text(candidate), f"{candidate.score:.4f}"])
    lines.extend(_table(rows, right_align={0, 2}))
    lines.append(f"leader: {text(ranking.leader)}")
    if len(ranking.ties) > 1:
        tied = " ".join(text(c) for c in ranking.ties)
        lines.append(f"ties: {tied}")
    return "\n".join(lines)


def _render_report(
    model: FaultModel, report: StrategyReport, evidence: float
) -> str:
    lines = [f"evidence probability: {evidence:.6f}"]
    rows = [["strategy", "leader", "score"]]
    for strategy, ranking in report.rankings:
        if ranking.leader is None:
            rows.append([strategy.value, "(none)", "-"])
        else:
            rows.append(
                [
                    strategy.value,
                    _fault_set_text(model, ranking.leader.fault_set),
                    f"{ranking.leader.score:.4f}",
                ]
            )
    lines.extend(_table(rows, right_align={2}))
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
    return _print(_render_ranking(model, ranking, evidence))


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
    lines = [
        f"evidence probability: {table.evidence_probability:.6f}",
        f"mass: {args.mass}",
    ]
    model = table.theory.model
    rows = [["rank", "index", "interpretation", "posterior", "cumulative"]]
    for rank, (index, posterior, cum) in enumerate(zip(prefix, posteriors, cumulative), start=1):
        text = _interpretation_text(interpretation_at(model, index))
        rows.append([str(rank), str(index), text, f"{posterior:.4f}", f"{cum:.4f}"])
    lines.extend(_table(rows, right_align={0, 1, 3, 4}))
    return _print("\n".join(lines))
