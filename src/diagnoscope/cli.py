"""Command-line interface.

Subcommands: ``check`` (validate a model file), ``interpretations`` (print
the posterior table), ``diagnose`` (rank candidates under one or all
strategies), ``treat`` (optimize a treatment set), and ``cover`` (smallest
set of interpretations reaching a posterior mass).

Exit codes: 0 success, 1 domain errors (validation findings, impossible
observations, ...), 2 usage, file or parse errors. Results go to stdout,
diagnostics to stderr; output is byte-identical across runs on identical
inputs. Tables round probabilities to 4 decimals; ``--format json`` adds
full-precision values alongside the rounded ones.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys
from pathlib import Path
from typing import Callable

from .decision import TreatmentDecision, optimal_treatment
from .dsl import Document, ParseError, ParsedBundle, assemble_bundle, parse_document
from .errors import DiagnoscopeError
from .model import (
    FaultModel,
    Interpretation,
    ObservationSet,
    _each_row,
    _row_values,
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
    """Answer one query. A query builds thousands of short-lived objects
    (one per printed row), so the cyclic collector is paused while it runs
    and its youngest generation collected once when it returns: every
    query pays the same small collection instead of a varying number of
    passes over its own live rows."""
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


def _print_json(payload: object) -> int:
    """Print ``payload`` as indented JSON. Every payload is a tree that this
    module builds, so the encoder skips its check for cycles."""
    return _print(json.dumps(payload, indent=2, check_circular=False))


# ---------------------------------------------------------------------------
# interpretations


def _cmd_interpretations(args: argparse.Namespace, table: PosteriorTable) -> int:
    model = table.theory.model
    if args.fmt == "json":
        ids = model.hypothesis_ids
        rows = zip(_row_values(model), table.posteriors)
        payload = {
            "evidence_probability": table.evidence_probability,
            "entries": [
                {"index": index, "assignment": dict(zip(ids, values)), "posterior": posterior}
                for index, (values, posterior) in enumerate(rows)
            ],
            "rounded": {
                "evidence_probability": round(table.evidence_probability, 4),
                "posteriors": [round(posterior, 4) for posterior in table.posteriors],
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
    payload: dict = {
        "strategy": ranking.strategy.value,
        "candidates": [
            _fault_set_list(model, candidate.fault_set)
            for candidate in ranking.candidates
        ],
        "scores": [candidate.score for candidate in ranking.candidates],
        "leader": (
            _fault_set_list(model, ranking.leader.fault_set)
            if ranking.leader is not None
            else None
        ),
        "ties": [_fault_set_list(model, candidate.fault_set) for candidate in ranking.ties],
        "rounded": {
            "scores": [round(candidate.score, 4) for candidate in ranking.candidates]
        },
    }
    if ranking.strategy is Strategy.MPE:
        payload["indices"] = [candidate.index for candidate in ranking.candidates]
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
            "entries": [
                {"index": index, "posterior": posterior, "cumulative": cum}
                for index, posterior, cum in zip(prefix, posteriors, cumulative)
            ],
            "rounded": {
                "evidence_probability": round(table.evidence_probability, 4),
                "posteriors": [round(posterior, 4) for posterior in posteriors],
                "cumulative": [round(cum, 4) for cum in cumulative],
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
