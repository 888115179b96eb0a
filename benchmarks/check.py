"""Answer checker for the benchmark's queries.

JSON answers are checked against the brute-force reference in
``tests/oracle.py``: the posterior rows and evidence probability come
from ``oracle.posterior_rows``, fact satisfaction from ``oracle.possible``.
Marginals, minimal fault sets and the best treatment set are derived from
those rows here by direct summation and exhaustive search, never through
the package's own completion, enumeration or scoring code. Numbers are
compared with a relative tolerance, not byte for byte, so a change in the
last digits of a sum does not count as a wrong answer.

A table answer is checked against the JSON answer of the same query: each
number printed in the table must be that JSON value rounded to the
printed number of places, and the printed fault sets must match.

``expected_exit`` gives the exit code each query should return; a query
whose exit code or answer is wrong counts as failed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from diagnoscope.formulas import And, Atom, Implies, Not, Or
from diagnoscope.model import CausalRule, FaultModel, Hypothesis, ObservableVar
from tests import oracle

from generate import GeneratedModel
from workloads import Query

REL_TOL = 1e-9
ABS_TOL = 1e-12
TIE_EPSILON = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _fact_formula(kind: str, atoms: tuple[str, ...]):
    if kind == "nand":
        return Not(And((Atom(atoms[0]), Atom(atoms[1]))))
    if kind == "implies":
        return Implies(Atom(atoms[0]), Atom(atoms[1]))
    return Or((Atom(atoms[0]), Atom(atoms[1]), Not(Atom(atoms[2]))))


def fault_model(gm: GeneratedModel) -> FaultModel:
    """The reference model, built from the generator's record, not by
    parsing the ``.fdl`` text."""
    return FaultModel(
        tuple(Hypothesis(h, float(p)) for h, p in gm.hypotheses),
        tuple(ObservableVar(o) for o in gm.observables),
        tuple(CausalRule(body, head) for body, head in gm.rules),
        tuple(_fact_formula(kind, atoms) for kind, atoms in gm.facts),
    )


def _superset_any(flags: list[bool], m: int) -> list[bool]:
    """out[S] = some T containing S has flags[T] (masks: bit k = H_k faulty)."""
    out = list(flags)
    for k in range(m):
        bit = 1 << k
        for s in range(1 << m):
            if not s & bit and out[s | bit]:
                out[s] = True
    return out


def _minimal(flags: list[bool], m: int) -> list[int]:
    """Masks S with flags[S] and no proper subset flagged."""
    below = list(flags)  # below[S] = some subset of S is flagged
    for k in range(m):
        bit = 1 << k
        for s in range(1 << m):
            if s & bit and below[s ^ bit]:
                below[s] = True
    return [
        s for s in range(1 << m)
        if flags[s] and not any(s & (1 << k) and below[s ^ (1 << k)] for k in range(m))
    ]


@dataclass
class Truth:
    """Reference answers for one (model, observations) pair."""

    ids: tuple[str, ...]
    observations: tuple[tuple[str, bool], ...]
    rows: list[float] | None  # posterior by interpretation index; None if impossible
    evidence: float
    by_mask: list[float]  # posterior by fault mask
    model: GeneratedModel
    reference: FaultModel

    @cached_property
    def facts_ok(self) -> list[bool]:
        """Fact satisfaction by fault mask."""
        out = [False] * (1 << self.m)
        for index in range(1 << self.m):
            assignment = oracle.assignment_for_index(self.ids, index)
            out[self.mask_of_index(index)] = oracle.possible(self.reference, assignment, ())
        return out

    @property
    def m(self) -> int:
        return len(self.ids)

    @cached_property
    def _index_masks(self) -> list[int]:
        # Interpretation index: first hypothesis is the most significant
        # bit, and a set bit means the hypothesis is normal.
        m = self.m
        return [
            sum(1 << k for k in range(m) if not (index >> (m - 1 - k)) & 1)
            for index in range(1 << m)
        ]

    def mask_of_index(self, index: int) -> int:
        return self._index_masks[index]

    def names(self, mask: int) -> list[str]:
        return [self.ids[k] for k in range(self.m) if mask >> k & 1]

    @cached_property
    def _position(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.ids)}

    def mask_of(self, names) -> int:
        return sum(1 << self._position[n] for n in names)

    def conjunction_marginal(self, mask: int) -> float:
        return math.fsum(p for s, p in enumerate(self.by_mask) if s & mask == mask)

    def consistency_sets(self) -> list[int]:
        return _minimal([p > 0.0 for p in self.by_mask], self.m)

    def abductive_sets(self) -> list[int]:
        bad = [ok and p == 0.0 for ok, p in zip(self.facts_ok, self.by_mask)]
        has_ext = _superset_any(self.facts_ok, self.m)
        has_bad = _superset_any(bad, self.m)
        return _minimal([e and not b for e, b in zip(has_ext, has_bad)], self.m)

    def abductive_error(self) -> str | None:
        if not all(pol for _, pol in self.observations):
            return "negative observation"
        return None if self.abductive_sets() else "unexplainable"


class Oracle:
    """Caches one ``Truth`` per (model, observations)."""

    def __init__(self, models: dict[str, GeneratedModel]):
        self.models = models
        self._cache: dict[tuple, Truth] = {}

    def truth(self, query: Query) -> Truth:
        gm = self.models[query.model]
        if query.observe is None:
            observations = gm.observations
        else:
            observations = tuple(
                (lit[1:], False) if lit.startswith("!") else (lit, True) for lit in query.observe
            )
        key = (query.model, observations)
        if key not in self._cache:
            self._cache[key] = self._compute(gm, observations)
        return self._cache[key]

    @staticmethod
    def _compute(gm: GeneratedModel, observations) -> Truth:
        model = fault_model(gm)
        ids = model.hypothesis_ids
        m = len(ids)
        try:
            rows, evidence = oracle.posterior_rows(model, observations)
        except ZeroDivisionError:
            rows, evidence = None, 0.0
        truth = Truth(ids, tuple(observations), rows, evidence, [0.0] * (1 << m), gm, model)
        if rows is not None:
            for index, p in enumerate(rows):
                truth.by_mask[truth.mask_of_index(index)] = p
        return truth


def expected_exit(query: Query, truth: Truth) -> int:
    if query.command == "check":
        return 0
    if truth.rows is None:
        return 1  # the observations have zero probability
    if query.command == "treat" and not truth.model.treatments:
        return 1
    if query.command == "diagnose" and query.option == "abductive" and truth.abductive_error():
        return 1
    return 0


# ---------------------------------------------------------------------------
# JSON answers against the reference


class Wrong(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def _check_scores_sorted(scores: list[float], what: str) -> None:
    for a, b in zip(scores, scores[1:]):
        _require(a >= b - TIE_EPSILON, f"{what}: scores not in descending order")


def _check_ranking(payload: dict, truth: Truth, strategy: str) -> None:
    cands = [truth.mask_of(c) for c in payload["candidates"]]
    scores = payload["scores"]
    _require(len(cands) == len(scores), f"{strategy}: candidates and scores differ in length")
    m = truth.m
    if strategy == "single-fault":
        expected = {
            1 << k: truth.by_mask[1 << k] for k in range(m) if truth.by_mask[1 << k] > 0.0
        }
    elif strategy == "posterior":
        expected = {1 << k: truth.conjunction_marginal(1 << k) for k in range(m)}
    elif strategy == "mpe":
        indices = payload["indices"]
        _require(sorted(indices) == list(range(1 << m)), "mpe: not every interpretation ranked")
        for idx, cand, score in zip(indices, cands, scores):
            _require(truth.mask_of_index(idx) == cand, f"mpe: index {idx} has the wrong fault set")
            _require(close(score, truth.rows[idx]), f"mpe: wrong posterior at index {idx}")
        expected = None
    else:
        sets = truth.consistency_sets() if strategy == "consistency" else truth.abductive_sets()
        expected = {s: truth.conjunction_marginal(s) for s in sets}
    if expected is not None:
        _require(sorted(cands) == sorted(expected), f"{strategy}: wrong candidate fault sets")
        for cand, score in zip(cands, scores):
            _require(close(score, expected[cand]), f"{strategy}: wrong score for {truth.names(cand)}")
    _check_scores_sorted(scores, strategy)
    leader = payload["leader"]
    _require((leader is None) == (not cands), f"{strategy}: leader present iff candidates")
    if cands:
        _require(truth.mask_of(leader) == cands[0], f"{strategy}: leader is not the first candidate")
        _require(leader in payload["ties"], f"{strategy}: ties miss the leader")


def _treatment_utilities(truth: Truth):
    """Expected utility of every treatment set, by exhaustive search, and
    each treatment's additive term; expectations use linearity over the
    reference posterior rows."""
    gm = truth.model
    targets = dict(gm.treatments)
    values = dict(zip(targets, gm.additive))
    p_faulty = {tid: truth.conjunction_marginal(truth.mask_of([target])) for tid, target in targets.items()}
    joint_p = []
    for when, _given, _value in gm.joints:
        need = truth.mask_of([n for n, pol in when if pol])
        avoid = truth.mask_of([n for n, pol in when if not pol])
        joint_p.append(
            math.fsum(p for s, p in enumerate(truth.by_mask) if s & need == need and not s & avoid)
        )

    def additive(tid: str, treating: bool) -> float:
        tf, to, sf, so = values[tid]
        p = p_faulty[tid]
        return p * tf + (1 - p) * to if treating else p * sf + (1 - p) * so

    ids = sorted(targets)
    utilities = {}
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            chosen = frozenset(combo)
            total = math.fsum(additive(tid, tid in chosen) for tid in ids)
            for (_when, given, value), p in zip(gm.joints, joint_p):
                if all((tid in chosen) == pol for tid, pol in given):
                    total += p * value
            utilities[chosen] = total
    return utilities, additive


def _check_treatment(payload: dict, truth: Truth) -> None:
    utilities, additive = _treatment_utilities(truth)
    best = max(utilities.values())
    chosen = frozenset(payload["chosen"])
    _require(chosen in utilities, "treat: unknown treatment in the chosen set")
    _require(close(payload["expected_utility"], utilities[chosen]), "treat: wrong expected utility")
    _require(
        utilities[chosen] >= best - REL_TOL * max(1.0, abs(best)),
        "treat: a treatment set with higher expected utility exists",
    )
    breakdown = payload["breakdown"]
    if truth.model.joints:
        _require(breakdown is None, "treat: breakdown given despite joint utilities")
        return
    ids = {tid for tid, _ in truth.model.treatments}
    _require(breakdown is not None and set(breakdown) == ids, "treat: wrong breakdown keys")
    for tid in ids:
        _require(close(breakdown[tid], additive(tid, tid in chosen)), f"treat: wrong breakdown for {tid}")


def check_json(query: Query, payload: dict, truth: Truth) -> None:
    """Raise ``Wrong`` unless the JSON answer matches the reference."""
    if query.command == "treat":
        _check_treatment(payload, truth)
        return
    _require(close(payload["evidence_probability"], truth.evidence), "wrong evidence probability")
    if query.command == "interpretations":
        entries = payload["entries"]
        _require(len(entries) == 1 << truth.m, "interpretations: wrong row count")
        for index, entry in enumerate(entries):
            _require(entry["index"] == index, "interpretations: rows out of index order")
            faulty = [name for name, value in entry["assignment"].items() if value]
            _require(truth.mask_of(faulty) == truth.mask_of_index(index), "interpretations: wrong assignment")
            _require(close(entry["posterior"], truth.rows[index]), f"interpretations: wrong posterior at {index}")
    elif query.command == "cover":
        mass = float(query.option)
        entries = payload["entries"]
        cumulative = 0.0
        for k, entry in enumerate(entries):
            _require(close(entry["posterior"], truth.rows[entry["index"]]), "cover: wrong posterior")
            cumulative += entry["posterior"]
            _require(close(entry["cumulative"], cumulative), "cover: wrong cumulative mass")
            if k < len(entries) - 1:
                _require(cumulative < mass - 1e-9 + 1e-12, "cover: prefix longer than needed")
        _require(cumulative >= mass - 1e-9 - 1e-12, "cover: prefix does not reach the mass")
        _check_scores_sorted([e["posterior"] for e in entries], "cover")
        inside = {e["index"] for e in entries}
        outside = max((p for i, p in enumerate(truth.rows) if i not in inside), default=0.0)
        _require(not entries or entries[-1]["posterior"] >= outside - TIE_EPSILON, "cover: not the most probable rows")
    elif query.option != "all":
        _check_ranking(payload, truth, query.option)
    else:
        _check_report(payload, truth)


def _check_report(payload: dict, truth: Truth) -> None:
    abductive_error = truth.abductive_error()
    expected_failures = {"abductive"} if abductive_error else set()
    _require(set(payload["failures"]) == expected_failures, "all: wrong failure records")
    order = ["single-fault", "posterior", "mpe", "consistency", "abductive"]
    ran = [s for s in order if s not in expected_failures]
    _require([r["strategy"] for r in payload["strategies"]] == ran, "all: wrong strategies")
    leaders = []
    for ranking in payload["strategies"]:
        _check_ranking(ranking, truth, ranking["strategy"])
        if ranking["leader"] is not None:
            leaders.append((ranking["strategy"], frozenset(ranking["leader"])))
    if truth.model.treatments:
        _check_treatment(payload["treatment"], truth)
        targets = dict(truth.model.treatments)
        leaders.append(("treatment", frozenset(targets[t] for t in payload["treatment"]["chosen"])))
    else:
        _require(payload["treatment"] is None, "all: treatment without a utility model")
    _require(
        {k: frozenset(v) for k, v in payload["leaders"].items()} == dict(leaders), "all: wrong leaders"
    )
    disagreements = [
        [a, b] for i, (a, sa) in enumerate(leaders) for b, sb in leaders[i + 1 :] if sa != sb
    ]
    _require(payload["disagreements"] == disagreements, "all: wrong disagreements")
    _require(payload["agreement"] == (not disagreements), "all: wrong agreement flag")


# ---------------------------------------------------------------------------
# table answers against the JSON answer of the same query

_NUMBER = re.compile(r"(-?)\$?(\d+\.(\d+))")
_SET = re.compile(r"\{[^}]*\}")


def _set_text(names: list[str]) -> str:
    return "{" + ",".join(names) + "}"


def _expected_table_tokens(query: Query, payload: dict) -> tuple[list[float], list[str]]:
    """Numbers (in print order) and fault-set texts the table must show."""
    if query.command == "treat":
        numbers = [payload["expected_utility"]] + list((payload["breakdown"] or {}).values())
        return numbers, [_set_text(payload["chosen"])]
    numbers = [payload["evidence_probability"]]
    sets: list[str] = []
    if query.command == "interpretations":
        numbers += [e["posterior"] for e in payload["entries"]]
    elif query.command == "cover":
        numbers.append(payload["mass"])
        for e in payload["entries"]:
            numbers += [e["posterior"], e["cumulative"]]
    elif query.option == "all":
        for ranking in payload["strategies"]:
            if ranking["leader"] is not None:
                numbers.append(ranking["scores"][0])
                sets.append(_set_text(ranking["leader"]))
        treatment = payload["treatment"]
        if treatment is not None:
            numbers.append(treatment["expected_utility"])
            sets.append(_set_text(treatment["chosen"]))
            sets.append(_set_text(payload["leaders"]["treatment"]))
    else:
        numbers += payload["scores"]
        if query.option != "mpe" and payload["candidates"]:
            sets = [_set_text(c) for c in payload["candidates"]] + [_set_text(payload["leader"])]
            if len(payload["ties"]) > 1:
                sets += [_set_text(c) for c in payload["ties"]]
    return numbers, sets


def check_table(query: Query, text: str, payload: dict) -> None:
    """Raise ``Wrong`` unless the table shows the JSON answer, rounded."""
    numbers, sets = _expected_table_tokens(query, payload)
    printed = _NUMBER.findall(text)
    _require(len(printed) == len(numbers), "table: wrong count of numbers")
    for (sign, digits, places), want in zip(printed, numbers):
        value = float(sign + digits)
        _require(
            abs(value - want) <= 0.5 * 10 ** -len(places) + 1e-9,
            f"table: {sign}{digits} is not {want!r} rounded",
        )
    if query.command != "interpretations" and not (query.command == "diagnose" and query.option == "mpe"):
        _require(_SET.findall(text) == sets, "table: wrong fault sets")


def check_answer(query: Query, exit_code: int, stdout: str, json_stdout: str | None, truth: Truth) -> str | None:
    """None when the answer is right, else a short reason.

    ``json_stdout`` is the JSON answer of the same query, needed for a
    table-format query that succeeded."""
    want = expected_exit(query, truth)
    if exit_code != want:
        return f"exit code {exit_code}, expected {want}"
    try:
        if exit_code != 0:
            _require(stdout == "", "output on a failed query")
        elif query.command == "check":
            _require(stdout == "ok\n", "check: model not reported ok")
        elif query.fmt == "json":
            check_json(query, json.loads(stdout), truth)
        else:
            payload = json.loads(json_stdout)
            check_json(query.as_json(), payload, truth)
            check_table(query, stdout, payload)
    except Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {exc!r}"
    return None
