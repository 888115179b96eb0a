"""The five probabilistic diagnosis strategies and their comparison.

Each strategy answers "what is the most likely diagnosis?" under a
different reading of the question:

* single-fault: which one hypothesis, with all others normal, best
  explains the data (scored by the full interpretation's posterior);
* posterior: which individual hypothesis has the highest marginal;
* mpe: which total interpretation has the highest posterior;
* consistency: minimal fault sets consistent with the observations;
* abductive: minimal fault sets entailing the observations.

Posterior, consistency and abduction share one scorer (``_scored``), the
posterior mass of a fault set's positive conjunction, and differ only in
the fault sets they score. Every ranker but MPE's ends in one stable sort
that takes the ties (``_ranked``).

They can disagree on the same input; compare_strategies runs all of them
and flags every pair whose leaders differ once projected to fault sets.
Every ranker and the treatment search answer one ``probability.Query``:
the comparison shares its completion, row masks and posterior table, and
each public ``diagnose_*`` function is a thin adapter over the ranker
registry.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .decision import TreatmentDecision, _optimal_treatment
from .errors import DiagnoscopeError
from .logic import _check_abducible, _explanations, _minimal_fault_sets
from .model import (
    FaultModel,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
    index_of_assignment,
)
from .probability import (
    TIE_EPSILON,
    Query,
    _by_posterior,
    _literal_mass,
    most_likely_interpretations,
)


class Strategy(str, enum.Enum):
    SINGLE_FAULT = "single-fault"
    POSTERIOR = "posterior"
    MPE = "mpe"
    CONSISTENCY = "consistency"
    ABDUCTIVE = "abductive"


@dataclass(frozen=True)
class Candidate:
    """One ranked answer: a fault set with its score; an MPE candidate is a
    row of the posterior table and also carries its index, which
    ``model.interpretation_at`` decodes into the full interpretation."""

    fault_set: frozenset[str]
    score: float
    index: int | None = None


class RowCandidates(Sequence):
    """Rows of a posterior table as a read-only sequence of candidates, in
    the order of ``indices``. Indexing builds the one ``Candidate`` asked
    for, its fault set decoded from the bits of the row index, so a ranking
    of all 2^m rows holds one int per row and no other per-row object.

    Two views are equal when they are over the same hypotheses and hold
    the same rows with the same scores in the same order. Like a ``range``,
    a view is never equal to a tuple or list."""

    __slots__ = ("ids", "indices", "posteriors")

    def __init__(self, ids: tuple[str, ...], indices: list[int], posteriors: tuple[float, ...]):
        self.ids = ids
        self.indices = indices
        self.posteriors = posteriors

    def _candidate(self, index: int) -> Candidate:
        ids = self.ids
        last = len(ids) - 1
        fault_set = frozenset(name for k, name in enumerate(ids) if not index >> (last - k) & 1)
        return Candidate(fault_set, self.posteriors[index], index)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return RowCandidates(self.ids, self.indices[position], self.posteriors)
        return self._candidate(self.indices[position])

    def __iter__(self) -> Iterator[Candidate]:
        return map(self._candidate, self.indices)

    def scores(self) -> Iterator[float]:
        """The score of each candidate, in order."""
        return map(self.posteriors.__getitem__, self.indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowCandidates):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.indices == other.indices
            and (self.posteriors is other.posteriors or list(self.scores()) == list(other.scores()))
        )

    def __hash__(self) -> int:
        return hash((self.ids, len(self.indices)))


@dataclass(frozen=True)
class RankedDiagnoses:
    """A strategy's candidates, best first, and the ties for the lead. The
    MPE ranking's ``candidates`` and ``ties`` are ``RowCandidates`` views
    over the rows of the posterior table; the others are tuples."""

    strategy: Strategy
    candidates: Sequence[Candidate]
    ties: Sequence[Candidate]

    @property
    def leader(self) -> Candidate | None:
        return self.candidates[0] if self.candidates else None


@dataclass(frozen=True)
class StrategyReport:
    """Cross-strategy comparison: every ranking, every leader's fault set,
    per-strategy failures, and the pairs whose leaders disagree."""

    rankings: tuple[tuple[Strategy, RankedDiagnoses], ...]
    leaders: tuple[tuple[str, frozenset[str]], ...]
    failures: tuple[tuple[str, str], ...]
    disagreements: tuple[tuple[str, str], ...]
    agreement: bool
    treatment: TreatmentDecision | None = None


def _ranked(strategy: Strategy, candidates: list[Candidate]) -> RankedDiagnoses:
    """Sort stably by descending score, so that equal scores keep the order
    the candidates come in, and take the ties within TIE_EPSILON of the top."""
    candidates.sort(key=lambda c: -c.score)
    top = candidates[0].score if candidates else 0.0
    ties = tuple(c for c in candidates if c.score >= top - TIE_EPSILON)
    return RankedDiagnoses(strategy, tuple(candidates), ties)


def _scored(query: Query, strategy: Strategy, fault_sets: list[frozenset[str]]) -> RankedDiagnoses:
    """Rank fault sets by the posterior mass of their positive literals."""
    table = query.table
    candidates = [Candidate(s, _literal_mass(table, ((n, True) for n in s))) for s in fault_sets]
    return _ranked(strategy, candidates)


def _rank_single_fault(query: Query) -> RankedDiagnoses:
    model, posteriors = query.model, query.table.posteriors
    scores = {h: posteriors[index_of_assignment(model, {h})] for h in model.hypothesis_ids}
    possible = [Candidate(frozenset({h}), p) for h, p in scores.items() if p > 0.0]
    return _ranked(Strategy.SINGLE_FAULT, possible)


def _rank_posterior(query: Query) -> RankedDiagnoses:
    singletons = [frozenset({name}) for name in query.model.hypothesis_ids]
    return _scored(query, Strategy.POSTERIOR, singletons)


def _rank_mpe(query: Query) -> RankedDiagnoses:
    """Every row of the table, by one sort over all of them."""
    ids, table = query.model.hypothesis_ids, query.table
    return RankedDiagnoses(
        Strategy.MPE,
        RowCandidates(ids, _by_posterior(table), table.posteriors),
        RowCandidates(ids, most_likely_interpretations(table), table.posteriors),
    )


# The searches give their minimal sets by size, then declaration order.
# They run before the table is built, so that their errors come first.
def _rank_consistency(query: Query) -> RankedDiagnoses:
    return _scored(query, Strategy.CONSISTENCY, _minimal_fault_sets(query.model, query.good))


def _rank_abductive(query: Query) -> RankedDiagnoses:
    _check_abducible(query.model, query.observations)
    return _scored(query, Strategy.ABDUCTIVE, _explanations(query.model, query.facts, query.good))


# The one strategy registry, in report order.
_RANKERS = {
    Strategy.SINGLE_FAULT: _rank_single_fault,
    Strategy.POSTERIOR: _rank_posterior,
    Strategy.MPE: _rank_mpe,
    Strategy.CONSISTENCY: _rank_consistency,
    Strategy.ABDUCTIVE: _rank_abductive,
}


def diagnose_single_fault(model: FaultModel, observations: ObservationSet) -> RankedDiagnoses:
    """Hypotheses whose exactly-one-fault interpretation is still possible,
    scored by that full interpretation's posterior. May be empty."""
    return _rank_single_fault(Query(model, observations))


def diagnose_posterior(model: FaultModel, observations: ObservationSet) -> RankedDiagnoses:
    """Every hypothesis scored by its posterior marginal."""
    return _rank_posterior(Query(model, observations))


def diagnose_mpe(model: FaultModel, observations: ObservationSet) -> RankedDiagnoses:
    """All interpretations ranked by posterior; leaders per the tie rule."""
    return _rank_mpe(Query(model, observations))


def diagnose_consistency(model: FaultModel, observations: ObservationSet) -> RankedDiagnoses:
    """Minimal consistent fault sets scored by the marginal of their
    positive conjunction (normal literals are not part of the scored
    formula)."""
    return _rank_consistency(Query(model, observations))


def diagnose_abductive(model: FaultModel, observations: ObservationSet) -> RankedDiagnoses:
    """Minimal explaining fault sets, scored as in diagnose_consistency."""
    return _rank_abductive(Query(model, observations))


TREATMENT_LABEL = "treatment"


def compare_strategies(
    model: FaultModel,
    observations: ObservationSet,
    utility: UtilityModel | None = None,
    treatments: tuple[TreatmentAction, ...] = (),
) -> StrategyReport:
    """Run every applicable strategy and flag leader disagreements.

    Leaders are compared as fault sets: MPE leaders project to their true
    hypotheses, the treatment decision (when a utility model is given)
    projects to the targets of the chosen treatments. Per-strategy errors
    become failure records, not exceptions.
    """
    return _compare(Query(model, observations), utility, treatments)


def _compare(
    query: Query,
    utility: UtilityModel | None,
    treatments: tuple[TreatmentAction, ...],
) -> StrategyReport:
    """compare_strategies over one query shared by every ranker."""
    rankings: list[tuple[Strategy, RankedDiagnoses]] = []
    leaders: list[tuple[str, frozenset[str]]] = []
    failures: list[tuple[str, str]] = []
    for strategy, rank in _RANKERS.items():
        try:
            ranking = rank(query)
        except DiagnoscopeError as exc:
            failures.append((strategy.value, str(exc)))
            continue
        rankings.append((strategy, ranking))
        leader = ranking.leader
        if leader is not None:
            leaders.append((strategy.value, leader.fault_set))
    treatment = None
    if utility is not None:
        try:
            treatment = _optimal_treatment(query, utility, treatments)
            targets = {t.target for t in treatments if t.id in treatment.chosen}
            leaders.append((TREATMENT_LABEL, frozenset(targets)))
        except DiagnoscopeError as exc:
            failures.append((TREATMENT_LABEL, str(exc)))
    disagreements = tuple(
        (label_a, label_b)
        for i, (label_a, set_a) in enumerate(leaders)
        for label_b, set_b in leaders[i + 1 :]
        if set_a != set_b
    )
    return StrategyReport(
        rankings=tuple(rankings),
        leaders=tuple(leaders),
        failures=tuple(failures),
        disagreements=disagreements,
        agreement=not disagreements,
        treatment=treatment,
    )
