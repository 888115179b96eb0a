"""The five probabilistic diagnosis strategies and their comparison.

Each strategy answers "what is the most likely diagnosis?" under a
different reading of the question:

* single-fault: which one hypothesis, with all others normal, best
  explains the data (scored by the full interpretation's posterior);
* posterior: which individual hypothesis has the highest marginal;
* mpe: which total interpretation has the highest posterior;
* consistency: minimal fault sets consistent with the observations;
* abductive: minimal fault sets entailing the observations.

Every ranking is a view over rows of the posterior table, a fault set
standing for its exact-fault row (``RowCandidates``). Posterior,
consistency and abduction share one scorer (``_scored``), the posterior
mass of a fault set's positive conjunction, and differ only in the rows
they score; a mass one of them has summed is not summed again for the
others or for a treatment target (``Query.mass``). Every ranker but
MPE's ends in one stable sort that takes the ties (``_ranked``).

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
)
from .probability import (
    TIE_EPSILON,
    Query,
    _by_posterior,
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
    """One ranked answer: a fault set, its score and ``index``, the row of
    the posterior table on which exactly that set is faulty. For MPE the
    answer is that row, which ``model.interpretation_at`` decodes."""

    fault_set: frozenset[str]
    score: float
    index: int


def _faulty(ids: tuple[str, ...], index: int) -> Iterator[str]:
    """The hypotheses faulty on row ``index``: those whose bit is 0."""
    last = len(ids) - 1
    return (name for k, name in enumerate(ids) if not index >> (last - k) & 1)


class RowCandidates(Sequence):
    """Rows of a posterior table as a read-only sequence of candidates, in
    the order of ``indices``, each scored ``posteriors[index]``. Indexing
    builds the one ``Candidate`` asked for, its fault set decoded from the
    bits of the row index, so a ranking of all 2^m rows holds one int per
    row and no other per-row object.

    Two views are equal when they are over the same hypotheses and hold
    the same rows with the same scores in the same order. Like a ``range``,
    a view is never equal to a tuple or list."""

    __slots__ = ("ids", "indices", "posteriors")

    def __init__(self, ids: tuple[str, ...], indices: list[int], posteriors: Sequence[float] | dict[int, float]):
        self.ids = ids
        self.indices = indices
        self.posteriors = posteriors

    def _candidate(self, index: int) -> Candidate:
        return Candidate(frozenset(_faulty(self.ids, index)), self.posteriors[index], index)

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
    """A strategy's candidates, best first, and the ties for the lead, each
    a ``RowCandidates`` view over rows of the posterior table."""

    strategy: Strategy
    candidates: RowCandidates
    ties: RowCandidates

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


def _ranked(
    query: Query, strategy: Strategy, rows: list[int], score_of: Sequence[float] | dict[int, float]
) -> RankedDiagnoses:
    """Sort the rows stably by descending ``score_of[row]``, so that equal
    scores keep the order the rows come in, and take the ties within
    TIE_EPSILON of the top."""
    rows.sort(key=score_of.__getitem__, reverse=True)
    top = score_of[rows[0]] if rows else 0.0
    ties = [row for row in rows if score_of[row] >= top - TIE_EPSILON]
    ids = query.model.hypothesis_ids
    return RankedDiagnoses(strategy, RowCandidates(ids, rows, score_of), RowCandidates(ids, ties, score_of))


def _scored(query: Query, strategy: Strategy, rows: list[int]) -> RankedDiagnoses:
    """Rank exact-fault rows by the posterior mass of their fault sets."""
    ids = query.model.hypothesis_ids
    masses = {row: query.mass((name, True) for name in _faulty(ids, row)) for row in rows}
    return _ranked(query, strategy, rows, masses)


def _singletons(model: FaultModel) -> list[int]:
    """The exact-fault row of each hypothesis, in declaration order: every
    index bit set but that hypothesis's own."""
    count = len(model.hypotheses)
    return [(1 << count) - 1 - (1 << (count - 1 - k)) for k in range(count)]


def _rank_single_fault(query: Query) -> RankedDiagnoses:
    posteriors = query.table.posteriors
    possible = [row for row in _singletons(query.model) if posteriors[row] > 0.0]
    return _ranked(query, Strategy.SINGLE_FAULT, possible, posteriors)


def _rank_posterior(query: Query) -> RankedDiagnoses:
    return _scored(query, Strategy.POSTERIOR, _singletons(query.model))


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
