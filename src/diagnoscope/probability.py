"""Exact posterior computation over interpretations by enumeration.

One ``Query`` per question (a model and its observations) completes the
model, compiles the row masks of its facts and observations (``logic``)
and builds the posterior table, each once, on first use. The table
conditions the product prior on the observations and hard constraints:
each interpretation's weight is its joint prior if its row is in the
facts-and-observations mask, else an exact 0.0, normalized by the
evidence probability. Every downstream probability (marginals, most
likely interpretations, covering-mass sets) is a sum over table rows in
index order; a marginal sums the rows of its formula's mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import UnknownAtomError, ZeroProbabilityObservationError
from .formulas import Formula
from .logic import (
    CompletedTheory,
    _literals,
    _possible_rows,
    _rows,
    _selectors,
    check_observations,
    clark_completion,
)
from .model import FaultModel, Interpretation, ObservationSet, enumerate_interpretations

TIE_EPSILON = 1e-9
MASS_EPSILON = 1e-9


@dataclass(frozen=True)
class TableEntry:
    index: int
    interpretation: Interpretation
    posterior: float


@dataclass(frozen=True)
class PosteriorTable:
    """Normalized distribution over interpretations given the observations."""

    model: FaultModel
    theory: CompletedTheory
    observations: ObservationSet
    entries: tuple[TableEntry, ...]
    evidence_probability: float


def joint_prior(model: FaultModel, interpretation: Interpretation) -> float:
    """Product of per-hypothesis priors (faulty) or complements (normal)."""
    prob = 1.0
    for hypothesis, value in zip(model.hypotheses, interpretation.values):
        prob *= hypothesis.prior if value else 1.0 - hypothesis.prior
    return prob


@dataclass(frozen=True)
class Query:
    """One diagnostic question, a model and its observations. Each part is
    computed on first use and then shared by every answer to the question;
    a failed check raises again on each use, a failed table build is kept."""

    model: FaultModel
    observations: ObservationSet

    @cached_property
    def theory(self) -> CompletedTheory:
        return clark_completion(self.model)

    @cached_property
    def facts(self) -> int:
        """The row mask of the facts, after the size check."""
        return _possible_rows(self.theory, ())

    @cached_property
    def good(self) -> int:
        """The rows that satisfy the facts and every observation literal."""
        check_observations(self.model, self.observations)
        return self.facts & _rows(self.theory, _literals(self.observations.literals))

    @cached_property
    def _table(self) -> PosteriorTable | ZeroProbabilityObservationError:
        try:
            return _build_table(self)
        except ZeroProbabilityObservationError as exc:
            return exc

    @property
    def table(self) -> PosteriorTable:
        """The posterior table of the question."""
        table = self._table
        if isinstance(table, ZeroProbabilityObservationError):
            raise table
        return table


def _build_table(query: Query) -> PosteriorTable:
    model = query.model
    possible = _selectors(query.good, 1 << len(model.hypotheses))
    weighted = [
        (index, interpretation, joint_prior(model, interpretation) if possible[index] else 0.0)
        for index, interpretation in enumerate_interpretations(model)
    ]
    evidence = sum(weight for _, _, weight in weighted)
    if evidence == 0.0:
        raise ZeroProbabilityObservationError("observation has zero probability")
    entries = tuple(
        TableEntry(index, interpretation, weight / evidence)
        for index, interpretation, weight in weighted
    )
    return PosteriorTable(model, query.theory, query.observations, entries, evidence)


def posterior_table(model: FaultModel, observations: ObservationSet) -> PosteriorTable:
    """Condition the product prior on the observations and hard constraints."""
    return Query(model, observations).table


def marginal(table: PosteriorTable, formula: Formula) -> float:
    """Posterior probability of an arbitrary formula: the sum over the rows
    satisfying it (observables expanded through their definitions), in
    index order."""
    selected = _selectors(_rows(table.theory, formula), len(table.entries))
    posteriors = (entry.posterior for entry in table.entries)
    return sum(itertools.compress(posteriors, selected), 0.0)


def _literal_mass(table: PosteriorTable, literals: Iterable[tuple[str, bool]]) -> float:
    """Posterior mass of a conjunction of hypothesis literals; a name that
    is not a hypothesis, observables included, is an unknown atom."""
    literals = tuple(literals)
    for name, _polarity in literals:
        if not table.model.is_hypothesis(name):
            raise UnknownAtomError(f"unknown atom '{name}'")
    return marginal(table, _literals(literals))


def most_likely_interpretations(table: PosteriorTable) -> list[TableEntry]:
    """All rows within TIE_EPSILON of the maximum posterior, index order."""
    best = max(entry.posterior for entry in table.entries)
    return [entry for entry in table.entries if entry.posterior >= best - TIE_EPSILON]


def covering_mass_set(table: PosteriorTable, mass: float) -> list[TableEntry]:
    """Shortest prefix of rows (sorted by descending posterior, ties by
    index) whose cumulative posterior reaches ``mass``."""
    if not 0.0 < mass <= 1.0:
        raise ValueError(f"mass must lie in (0, 1], got {mass!r}")
    ranked = sorted(table.entries, key=lambda entry: (-entry.posterior, entry.index))
    prefix: list[TableEntry] = []
    cumulative = 0.0
    for entry in ranked:
        prefix.append(entry)
        cumulative += entry.posterior
        if cumulative >= mass - MASS_EPSILON:
            break
    return prefix
