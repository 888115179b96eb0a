"""Exact posterior computation over interpretations by enumeration.

One ``Query`` per question (a model and its observations) completes the
model, compiles the row masks of its facts and observations (``logic``)
and builds the posterior table, each once, on first use; the rankers and
the treatment search read the mass of each distinct conjunction of
hypothesis literals from it once (``Query.mass``). The table is
one posterior per row, in index order: the row's prior, a prefix product
over the priors in declaration order, or an exact 0.0 outside the facts-
and-observations mask, normalized by the evidence probability. The prior
products take two list comprehensions per hypothesis and the posteriors
one more; the evidence, the most likely rows and the ranking by posterior
are C-level passes (``itertools.compress``, a sort by key), so building
and ranking the table calls no Python function per row. A row is its
index into ``posteriors``: marginals read them through row masks, and the
most likely interpretations and covering-mass sets are row indices.
``model.interpretation_at`` decodes one row. Sums of probabilities (the
evidence, every marginal) are correctly rounded (``math.fsum``), so they do
not depend on the order of the rows or on the interpreter's ``sum``.
"""

from __future__ import annotations

import itertools
import math
import operator
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
from .model import FaultModel, ObservationSet

TIE_EPSILON = 1e-9
MASS_EPSILON = 1e-9


@dataclass(frozen=True)
class PosteriorTable:
    """Normalized distribution over interpretations given the observations."""

    theory: CompletedTheory
    posteriors: tuple[float, ...]
    evidence_probability: float


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

    @cached_property
    def _masses(self) -> dict[tuple[int, int] | None, float]:
        return {}

    def mass(self, literals: Iterable[tuple[str, bool]]) -> float:
        """The posterior mass of a conjunction of hypothesis literals, read
        from the table, which is built first. Each distinct row mask is
        summed once per question: a conjunction's faulty and normal
        hypotheses name its row mask one to one (every contradictory one
        names the empty mask), so they key the sums. A name that is not a
        hypothesis, observables included, is an unknown atom."""
        table, index, masses = self.table, self.model.hypothesis_index, self._masses
        literals = tuple(literals)
        faulty = normal = 0
        for name, polarity in literals:
            if name not in index:
                raise UnknownAtomError(f"unknown atom '{name}'")
            if polarity:
                faulty |= 1 << index[name]
            else:
                normal |= 1 << index[name]
        key = None if faulty & normal else (faulty, normal)
        if key not in masses:
            masses[key] = marginal(table, _literals(literals))
        return masses[key]


def _build_table(query: Query) -> PosteriorTable:
    """The weights double once per hypothesis: a row's weight times p makes
    the row where the hypothesis is faulty, times 1 - p the normal one next
    to it."""
    possible = _selectors(query.good, 1 << len(query.model.hypotheses))
    weights = [1.0]
    for hypothesis in query.model.hypotheses:
        p = hypothesis.prior
        q = 1.0 - p
        extended = weights * 2
        extended[0::2] = [x * p for x in weights]
        extended[1::2] = [x * q for x in weights]
        weights = extended
    evidence = math.fsum(itertools.compress(weights, possible))
    if evidence == 0.0:
        raise ZeroProbabilityObservationError("observation has zero probability")
    posteriors = tuple([weight / evidence if keep else 0.0 for weight, keep in zip(weights, possible)])
    return PosteriorTable(query.theory, posteriors, evidence)


def posterior_table(model: FaultModel, observations: ObservationSet) -> PosteriorTable:
    """Condition the product prior on the observations and hard constraints."""
    return Query(model, observations).table


def marginal(table: PosteriorTable, formula: Formula) -> float:
    """Posterior probability of an arbitrary formula: the correctly rounded
    sum over the rows satisfying it (observables expanded through their
    definitions)."""
    selected = _selectors(_rows(table.theory, formula), len(table.posteriors))
    return math.fsum(itertools.compress(table.posteriors, selected))


def most_likely_interpretations(table: PosteriorTable) -> list[int]:
    """The rows within TIE_EPSILON of the maximum posterior, in index order."""
    floor = max(table.posteriors) - TIE_EPSILON
    return list(itertools.compress(itertools.count(), map(floor.__le__, table.posteriors)))


def _by_posterior(table: PosteriorTable) -> list[int]:
    """Every row, by descending posterior and then index: the rows with a
    nonzero posterior sorted stably, then the zero rows in index order."""
    posteriors = table.posteriors
    ranked = list(itertools.compress(itertools.count(), posteriors))
    ranked.sort(key=posteriors.__getitem__, reverse=True)
    ranked.extend(itertools.compress(itertools.count(), map(operator.not_, posteriors)))
    return ranked


def covering_mass_set(table: PosteriorTable, mass: float) -> list[int]:
    """Shortest prefix of rows (sorted by descending posterior, ties by
    index) whose cumulative posterior reaches ``mass``."""
    if not 0.0 < mass <= 1.0:
        raise ValueError(f"mass must lie in (0, 1], got {mass!r}")
    ranked = _by_posterior(table)
    cumulative = 0.0
    for count, index in enumerate(ranked, start=1):
        cumulative += table.posteriors[index]
        if cumulative >= mass - MASS_EPSILON:
            return ranked[:count]
    return ranked
