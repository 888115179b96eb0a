"""Exact posterior computation over interpretations by enumeration.

One ``Query`` per question (a model and its observations) completes the
model, compiles the row masks of its facts and observations (``logic``)
and builds the posterior table, each once, on first use. The table is
one posterior per row, in index order: the row's prior, a prefix product
over the priors in declaration order, or an exact 0.0 outside the facts-
and-observations mask, normalized by the evidence probability. A row is
its index into ``posteriors``: marginals read them through row masks, and
the most likely interpretations and covering-mass sets are row indices.
``model.interpretation_at`` decodes one row. Sums of probabilities (the
evidence, every marginal) are correctly rounded (``math.fsum``), so they do
not depend on the order of the rows or on the interpreter's ``sum``.
"""

from __future__ import annotations

import itertools
import math
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
from .model import FaultModel, Interpretation, ObservationSet

TIE_EPSILON = 1e-9
MASS_EPSILON = 1e-9


@dataclass(frozen=True)
class PosteriorTable:
    """Normalized distribution over interpretations given the observations."""

    theory: CompletedTheory
    posteriors: tuple[float, ...]
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
    possible = _selectors(query.good, 1 << len(query.model.hypotheses))
    weights = [1.0]
    for hypothesis in query.model.hypotheses:
        p = hypothesis.prior
        weights = [x * f for x in weights for f in (p, 1.0 - p)]
    weights = [weight if keep else 0.0 for weight, keep in zip(weights, possible)]
    evidence = math.fsum(weights)
    if evidence == 0.0:
        raise ZeroProbabilityObservationError("observation has zero probability")
    posteriors = tuple(weight / evidence for weight in weights)
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


def _literal_mass(table: PosteriorTable, literals: Iterable[tuple[str, bool]]) -> float:
    """Posterior mass of a conjunction of hypothesis literals; a name that
    is not a hypothesis, observables included, is an unknown atom."""
    literals = tuple(literals)
    for name, _polarity in literals:
        if not table.theory.model.is_hypothesis(name):
            raise UnknownAtomError(f"unknown atom '{name}'")
    return marginal(table, _literals(literals))


def most_likely_interpretations(table: PosteriorTable) -> list[int]:
    """The rows within TIE_EPSILON of the maximum posterior, in index order."""
    floor = max(table.posteriors) - TIE_EPSILON
    return [index for index, posterior in enumerate(table.posteriors) if posterior >= floor]


def _by_posterior(table: PosteriorTable) -> list[int]:
    """Every row, by descending posterior and then index."""
    return sorted(range(len(table.posteriors)), key=table.posteriors.__getitem__, reverse=True)


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
