"""Exact posterior computation over interpretations by enumeration.

The posterior table conditions the product prior on the observations and
hard constraints: each interpretation's weight is its joint prior times an
indicator, normalized by the evidence probability. Impossible rows keep an
exact 0.0. Every downstream probability (marginals of arbitrary formulas,
most likely interpretations, covering-mass sets) is a sum over table rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import UnknownAtomError, ZeroProbabilityObservationError
from .formulas import Formula
from .logic import (
    CompletedTheory,
    satisfies_facts,
    satisfies_observations,
    check_observations,
    clark_completion,
    evaluate_formula,
)
from .model import FaultModel, Interpretation, ObservationSet, enumerate_interpretations

DEFAULT_TIE_EPSILON = 1e-9
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


# Returns a query's posterior table. Taken instead of a table by consumers
# whose own checks must run (and fail) before the table is touched.
TableSource = Callable[[], PosteriorTable]


def joint_prior(model: FaultModel, interpretation: Interpretation) -> float:
    """Product of per-hypothesis priors (faulty) or complements (normal)."""
    prob = 1.0
    for hypothesis, value in zip(model.hypotheses, interpretation.values):
        prob *= hypothesis.prior if value else 1.0 - hypothesis.prior
    return prob


def posterior_table(
    model: FaultModel, observations: ObservationSet, limit: int | None = None
) -> PosteriorTable:
    """Condition the product prior on the observations and hard constraints."""
    check_observations(model, observations)
    theory = clark_completion(model)
    weighted: list[tuple[int, Interpretation, float]] = []
    for index, interpretation in enumerate_interpretations(model, limit=limit):
        possible = satisfies_facts(theory, interpretation) and satisfies_observations(
            theory, interpretation, observations
        )
        weight = joint_prior(model, interpretation) if possible else 0.0
        weighted.append((index, interpretation, weight))
    evidence = sum(weight for _, _, weight in weighted)
    if evidence == 0.0:
        raise ZeroProbabilityObservationError("observation has zero probability")
    entries = tuple(
        TableEntry(index, interpretation, weight / evidence)
        for index, interpretation, weight in weighted
    )
    return PosteriorTable(model, theory, observations, entries, evidence)


def marginal(table: PosteriorTable, formula: Formula) -> float:
    """Posterior probability of an arbitrary formula: the sum over rows
    satisfying it (observables expanded through their definitions)."""
    return sum(
        entry.posterior
        for entry in table.entries
        if evaluate_formula(table.theory, formula, entry.interpretation)
    )


def _literal_mass(table: PosteriorTable, literals: Iterable[tuple[str, bool]]) -> float:
    """Posterior mass of a conjunction of hypothesis literals: the sum over
    the rows whose index bits match, in index order, so it equals
    ``marginal`` of the same conjunction to the last bit."""
    model = table.model
    count = len(model.hypotheses)
    mask = want = 0
    for name, polarity in literals:
        if not model.is_hypothesis(name):
            raise UnknownAtomError(f"unknown atom '{name}'")
        bit = 1 << (count - 1 - model.hypothesis_index[name])
        value = 0 if polarity else bit  # a 1 bit means the hypothesis is normal
        if mask & bit and want & bit != value:
            return 0.0  # contradictory literals: no row matches
        mask |= bit
        want |= value
    return sum(entry.posterior for entry in table.entries if entry.index & mask == want)


def most_likely_interpretations(
    table: PosteriorTable, tie_epsilon: float = DEFAULT_TIE_EPSILON
) -> list[TableEntry]:
    """All rows within ``tie_epsilon`` of the maximum posterior, index order."""
    best = max(entry.posterior for entry in table.entries)
    return [entry for entry in table.entries if entry.posterior >= best - tie_epsilon]


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
