"""Utility-based treatment selection over the posterior table.

Utility is state-based, not tied to any diagnosis: on each row, every
treatment pays the additive entry for whether it is chosen and its target
is faulty, and every joint term pays its value where its ``when`` holds
and its ``given`` matches the set. Expected utility is linear in the row
weights, so it is computed from the posterior masses of each treatment's
target and of each joint term's ``when`` pattern, read once from the
table of the question's ``probability.Query``; the optimizer then scores
all 2^l treatment subsets exhaustively, each in O(treatments + joint
terms). For purely additive utilities each treatment also has a
closed-form probability threshold above which treating beats skipping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DiagnoscopeError, NoFiniteThresholdError, SearchSpaceError
from .model import (
    AdditiveEntry,
    FaultModel,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
    ZERO_ENTRY,
)
from .probability import PosteriorTable, Query, _literal_mass

TREATMENT_CAP = 20


@dataclass(frozen=True)
class TreatmentDecision:
    """The chosen treatment set, its expected utility, and (for additive
    utilities) each treatment's standalone contribution."""

    chosen: frozenset[str]
    expected_utility: float
    per_treatment_breakdown: dict[str, float] | None = None


def _entry_value(entry: AdditiveEntry, treating: bool, faulty: bool) -> float:
    if treating:
        return entry.treat_faulty if faulty else entry.treat_ok
    return entry.skip_faulty if faulty else entry.skip_ok


def _utility_parts(
    table: PosteriorTable,
    utility: UtilityModel,
    treatments: tuple[TreatmentAction, ...],
) -> Callable[[frozenset[str]], list[float]]:
    """The terms whose sum is a treatment set's expected utility.

    Expected utility is linear in the row weights, so one pass over the
    table for each treatment's P(target faulty) and each joint term's
    P(when) is enough: a set's terms are then p*v(faulty) + (1-p)*v(ok)
    per treatment, in declaration order, and p_when * value per joint term
    whose ``given`` matches the set.
    """
    per_treatment = []
    for treatment in treatments:
        entry = utility.additive.get(treatment.id, ZERO_ENTRY)
        p = _literal_mass(table, ((treatment.target, True),))
        treat, skip = (
            p * _entry_value(entry, treating, True)
            + (1.0 - p) * _entry_value(entry, treating, False)
            for treating in (True, False)
        )
        per_treatment.append((treatment.id, treat, skip))
    per_joint = [
        (joint.given, _literal_mass(table, joint.when) * joint.value)
        for joint in utility.joint_entries
    ]

    def parts(selected: frozenset[str]) -> list[float]:
        terms = [treat if tid in selected else skip for tid, treat, skip in per_treatment]
        terms.extend(
            value
            for given, value in per_joint
            if all((tid in selected) == pol for tid, pol in given)
        )
        return terms

    return parts


def _total(terms: list[float]) -> float:
    """The correctly rounded sum of a set's utility terms; a sum beyond the
    float range is a domain error."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DiagnoscopeError("expected utility overflows the float range") from None


def expected_utility(
    model: FaultModel,
    observations: ObservationSet,
    utility: UtilityModel,
    treatments: tuple[TreatmentAction, ...],
    selected: frozenset[str],
) -> float:
    """Expected utility of the treatment set ``selected`` given the observations."""
    return _total(_utility_parts(Query(model, observations).table, utility, treatments)(selected))


def optimal_treatment(
    model: FaultModel,
    observations: ObservationSet,
    utility: UtilityModel,
    treatments: tuple[TreatmentAction, ...],
) -> TreatmentDecision:
    """Exhaustively maximize expected utility over all treatment subsets.

    Ties go to the smallest set, then lexicographically smallest ids.
    """
    return _optimal_treatment(Query(model, observations), utility, treatments)


def _optimal_treatment(
    query: Query, utility: UtilityModel, treatments: tuple[TreatmentAction, ...]
) -> TreatmentDecision:
    """optimal_treatment over a shared query; its table is read after the cap check."""
    if len(treatments) > TREATMENT_CAP:
        raise SearchSpaceError(
            f"treatment space too large: {len(treatments)} treatments"
            f" exceed the cap of {TREATMENT_CAP}"
        )
    parts = _utility_parts(query.table, utility, treatments)
    ids = sorted(treatment.id for treatment in treatments)
    best_set: frozenset[str] = frozenset()
    best_utility = float("-inf")
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            selected = frozenset(combo)
            value = _total(parts(selected))
            if value > best_utility:
                best_utility = value
                best_set = selected
    breakdown: dict[str, float] | None = None
    if not utility.joint_entries:
        breakdown = dict(zip((t.id for t in treatments), parts(best_set)))
    return TreatmentDecision(best_set, best_utility, breakdown)


def additive_fix_threshold(entry: AdditiveEntry) -> float:
    """Fault probability above which treating beats skipping.

    Solves p*treat_faulty + (1-p)*treat_ok > p*skip_faulty + (1-p)*skip_ok
    for p. Raises NoFiniteThresholdError when the comparison has no
    crossing of that form inside [0, 1).
    """
    gain = (entry.treat_faulty - entry.skip_faulty) + (entry.skip_ok - entry.treat_ok)
    if gain == 0.0:
        diff = entry.treat_ok - entry.skip_ok
        if diff > 0:
            direction = "always-treat"
        elif diff < 0:
            direction = "never-treat"
        else:
            direction = "indifferent"
        raise NoFiniteThresholdError(
            f"no finite threshold: utility difference is constant ({direction})",
            direction,
        )
    if gain < 0.0:
        raise NoFiniteThresholdError(
            "no finite threshold: treating pays off only at low fault probability (reversed)",
            "reversed",
        )
    threshold = (entry.skip_ok - entry.treat_ok) / gain
    if threshold >= 1.0:
        raise NoFiniteThresholdError(
            "no finite threshold: treating is dominated (never treat)", "never-treat"
        )
    if threshold < 0.0:
        raise NoFiniteThresholdError(
            "no finite threshold: skipping is dominated (always treat)", "always-treat"
        )
    return threshold
