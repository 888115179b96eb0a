"""Propositional reasoning over completed fault models.

Causal rules are strengthened into biconditional definitions (Clark
completion): each rule-defined observable becomes equivalent to the
disjunction of its rule bodies. Entailment and consistency questions are
then decided exactly over the hypothesis assignments: abduction evaluates
the facts and observations once per assignment into row bitmasks and
checks each candidate fault set with bit operations; the consistency
search and the scenario queries evaluate the assignments they concern
directly. Every search here and in the posterior table is capped by the
one size check in ``model`` (20 hypotheses by default).

Two diagnosis notions are provided:

* consistency-based: minimal fault sets whose exact-fault interpretation
  satisfies the hard constraints and all observation literals;
* abductive: minimal fault sets that, asserted as a scenario, entail the
  (all-positive) observations in every constraint-satisfying extension.

For models without hard constraints the two coincide on positive
observations, because rule bodies are positive conjunctions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import (
    FreeObservableError,
    InconsistentScenarioError,
    NegativeObservationError,
    UnexplainableObservationError,
    UnknownAtomError,
)
from .formulas import Atom, Formula, conjunction, disjunction, evaluate
from .model import (
    Diagnosis,
    FaultModel,
    Interpretation,
    ObservationSet,
    _check_hypothesis_cap,
    enumerate_interpretations,
    validate_observations,
)


@dataclass(frozen=True)
class CompletedTheory:
    """A fault model plus one defining formula per rule-defined observable."""

    model: FaultModel
    definitions: dict[str, Formula]


@dataclass(frozen=True)
class Scenario:
    """A set of hypothesis literals assumed true or false."""

    asserted: tuple[tuple[str, bool], ...] = ()

    @classmethod
    def of_faults(cls, *names: str) -> "Scenario":
        return cls(tuple((name, True) for name in names))


def clark_completion(model: FaultModel) -> CompletedTheory:
    """Define each rule-defined observable as the disjunction of its bodies."""
    definitions: dict[str, Formula] = {}
    for observable in model.observables:
        rules = model.rules_by_head.get(observable.id, ())
        if not rules:
            continue
        bodies = [conjunction([Atom(name) for name in rule.body]) for rule in rules]
        definitions[observable.id] = disjunction(bodies)
    return CompletedTheory(model, definitions)


def evaluate_formula(
    theory: CompletedTheory, formula: Formula, interpretation: Interpretation
) -> bool:
    """Evaluate ``formula``, expanding observables through their definitions."""
    mapping = interpretation.mapping
    model = theory.model

    def resolve(name: str) -> bool:
        if name in mapping:
            return mapping[name]
        definition = theory.definitions.get(name)
        if definition is not None:
            return evaluate(definition, resolve)
        if model.is_observable(name):
            raise FreeObservableError(f"free observable '{name}' has no definition")
        raise UnknownAtomError(f"unknown atom '{name}'")

    return evaluate(formula, resolve)


def satisfies_facts(theory: CompletedTheory, interpretation: Interpretation) -> bool:
    return all(
        evaluate_formula(theory, fact, interpretation)
        for fact in theory.model.extra_facts
    )


def satisfies_observations(
    theory: CompletedTheory, interpretation: Interpretation, observations: ObservationSet
) -> bool:
    return all(
        evaluate_formula(theory, Atom(name), interpretation) == polarity
        for name, polarity in observations.literals
    )


_OBSERVATION_ERRORS = {
    "unknown-observable": UnknownAtomError,
    "free-observable-observed": FreeObservableError,
}


def check_observations(model: FaultModel, observations: ObservationSet) -> None:
    """Raise the first finding of validate_observations: every observation
    literal must name a rule-defined observable."""
    for finding in validate_observations(model, observations):
        raise _OBSERVATION_ERRORS[finding.code](finding.message)


def _extensions(
    theory: CompletedTheory, scenario: Scenario, limit: int | None
) -> Iterator[Interpretation]:
    """All total assignments extending the scenario's literals."""
    model = theory.model
    fixed: dict[str, bool] = {}
    for name, polarity in scenario.asserted:
        if not model.is_hypothesis(name):
            raise UnknownAtomError(f"unknown hypothesis '{name}' in scenario")
        if fixed.get(name, polarity) != polarity:
            return  # self-contradictory scenario: no extensions
        fixed[name] = polarity
    free = [name for name in model.hypothesis_ids if name not in fixed]
    _check_hypothesis_cap(len(free), limit)
    ids = model.hypothesis_ids
    for bits in itertools.product((True, False), repeat=len(free)):
        env = dict(fixed)
        env.update(zip(free, bits))
        yield Interpretation(ids, tuple(env[name] for name in ids))


def scenario_consistent(
    theory: CompletedTheory,
    scenario: Scenario,
    observations: ObservationSet = ObservationSet(),
    limit: int | None = None,
) -> bool:
    """True iff some extension satisfies the facts and all observations."""
    check_observations(theory.model, observations)
    return any(
        satisfies_facts(theory, ext) and satisfies_observations(theory, ext, observations)
        for ext in _extensions(theory, scenario, limit)
    )


def scenario_explains(
    theory: CompletedTheory,
    scenario: Scenario,
    goal: Formula,
    limit: int | None = None,
) -> bool:
    """True iff every fact-satisfying extension of the scenario satisfies ``goal``."""
    if not scenario_consistent(theory, scenario, limit=limit):
        raise InconsistentScenarioError("inconsistent scenario")
    return all(
        evaluate_formula(theory, goal, ext)
        for ext in _extensions(theory, scenario, limit)
        if satisfies_facts(theory, ext)
    )


def maximal_scenarios(
    theory: CompletedTheory, model: FaultModel, limit: int | None = None
) -> list[Scenario]:
    """All set-inclusion-maximal consistent scenarios, i.e. the total
    assignments satisfying the hard constraints, in index order."""
    out: list[Scenario] = []
    for _index, interpretation in enumerate_interpretations(model, limit=limit):
        if satisfies_facts(theory, interpretation):
            out.append(Scenario(interpretation.literals()))
    return out


def _minimal_fault_sets(
    model: FaultModel, limit: int | None, accepts: Callable[[tuple[int, ...]], bool]
) -> list[Diagnosis]:
    """Set-inclusion-minimal fault sets (as sorted hypothesis indices) that
    ``accepts`` takes, ordered by cardinality then declaration order."""
    count = len(model.hypotheses)
    _check_hypothesis_cap(count, limit)
    ids = model.hypothesis_ids
    accepted: list[set[int]] = []
    result: list[Diagnosis] = []
    for size in range(count + 1):
        for combo in itertools.combinations(range(count), size):
            combo_set = set(combo)
            if any(prev <= combo_set for prev in accepted):
                continue
            if accepts(combo):
                accepted.append(combo_set)
                result.append(Diagnosis(frozenset(ids[k] for k in combo)))
    if not result:
        raise UnexplainableObservationError("observation unexplainable")
    return result


def consistency_diagnoses(
    theory: CompletedTheory,
    model: FaultModel,
    observations: ObservationSet,
    limit: int | None = None,
) -> list[Diagnosis]:
    """Minimal fault sets whose exact-fault interpretation satisfies the
    facts and observations; ordered by cardinality then declaration order."""
    check_observations(model, observations)
    ids = model.hypothesis_ids

    def consistent(combo: tuple[int, ...]) -> bool:
        interpretation = Interpretation(ids, tuple(k in combo for k in range(len(ids))))
        return satisfies_facts(theory, interpretation) and satisfies_observations(
            theory, interpretation, observations
        )

    return _minimal_fault_sets(model, limit, consistent)


def abductive_explanations(
    theory: CompletedTheory,
    model: FaultModel,
    observations: ObservationSet,
    limit: int | None = None,
) -> list[Diagnosis]:
    """Minimal fault sets that are consistent and entail the observations in
    every fact-satisfying extension; same ordering as consistency_diagnoses."""
    check_observations(model, observations)
    for name, polarity in observations.literals:
        if not polarity:
            raise NegativeObservationError(
                f"abduction requires positive observations (got '!{name}')"
            )
    # One pass over the rows: ``facts`` holds the rows that satisfy the
    # facts, ``bad`` those of them that contradict the observations.
    facts = bad = 0
    for index, interpretation in enumerate_interpretations(model, limit=limit):
        if satisfies_facts(theory, interpretation):
            facts |= 1 << index
            if not satisfies_observations(theory, interpretation, observations):
                bad |= 1 << index
    count = len(model.hypotheses)
    faulty_rows = [_faulty_rows(count, k) for k in range(count)]

    def explains(combo: tuple[int, ...]) -> bool:
        # The set's fact-satisfying extensions: rows where all of it is faulty.
        extensions = facts
        for k in combo:
            extensions &= faulty_rows[k]
        return extensions != 0 and extensions & bad == 0

    return _minimal_fault_sets(model, limit, explains)


def _faulty_rows(count: int, k: int) -> int:
    """Bitmask (bit i for row i) of the rows where hypothesis ``k`` of
    ``count`` is faulty, i.e. its index bit is 0: runs of ``half`` ones and
    ``half`` zeros from row 0, widened by doubling."""
    half = 1 << (count - 1 - k)
    mask, width = (1 << half) - 1, 2 * half
    while width < 1 << count:
        mask |= mask << width
        width *= 2
    return mask
