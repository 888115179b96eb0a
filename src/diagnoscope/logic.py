"""Propositional reasoning over completed fault models.

Causal rules are strengthened into biconditional definitions (Clark
completion): each rule-defined observable becomes equivalent to the
disjunction of its rule bodies. Every question is then decided exactly
over the 2^m hypothesis assignments (the rows, in ``model``'s index
order) in one representation: a formula's row mask has bit i set where it
holds on row i (``_rows``). Facts, observations, scenarios and marginal
formulas are masks; a fault set S is its exact-fault row, so a family of
fault sets is a mask too, whose minimal sets come from m shift-ORs. The
one size check in ``model`` (a cap of 20 hypotheses) runs before any mask
is built.

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
from typing import Callable, Iterable

from .errors import (
    FreeObservableError,
    InconsistentScenarioError,
    NegativeObservationError,
    UnexplainableObservationError,
    UnknownAtomError,
)
from .formulas import Atom, Formula, Not, Truth, conjunction, disjunction, evaluate
from .model import (
    FaultModel,
    Interpretation,
    ObservationSet,
    _check_hypothesis_cap,
    interpretation_at,
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
    """Define each rule-defined observable as the disjunction of its bodies.
    A body atom must be a hypothesis (``validate_model``): an observable
    there could define itself through a cycle."""
    definitions: dict[str, Formula] = {}
    for observable in model.observables:
        rules = model.rules_by_head.get(observable.id, ())
        if not rules:
            continue
        for rule in rules:
            for name in rule.body:
                if not model.is_hypothesis(name):
                    raise UnknownAtomError(f"rule body atom '{name}' is not a hypothesis")
        bodies = [conjunction([Atom(name) for name in rule.body]) for rule in rules]
        definitions[observable.id] = disjunction(bodies)
    return CompletedTheory(model, definitions)


def _evaluate(
    theory: CompletedTheory,
    formula: Formula,
    value: Callable[[str], Truth],
    true: Truth,
) -> Truth:
    """Evaluate ``formula`` with ``value(name)`` for each hypothesis atom,
    expanding observables through their definitions. A definition is
    evaluated by a call of its own, so ``resolve`` holds no reference to
    itself and is freed without the cyclic collector."""
    model = theory.model

    def resolve(name: str) -> Truth:
        if model.is_hypothesis(name):
            return value(name)
        definition = theory.definitions.get(name)
        if definition is not None:
            return _evaluate(theory, definition, value, true)
        if model.is_observable(name):
            raise FreeObservableError(f"free observable '{name}' has no definition")
        raise UnknownAtomError(f"unknown atom '{name}'")

    return evaluate(formula, resolve, true)


def _rows(theory: CompletedTheory, formula: Formula) -> int:
    """The row mask of ``formula``: bit i is set where it holds on row i."""
    count = len(theory.model.hypotheses)
    index = theory.model.hypothesis_index
    every_row = (1 << (1 << count)) - 1
    return _evaluate(
        theory, formula, lambda name: _faulty_rows(count, index[name]), every_row
    )


def satisfies_observations(
    theory: CompletedTheory, interpretation: Interpretation, observations: ObservationSet
) -> bool:
    """One row's test of the observations. Nothing in the package calls it:
    it stays only for the benchmark tracer, which counts its calls by name,
    until the tracer reads the engine's own counters (the benchmarks part of
    ROADMAP item 5). A hypothesis of the theory that ``interpretation``
    lacks is an UnknownAtomError."""
    values = dict(interpretation.literals())

    def value(name: str) -> bool:
        if name not in values:
            raise UnknownAtomError(f"unknown atom '{name}'")
        return values[name]

    return _evaluate(theory, _literals(observations.literals), value, True)


def _literals(literals: Iterable[tuple[str, bool]]) -> Formula:
    """The conjunction of (name, polarity) literals."""
    return conjunction(
        Atom(name) if polarity else Not(Atom(name)) for name, polarity in literals
    )


def _possible_rows(theory: CompletedTheory, literals: tuple[tuple[str, bool], ...]) -> int:
    """The rows that satisfy the facts and every literal. Every query over
    the rows starts here, so the size check runs before any mask is built."""
    model = theory.model
    _check_hypothesis_cap(len(model.hypotheses))
    return _rows(theory, conjunction(model.extra_facts + (_literals(literals),)))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _selectors(mask: int, size: int) -> bytes:
    """Byte i is 1 where bit i of ``mask`` is set, else 0, for i < ``size``;
    the form ``itertools.compress`` takes."""
    return format(mask, f"0{size}b")[::-1].encode().translate(_BITS)


_OBSERVATION_ERRORS = {
    "unknown-observable": UnknownAtomError,
    "free-observable-observed": FreeObservableError,
}


def check_observations(model: FaultModel, observations: ObservationSet) -> None:
    """Raise the first finding of validate_observations: every observation
    literal must name a rule-defined observable."""
    for finding in validate_observations(model, observations):
        raise _OBSERVATION_ERRORS[finding.code](finding.message)


def _check_scenario(model: FaultModel, scenario: Scenario) -> None:
    for name, _polarity in scenario.asserted:
        if not model.is_hypothesis(name):
            raise UnknownAtomError(f"unknown hypothesis '{name}' in scenario")


def scenario_consistent(
    theory: CompletedTheory,
    scenario: Scenario,
    observations: ObservationSet = ObservationSet(),
) -> bool:
    """True iff some extension satisfies the facts and all observations."""
    check_observations(theory.model, observations)
    _check_scenario(theory.model, scenario)
    literals = observations.literals + scenario.asserted
    return _possible_rows(theory, literals) != 0


def scenario_explains(theory: CompletedTheory, scenario: Scenario, goal: Formula) -> bool:
    """True iff every fact-satisfying extension of the scenario satisfies ``goal``."""
    _check_scenario(theory.model, scenario)
    extensions = _possible_rows(theory, scenario.asserted)
    if not extensions:
        raise InconsistentScenarioError("inconsistent scenario")
    return extensions & ~_rows(theory, goal) == 0


def maximal_scenarios(theory: CompletedTheory) -> list[Scenario]:
    """All set-inclusion-maximal consistent scenarios, i.e. the total
    assignments satisfying the hard constraints, in index order."""
    model = theory.model
    facts = _possible_rows(theory, ())
    size = 1 << len(model.hypotheses)
    rows = itertools.compress(itertools.count(), _selectors(facts, size))
    return [Scenario(interpretation_at(model, row).literals()) for row in rows]


def _closure(rows: int, count: int, up: bool) -> int:
    """Close a row mask under setting (``up``) or clearing index bits, one
    shift-OR per bit (the fast zeta transform): as a set index bit means
    normal, closing up adds every subset of each row's fault set and
    closing down every superset."""
    for k in range(count):
        shift = 1 << (count - 1 - k)  # hypothesis k's index bit
        faulty = _faulty_rows(count, k)  # the rows where that bit is 0
        rows |= (rows & faulty) << shift if up else (rows & ~faulty) >> shift
    return rows


def _minimal_fault_sets(model: FaultModel, family: int) -> list[int]:
    """The set-inclusion-minimal members of a family of fault sets, each
    set its exact-fault row, the family their row mask; ordered by
    cardinality then declaration order."""
    count = len(model.hypotheses)
    supersets = _closure(family, count, up=False)
    for k in range(count):
        # A member holding k is not minimal when, without k, it is still a
        # superset of a member: shifting the rows of ``supersets`` where k
        # is normal down by k's index bit adds k back.
        family &= ~((supersets & ~_faulty_rows(count, k)) >> (1 << (count - 1 - k)))
    rows = itertools.compress(itertools.count(), _selectors(family, 1 << count))
    # Fewest faults (most normal index bits) first; within one size, index
    # order is declaration order (the order of itertools.combinations).
    rows = sorted(rows, key=lambda row: -row.bit_count())
    if not rows:
        raise UnexplainableObservationError("observation unexplainable")
    return rows


def consistency_diagnoses(
    theory: CompletedTheory, observations: ObservationSet
) -> list[frozenset[str]]:
    """Minimal fault sets whose exact-fault interpretation satisfies the
    facts and observations; ordered by cardinality then declaration order."""
    check_observations(theory.model, observations)
    rows = _minimal_fault_sets(theory.model, _possible_rows(theory, observations.literals))
    return [frozenset(interpretation_at(theory.model, row).true_ids()) for row in rows]


def abductive_explanations(
    theory: CompletedTheory, observations: ObservationSet
) -> list[frozenset[str]]:
    """Minimal fault sets that are consistent and entail the observations in
    every fact-satisfying extension; same ordering as consistency_diagnoses."""
    _check_abducible(theory.model, observations)
    facts = _possible_rows(theory, ())
    rows = _explanations(theory.model, facts, facts & _rows(theory, _literals(observations.literals)))
    return [frozenset(interpretation_at(theory.model, row).true_ids()) for row in rows]


def _check_abducible(model: FaultModel, observations: ObservationSet) -> None:
    """Abduction's checks, before the size check: known, positive literals."""
    check_observations(model, observations)
    for name, polarity in observations.literals:
        if not polarity:
            raise NegativeObservationError(
                f"abduction requires positive observations (got '!{name}')"
            )


def _explanations(model: FaultModel, facts: int, good: int) -> list[int]:
    """The exact-fault rows of the minimal explaining fault sets, from the
    row masks of the facts and of the facts and observations."""
    count = len(model.hypotheses)
    # S explains when some fact row makes all of S faulty, and no fact row
    # that contradicts the observations does.
    family = _closure(facts, count, up=True) & ~_closure(facts & ~good, count, up=True)
    return _minimal_fault_sets(model, family)


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
