"""Core data model for propositional fault diagnosis.

A fault model declares hypotheses (independent fault propositions with
prior probabilities), observable variables, causal rules from fault
conjunctions to observables, and optional hard constraints among the
hypotheses. Validation reports structural violations as findings instead
of raising, so tooling can surface every problem at once.

Interpretation indexing convention: hypotheses in declaration order map to
index bits from most significant to least, and a bit is 1 when the
hypothesis is FALSE. Index 0 is therefore the all-faulty interpretation
and index 2^m - 1 the all-normal one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Callable, Iterator, Sequence

from .errors import SearchSpaceError, UnknownAtomError
from .formulas import Formula, atom_names

HYPOTHESIS_CAP = 20


@dataclass(frozen=True)
class Hypothesis:
    """An atomic fault proposition with an independent prior probability."""

    id: str
    prior: float


@dataclass(frozen=True)
class ObservableVar:
    """A variable whose value can be observed.

    Observables are normally defined by causal rules; one declared ``free``
    has no defining rules and cannot be conditioned on.
    """

    id: str
    free: bool = False


@dataclass(frozen=True)
class CausalRule:
    """``body`` (a conjunction of faults, possibly empty) causes ``head``."""

    body: tuple[str, ...]
    head: str


@dataclass(frozen=True)
class FaultModel:
    """Hypotheses, observables, causal rules, and hard constraints."""

    hypotheses: tuple[Hypothesis, ...]
    observables: tuple[ObservableVar, ...]
    rules: tuple[CausalRule, ...]
    extra_facts: tuple[Formula, ...] = ()

    @cached_property
    def hypothesis_ids(self) -> tuple[str, ...]:
        return tuple(h.id for h in self.hypotheses)

    @cached_property
    def hypothesis_index(self) -> dict[str, int]:
        return {h.id: k for k, h in enumerate(self.hypotheses)}

    @cached_property
    def observable_by_id(self) -> dict[str, ObservableVar]:
        return {o.id: o for o in self.observables}

    @cached_property
    def rules_by_head(self) -> dict[str, tuple[CausalRule, ...]]:
        grouped: dict[str, list[CausalRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.head, []).append(rule)
        return {head: tuple(rules) for head, rules in grouped.items()}

    def is_hypothesis(self, name: str) -> bool:
        return name in self.hypothesis_index

    def is_observable(self, name: str) -> bool:
        return name in self.observable_by_id


@dataclass(frozen=True)
class ObservationSet:
    """A conjunction of observation literals, one polarity per observable."""

    literals: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self) -> None:
        seen: dict[str, bool] = {}
        deduped: list[tuple[str, bool]] = []
        for name, polarity in self.literals:
            if name in seen:
                if seen[name] != polarity:
                    raise ValueError(f"contradictory observation of '{name}'")
                continue
            seen[name] = polarity
            deduped.append((name, polarity))
        object.__setattr__(self, "literals", tuple(deduped))

    @classmethod
    def of(cls, *literals: str) -> "ObservationSet":
        """Build from text literals; a leading ``!`` negates (``"!E"``)."""
        pairs = []
        for lit in literals:
            if lit.startswith("!"):
                pairs.append((lit[1:], False))
            else:
                pairs.append((lit, True))
        return cls(tuple(pairs))

    @property
    def all_positive(self) -> bool:
        return all(polarity for _, polarity in self.literals)


@dataclass(frozen=True)
class Interpretation:
    """A total truth assignment over the model's hypotheses."""

    ids: tuple[str, ...]
    values: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.values):
            raise ValueError("interpretation ids and values differ in length")

    @cached_property
    def mapping(self) -> dict[str, bool]:
        return dict(zip(self.ids, self.values))

    def value(self, name: str) -> bool:
        try:
            return self.mapping[name]
        except KeyError:
            raise UnknownAtomError(f"unknown atom '{name}'") from None

    def true_ids(self) -> tuple[str, ...]:
        return tuple(name for name, val in zip(self.ids, self.values) if val)

    def literals(self) -> tuple[tuple[str, bool], ...]:
        return tuple(zip(self.ids, self.values))


@dataclass(frozen=True)
class TreatmentAction:
    """A repair action addressing a single hypothesis."""

    id: str
    target: str


@dataclass(frozen=True)
class AdditiveEntry:
    """Per-treatment utility values for the four (chosen, faulty) cases."""

    treat_faulty: float
    treat_ok: float
    skip_faulty: float
    skip_ok: float


ZERO_ENTRY = AdditiveEntry(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class JointEntry:
    """A utility term paid when both patterns match.

    ``when`` lists hypothesis literals that must hold in the true state;
    ``given`` lists treatments that must be in (True) or out (False) of
    the chosen treatment set.
    """

    when: tuple[tuple[str, bool], ...]
    given: tuple[tuple[str, bool], ...]
    value: float


@dataclass(frozen=True)
class UtilityModel:
    """Additive per-treatment entries plus optional joint interaction terms."""

    additive: dict[str, AdditiveEntry] = field(default_factory=dict)
    joint_entries: tuple[JointEntry, ...] = ()


@dataclass(frozen=True)
class ValidationFinding:
    """One structural violation found in a model or bundle."""

    code: str
    message: str


def validate_model(model: FaultModel) -> list[ValidationFinding]:
    """Return every structural violation; an empty list means valid."""
    findings: list[ValidationFinding] = []
    add = _adder(findings)
    declared: dict[str, str] = {}
    for hyp in model.hypotheses:
        if hyp.id in declared:
            add("duplicate-id", f"duplicate id: hypothesis '{hyp.id}' declared twice")
        declared[hyp.id] = "hypothesis"
    for obs in model.observables:
        if declared.get(obs.id) == "hypothesis":
            add("shared-id", f"shared id: '{obs.id}' is both a hypothesis and an observable")
        elif obs.id in declared:
            add("duplicate-id", f"duplicate id: observable '{obs.id}' declared twice")
        declared[obs.id] = "observable"

    for hyp in model.hypotheses:
        if not (isfinite(hyp.prior) and 0.0 <= hyp.prior <= 1.0):
            add(
                "prior-out-of-range",
                f"prior out of range: hypothesis '{hyp.id}' has prior {hyp.prior!r}",
            )

    for rule in model.rules:
        for atom in rule.body:
            if not model.is_hypothesis(atom):
                add(
                    "unknown-hypothesis",
                    f"unknown hypothesis: rule body atom '{atom}' is not declared",
                )
        if not model.is_observable(rule.head):
            add(
                "unknown-observable",
                f"unknown observable: rule head '{rule.head}' is not declared",
            )

    for obs in model.observables:
        has_rules = bool(model.rules_by_head.get(obs.id))
        if not has_rules and not obs.free:
            add(
                "undefined-observable",
                f"observable '{obs.id}' has no defining rule and is not declared free",
            )
        if has_rules and obs.free:
            add("free-with-rules", f"free observable '{obs.id}' also has defining rules")

    for fact in model.extra_facts:
        for name in sorted(atom_names(fact)):
            if not model.is_hypothesis(name):
                add("fact-non-hypothesis-atom", f"fact mentions non-hypothesis atom '{name}'")
    return findings


def validate_observations(
    model: FaultModel, observations: ObservationSet
) -> list[ValidationFinding]:
    """Check observation literals against the model's declarations."""
    findings: list[ValidationFinding] = []
    add = _adder(findings)
    for name, _polarity in observations.literals:
        if not model.is_observable(name):
            add(
                "unknown-observable",
                f"unknown observable: observation of '{name}' is not declared",
            )
        elif not model.rules_by_head.get(name):
            # Facts range over hypotheses only, so nothing can constrain a
            # free observable: conditioning on it would be vacuous.
            add(
                "free-observable-observed",
                f"free observable '{name}' cannot be observed (no rule constrains it)",
            )
    return findings


def validate_decision_inputs(
    model: FaultModel,
    treatments: tuple[TreatmentAction, ...],
    utility: UtilityModel | None,
) -> list[ValidationFinding]:
    """Check treatment declarations and utility references."""
    findings: list[ValidationFinding] = []
    add = _adder(findings)
    seen: set[str] = set()
    for treatment in treatments:
        if treatment.id in seen:
            add("duplicate-id", f"duplicate id: treatment '{treatment.id}' declared twice")
        seen.add(treatment.id)
        if not model.is_hypothesis(treatment.target):
            add(
                "unknown-hypothesis",
                f"unknown hypothesis: treatment '{treatment.id}' targets '{treatment.target}'",
            )
    if utility is None:
        return findings

    def check_value(value: float, context: str) -> None:
        if not isfinite(value):
            add("non-finite-utility", f"non-finite utility value in {context}")

    for tid, entry in utility.additive.items():
        if tid not in seen:
            add(
                "unknown-treatment",
                f"unknown treatment: utility entry for undeclared '{tid}'",
            )
        for value in (entry.treat_faulty, entry.treat_ok, entry.skip_faulty, entry.skip_ok):
            check_value(value, f"additive entry for '{tid}'")
    for joint in utility.joint_entries:
        for name, _pol in joint.when:
            if not model.is_hypothesis(name):
                add(
                    "unknown-hypothesis",
                    f"unknown hypothesis: joint utility pattern mentions '{name}'",
                )
        for tid, _pol in joint.given:
            if tid not in seen:
                add(
                    "unknown-treatment",
                    f"unknown treatment: joint utility pattern mentions '{tid}'",
                )
        check_value(joint.value, "joint utility entry")
    return findings


def _adder(findings: list[ValidationFinding]) -> Callable[[str, str], None]:
    """``add(code, message)`` appending one finding to ``findings``."""
    return lambda code, message: findings.append(ValidationFinding(code, message))


def _check_hypothesis_cap(count: int) -> None:
    """Refuse any search over more than HYPOTHESIS_CAP hypotheses; the one
    size check of the hypothesis space."""
    if count > HYPOTHESIS_CAP:
        raise SearchSpaceError(
            f"hypothesis space too large: {count} hypotheses exceed the cap of {HYPOTHESIS_CAP}"
        )


def interpretation_at(model: FaultModel, index: int) -> Interpretation:
    """The interpretation at ``index`` under the bit convention above."""
    count = len(model.hypotheses)
    if not 0 <= index < (1 << count):
        raise ValueError(f"interpretation index {index} out of range")
    values = tuple(not (index >> (count - 1 - k)) & 1 for k in range(count))
    return Interpretation(model.hypothesis_ids, values)


def index_of_assignment(model: FaultModel, true_ids: frozenset[str] | set[str]) -> int:
    """Index of the interpretation making exactly ``true_ids`` true."""
    unknown = set(true_ids).difference(model.hypothesis_index)
    if unknown:
        raise UnknownAtomError(f"unknown atom '{min(unknown)}'")
    count = len(model.hypotheses)
    index = 0
    for k, name in enumerate(model.hypothesis_ids):
        if name not in true_ids:
            index |= 1 << (count - 1 - k)
    return index


def enumerate_interpretations(model: FaultModel) -> Iterator[tuple[int, Interpretation]]:
    """Yield (index, interpretation) for all 2^m assignments, in index order;
    refuses to enumerate more than 2^HYPOTHESIS_CAP rows."""
    ids = model.hypothesis_ids
    rows = enumerate(_row_values(model))
    return ((index, Interpretation(ids, values)) for index, values in rows)


def _row_values(model: FaultModel) -> Iterator[tuple[bool, ...]]:
    """Every row's hypothesis values (True where faulty), in index order."""
    return _each_row(model, [(True, False)] * len(model.hypotheses))


def _each_row(model: FaultModel, choices: Sequence[tuple]) -> Iterator[tuple]:
    """Every row in index order as one item per hypothesis: the first of
    its ``choices`` pair where it is faulty, the second where it is normal.
    That is the order of ``itertools.product``, so no index is decoded.
    Refuses to walk more than 2^HYPOTHESIS_CAP rows."""
    _check_hypothesis_cap(len(model.hypotheses))
    return itertools.product(*choices)
