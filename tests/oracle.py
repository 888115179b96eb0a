"""Independent brute-force reference computations for the tests.

Everything here recomputes engine results by direct dictionary arithmetic
over explicit rule lists, without touching the package's completion,
enumeration, or scoring code paths. Shared with several test modules.
"""

from __future__ import annotations

import itertools
import math
import random

from diagnoscope.formulas import And, Atom, Const, Formula, Iff, Implies, Not, Or
from diagnoscope.model import CausalRule, FaultModel, Hypothesis, ObservableVar

Rules = tuple[tuple[tuple[str, ...], str], ...]


def assignment_for_index(ids: tuple[str, ...], index: int) -> dict[str, bool]:
    """Bit convention: first id = most significant bit, bit 1 means False."""
    count = len(ids)
    return {
        name: not (index >> (count - 1 - k)) & 1 for k, name in enumerate(ids)
    }


def observable_holds(rules: Rules, name: str, assignment: dict[str, bool]) -> bool:
    return any(
        all(assignment[atom] for atom in body) for body, head in rules if head == name
    )


def eval_formula(formula: Formula, assignment: dict[str, bool], rules: Rules) -> bool:
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Atom):
        if formula.name in assignment:
            return assignment[formula.name]
        return observable_holds(rules, formula.name, assignment)
    if isinstance(formula, Not):
        return not eval_formula(formula.operand, assignment, rules)
    if isinstance(formula, And):
        return all(eval_formula(op, assignment, rules) for op in formula.operands)
    if isinstance(formula, Or):
        return any(eval_formula(op, assignment, rules) for op in formula.operands)
    if isinstance(formula, Implies):
        return (not eval_formula(formula.antecedent, assignment, rules)) or eval_formula(
            formula.consequent, assignment, rules
        )
    if isinstance(formula, Iff):
        return eval_formula(formula.left, assignment, rules) == eval_formula(
            formula.right, assignment, rules
        )
    raise TypeError(formula)


def rules_of(model: FaultModel) -> Rules:
    return tuple((rule.body, rule.head) for rule in model.rules)


def possible(
    model: FaultModel,
    assignment: dict[str, bool],
    observations: tuple[tuple[str, bool], ...],
) -> bool:
    rules = rules_of(model)
    if not all(eval_formula(fact, assignment, rules) for fact in model.extra_facts):
        return False
    return all(
        observable_holds(rules, name, assignment) == polarity
        for name, polarity in observations
    )


def posterior_rows(
    model: FaultModel, observations: tuple[tuple[str, bool], ...]
) -> tuple[list[float], float]:
    """(posteriors in index order, evidence probability) by direct,
    correctly rounded summation."""
    ids = tuple(h.id for h in model.hypotheses)
    priors = {h.id: h.prior for h in model.hypotheses}
    weights = []
    for index in range(1 << len(ids)):
        assignment = assignment_for_index(ids, index)
        weight = 1.0
        for name in ids:
            weight *= priors[name] if assignment[name] else 1.0 - priors[name]
        weights.append(weight if possible(model, assignment, observations) else 0.0)
    evidence = math.fsum(weights)
    return [w / evidence for w in weights], evidence


def formula_marginal(
    model: FaultModel,
    observations: tuple[tuple[str, bool], ...],
    formula: Formula,
) -> float:
    ids = tuple(h.id for h in model.hypotheses)
    rules = rules_of(model)
    rows, _ = posterior_rows(model, observations)
    return math.fsum(
        row
        for index, row in enumerate(rows)
        if eval_formula(formula, assignment_for_index(ids, index), rules)
    )


def satisfying_fault_sets(
    model: FaultModel, observations: tuple[tuple[str, bool], ...]
) -> list[frozenset[str]]:
    """Fault sets whose exact-fault assignment is possible, any order."""
    ids = tuple(h.id for h in model.hypotheses)
    out = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        assignment = dict(zip(ids, bits))
        if possible(model, assignment, observations):
            out.append(frozenset(name for name, val in assignment.items() if val))
    return out


def explaining_fault_sets(
    model: FaultModel, observations: tuple[tuple[str, bool], ...]
) -> list[frozenset[str]]:
    """Fault sets S, any order, such that some fact-satisfying assignment
    makes every hypothesis of S faulty, and every such assignment
    satisfies the observations."""
    ids = tuple(h.id for h in model.hypotheses)
    rules = rules_of(model)
    assignments = (
        dict(zip(ids, bits)) for bits in itertools.product((False, True), repeat=len(ids))
    )
    # (assignment, satisfies the observations) for every fact-satisfying assignment
    extensions = [
        (assignment, possible(model, assignment, observations))
        for assignment in assignments
        if all(eval_formula(fact, assignment, rules) for fact in model.extra_facts)
    ]
    out = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        faulty = frozenset(name for name, val in zip(ids, bits) if val)
        verdicts = [ok for assignment, ok in extensions if all(assignment[n] for n in faulty)]
        if verdicts and all(verdicts):
            out.append(faulty)
    return out


def minimal_sets(sets: list[frozenset[str]]) -> set[frozenset[str]]:
    """Subset-minimal elements by full pairwise comparison."""
    return {
        candidate
        for candidate in sets
        if not any(other < candidate for other in sets)
    }


def random_model(
    rng: random.Random,
    max_hypotheses: int = 3,
    max_observables: int = 2,
    max_rules: int = 4,
    with_facts: bool = False,
) -> FaultModel:
    """A random valid model; observables left without rules are free."""
    n_hyp = rng.randint(1, max_hypotheses)
    n_obs = rng.randint(1, max_observables)
    hyp_ids = [f"H{k}" for k in range(n_hyp)]
    obs_ids = [f"O{k}" for k in range(n_obs)]
    hypotheses = tuple(
        Hypothesis(name, round(rng.uniform(0.05, 0.95), 3)) for name in hyp_ids
    )
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        size = rng.randint(1, n_hyp)
        body = tuple(sorted(rng.sample(hyp_ids, size)))
        rules.append(CausalRule(body, rng.choice(obs_ids)))
    ruled = {rule.head for rule in rules}
    observables = tuple(
        ObservableVar(name, free=name not in ruled) for name in obs_ids
    )
    facts: tuple[Formula, ...] = ()
    if with_facts and n_hyp >= 2 and rng.random() < 0.5:
        first, second = rng.sample(hyp_ids, 2)
        if rng.random() < 0.5:
            facts = (Not(And((Atom(first), Atom(second)))),)
        else:
            facts = (Or((Atom(first), Atom(second))),)
    return FaultModel(hypotheses, observables, tuple(rules), facts)


def ruled_observables(model: FaultModel) -> list[str]:
    ruled = {rule.head for rule in model.rules}
    return [obs.id for obs in model.observables if obs.id in ruled]


def random_formula(rng: random.Random, atoms: list[str], depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randint(0, 4)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    if kind == 1:
        return And((left, right))
    if kind == 2:
        return Or((left, right))
    if kind == 3:
        return Implies(left, right)
    return Iff(left, right)


def fact_assignments(model: FaultModel) -> list[dict[str, bool]]:
    """Every total assignment satisfying the facts, in index order."""
    ids = tuple(h.id for h in model.hypotheses)
    rules = rules_of(model)
    assignments = (assignment_for_index(ids, index) for index in range(1 << len(ids)))
    return [
        assignment
        for assignment in assignments
        if all(eval_formula(fact, assignment, rules) for fact in model.extra_facts)
    ]


def scenario_extensions(
    model: FaultModel, asserted: tuple[tuple[str, bool], ...]
) -> list[dict[str, bool]]:
    """The fact-satisfying assignments that agree with every asserted literal."""
    return [
        assignment
        for assignment in fact_assignments(model)
        if all(assignment[name] == polarity for name, polarity in asserted)
    ]


def scenario_is_consistent(
    model: FaultModel,
    asserted: tuple[tuple[str, bool], ...],
    observations: tuple[tuple[str, bool], ...],
) -> bool:
    return any(
        possible(model, assignment, observations)
        for assignment in scenario_extensions(model, asserted)
    )


def scenario_entails(
    model: FaultModel, asserted: tuple[tuple[str, bool], ...], goal: Formula
) -> bool | None:
    """Whether every extension of the scenario satisfies ``goal``; None
    when the scenario has no extension at all."""
    extensions = scenario_extensions(model, asserted)
    if not extensions:
        return None
    rules = rules_of(model)
    return all(eval_formula(goal, assignment, rules) for assignment in extensions)


def fault_sets_by_index(model: FaultModel) -> list[frozenset[str]]:
    """The faulty hypotheses of every row, in index order."""
    ids = tuple(h.id for h in model.hypotheses)
    return [
        frozenset(name for name, value in assignment_for_index(ids, index).items() if value)
        for index in range(1 << len(ids))
    ]


def fault_set_mass(
    model: FaultModel, rows: list[float], fault_set: frozenset[str]
) -> float:
    """Posterior mass of the rows that make every member of ``fault_set``
    faulty, correctly rounded."""
    return math.fsum(
        row
        for row, faulty in zip(rows, fault_sets_by_index(model))
        if fault_set <= faulty
    )


def strategy_rankings(
    model: FaultModel,
    rows: list[float],
    consistent: list[frozenset[str]],
    explaining: list[frozenset[str]],
    tie_epsilon: float,
) -> dict[str, tuple[list[tuple], list[tuple]]]:
    """Every strategy's (candidates, ties) from the posterior rows and the
    minimal fault sets; a candidate is (fault set, score, row index or
    None). A search that finds no set leaves its strategy out."""
    order = {h.id: k for k, h in enumerate(model.hypotheses)}
    faults = fault_sets_by_index(model)

    def declared(fault_set):
        return sorted(order[name] for name in fault_set)

    def ties(candidates):
        if not candidates:
            return []
        top = candidates[0][1]
        return [c for c in candidates if c[1] >= top - tie_epsilon]

    single = [
        (faulty, row, None) for faulty, row in zip(faults, rows) if len(faulty) == 1 and row > 0.0
    ]
    single.sort(key=lambda c: (-c[1], declared(c[0])))
    posterior = [
        (frozenset({h.id}), fault_set_mass(model, rows, frozenset({h.id})), None)
        for h in model.hypotheses
    ]
    posterior.sort(key=lambda c: (-c[1], declared(c[0])))
    mpe = [(faulty, row, index) for index, (faulty, row) in enumerate(zip(faults, rows))]
    best = max(rows)
    out = {
        "single-fault": (single, ties(single)),
        "posterior": (posterior, ties(posterior)),
        "mpe": (
            sorted(mpe, key=lambda c: (-c[1], c[2])),
            [c for c in mpe if c[1] >= best - tie_epsilon],
        ),
    }
    for strategy, sets in (("consistency", consistent), ("abductive", explaining)):
        if not sets:
            continue
        scored = [(s, fault_set_mass(model, rows, s), None) for s in sets]
        scored.sort(key=lambda c: (-c[1], len(c[0]), declared(c[0])))
        out[strategy] = (scored, ties(scored))
    return out


def covering_prefix(rows: list[float], mass: float, epsilon: float = 1e-9) -> list[int]:
    """Row indices by descending posterior (ties by index) up to the first
    whose running sum reaches ``mass``."""
    prefix: list[int] = []
    cumulative = 0.0
    for index in sorted(range(len(rows)), key=lambda i: (-rows[i], i)):
        prefix.append(index)
        cumulative += rows[index]
        if cumulative >= mass - epsilon:
            break
    return prefix
