from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import tracemalloc

import pytest

from diagnoscope import logic, probability
from diagnoscope.errors import (
    FreeObservableError,
    InconsistentScenarioError,
    NegativeObservationError,
    SearchSpaceError,
    UnexplainableObservationError,
    UnknownAtomError,
)
from diagnoscope.formulas import FALSE, TRUE, And, Atom, Not, Or
from diagnoscope.logic import (
    Scenario,
    abductive_explanations,
    clark_completion,
    consistency_diagnoses,
    maximal_scenarios,
    scenario_consistent,
    scenario_explains,
)
from diagnoscope.model import (
    CausalRule,
    FaultModel,
    Hypothesis,
    ObservableVar,
    ObservationSet,
    interpretation_at,
)
from diagnoscope.probability import marginal, posterior_table
from diagnoscope.strategies import diagnose_mpe

from .oracle import (
    assignment_for_index,
    eval_formula,
    explaining_fault_sets,
    minimal_sets,
    random_formula,
    random_model,
    rules_of,
    ruled_observables,
    satisfying_fault_sets,
)


def row(model, index: int) -> Scenario:
    """The scenario that asserts every hypothesis literal of one row."""
    return Scenario(interpretation_at(model, index).literals())


def test_completion_of_circuit4(circuit4):
    theory = clark_completion(circuit4)
    assert theory.definitions == {
        "E": Or((Atom("A"), And((Atom("B"), Atom("C"))), And((Atom("B"), Atom("D")))))
    }


def test_completion_single_rule_and_empty_body():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E"), ObservableVar("F")),
        rules=(CausalRule(("A",), "E"), CausalRule((), "F")),
    )
    theory = clark_completion(model)
    assert theory.definitions["E"] == Atom("A")
    assert theory.definitions["F"] == TRUE


def test_completion_emits_nothing_for_free_observables():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E"), ObservableVar("F", free=True)),
        rules=(CausalRule(("A",), "E"),),
    )
    assert "F" not in clark_completion(model).definitions


def test_completion_rejects_observables_in_rule_bodies():
    """Bodies that name observables in a cycle (E from F, F from E) would
    expand without end; the completion names the first such atom."""
    model = FaultModel(
        (Hypothesis("A", 0.1),),
        (ObservableVar("E"), ObservableVar("F")),
        (CausalRule(("F",), "E"), CausalRule(("E",), "F"), CausalRule(("A",), "E")),
    )
    message = "^rule body atom 'F' is not a hypothesis$"
    with pytest.raises(UnknownAtomError, match=message):
        clark_completion(model)
    with pytest.raises(UnknownAtomError, match=message):
        posterior_table(model, ObservationSet.of("E"))


def test_evaluate_expands_observables(circuit4):
    theory = clark_completion(circuit4)
    assert scenario_explains(theory, row(circuit4, 0b0111), Atom("E"))  # A faulty
    assert not scenario_explains(theory, row(circuit4, 0b1011), Atom("E"))  # B faulty
    assert scenario_explains(theory, row(circuit4, 5), TRUE)


def test_evaluate_is_pure(circuit4):
    theory = clark_completion(circuit4)
    formula = Or((Atom("E"), Not(Atom("A"))))
    expected = eval_formula(formula, assignment_for_index(circuit4.hypothesis_ids, 11), rules_of(circuit4))
    first = scenario_explains(theory, row(circuit4, 11), formula)
    assert first == scenario_explains(theory, row(circuit4, 11), formula) == expected


def test_evaluation_leaves_no_cyclic_garbage(circuit4):
    """Row masks and single-row evaluations free everything they build by
    reference counting alone: the collector finds nothing after them."""
    theory = clark_completion(circuit4)
    formula = And((Atom("E"), Not(Atom("A"))))
    interpretation = interpretation_at(circuit4, 9)
    observations = ObservationSet.of("E")
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            logic._rows(theory, formula)
            logic.satisfies_observations(theory, interpretation, observations)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_interpretation_without_a_hypothesis_is_an_unknown_atom(circuit4):
    """An interpretation of another model, here one holding only circuit4's
    first two hypotheses, lacks the atoms the observations reach."""
    smaller = FaultModel(hypotheses=circuit4.hypotheses[:2], observables=(), rules=())
    with pytest.raises(UnknownAtomError, match="^unknown atom 'C'$"):
        logic.satisfies_observations(
            clark_completion(circuit4), interpretation_at(smaller, 0), ObservationSet.of("E")
        )


def test_evaluate_errors(circuit4):
    theory = clark_completion(circuit4)
    with pytest.raises(UnknownAtomError, match="unknown atom"):
        scenario_explains(theory, row(circuit4, 0), Atom("Z"))
    free_model = FaultModel(
        hypotheses=circuit4.hypotheses,
        observables=circuit4.observables + (ObservableVar("F", free=True),),
        rules=circuit4.rules,
    )
    with pytest.raises(FreeObservableError):
        scenario_explains(clark_completion(free_model), row(free_model, 0), Atom("F"))


def test_an_unknown_atom_is_an_error_wherever_it_sits(circuit4, observe_current):
    """Every operand is evaluated: an operand that settles the value does
    not hide an unknown or free atom next to it."""
    free_model = FaultModel(
        hypotheses=circuit4.hypotheses,
        observables=circuit4.observables + (ObservableVar("F", free=True),),
        rules=circuit4.rules,
    )
    theory = clark_completion(free_model)
    table = posterior_table(free_model, observe_current)
    for name, error in (("Z", UnknownAtomError), ("F", FreeObservableError)):
        for formula in (Or((TRUE, Atom(name))), And((FALSE, Atom(name)))):
            with pytest.raises(error):
                scenario_explains(theory, row(free_model, 0), formula)
            with pytest.raises(error):
                marginal(table, formula)
            with pytest.raises(error):
                scenario_explains(theory, Scenario.of_faults("A"), formula)


WIDE_MODEL = FaultModel(
    hypotheses=tuple(Hypothesis(f"H{k}", 0.5) for k in range(21)),
    observables=(ObservableVar("E"),),
    rules=(CausalRule(("H0",), "E"),),
)
OBSERVE_E = ObservationSet.of("E")
ROW_QUERIES = {
    "posterior_table": lambda theory: posterior_table(theory.model, OBSERVE_E),
    "diagnose_mpe": lambda theory: diagnose_mpe(theory.model, OBSERVE_E),
    "scenario_consistent": lambda theory: scenario_consistent(
        theory, Scenario.of_faults("H0"), OBSERVE_E
    ),
    "scenario_explains": lambda theory: scenario_explains(
        theory, Scenario.of_faults("H0"), Atom("E")
    ),
    "maximal_scenarios": maximal_scenarios,
    "consistency_diagnoses": lambda theory: consistency_diagnoses(theory, OBSERVE_E),
    "abductive_explanations": lambda theory: abductive_explanations(theory, OBSERVE_E),
}


@pytest.mark.parametrize("query", ROW_QUERIES.values(), ids=ROW_QUERIES.keys())
def test_every_row_query_caps_hypotheses(query, monkeypatch):
    """Every query over the rows refuses 21 hypotheses, the ones a scenario
    fixes included, before it builds a row mask."""

    def no_mask(*args):
        raise AssertionError("a row mask was built")

    monkeypatch.setattr(logic, "_rows", no_mask)
    monkeypatch.setattr(probability, "_rows", no_mask)
    with pytest.raises(
        SearchSpaceError,
        match="^hypothesis space too large: 21 hypotheses exceed the cap of 20$",
    ):
        query(clark_completion(WIDE_MODEL))


def test_scenario_consistent_cases(circuit4):
    theory = clark_completion(circuit4)
    observe = ObservationSet.of("E")
    assert scenario_consistent(theory, Scenario.of_faults("A"), observe)
    # with A and B both normal no extension produces current
    denial = Scenario((("A", False), ("B", False)))
    assert not scenario_consistent(theory, denial, observe)
    assert scenario_consistent(theory, Scenario(), ObservationSet())


def test_scenario_explains_cases(circuit4):
    theory = clark_completion(circuit4)
    assert scenario_explains(theory, Scenario.of_faults("A"), Atom("E"))
    assert not scenario_explains(theory, Scenario.of_faults("B"), Atom("E"))
    assert scenario_explains(theory, Scenario.of_faults("A"), TRUE)


def test_scenario_explains_rejects_inconsistent():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1), Hypothesis("B", 0.1)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
        extra_facts=(Not(And((Atom("A"), Atom("B")))),),
    )
    theory = clark_completion(model)
    with pytest.raises(InconsistentScenarioError, match="inconsistent scenario"):
        scenario_explains(theory, Scenario.of_faults("A", "B"), Atom("E"))
    # a self-contradictory scenario is inconsistent too
    with pytest.raises(InconsistentScenarioError):
        scenario_explains(theory, Scenario((("A", True), ("A", False))), Atom("E"))


def test_maximal_scenarios_counts(circuit4):
    """The fact rows, as row indices in index order."""
    theory = clark_completion(circuit4)
    assert maximal_scenarios(theory) == list(range(16))

    constrained_model = FaultModel(
        hypotheses=circuit4.hypotheses,
        observables=circuit4.observables,
        rules=circuit4.rules,
        extra_facts=(Not(And((Atom("A"), Atom("B")))),),
    )
    # A and B are both faulty exactly where the two high index bits are 0.
    constrained = maximal_scenarios(clark_completion(constrained_model))
    assert constrained == list(range(4, 16))
    assert all(
        not {"A", "B"} <= set(interpretation_at(constrained_model, row).true_ids())
        for row in constrained
    )

    tiny = FaultModel(
        hypotheses=(Hypothesis("A", 0.3),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    assert maximal_scenarios(clark_completion(tiny)) == [0, 1]


def test_maximal_scenarios_hold_one_int_per_row():
    """All 2^16 rows of a fact-free model in a few MB: one int per row, no
    object built per row (a scenario per row peaked at 72 MB)."""
    model = FaultModel(
        hypotheses=tuple(Hypothesis(f"H{k}", 0.1) for k in range(16)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("H0",), "E"),),
    )
    theory = clark_completion(model)
    tracemalloc.start()
    try:
        rows = maximal_scenarios(theory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert rows == list(range(1 << 16))


def test_consistency_diagnoses_circuit4(circuit4, observe_current):
    theory = clark_completion(circuit4)
    result = consistency_diagnoses(theory, observe_current)
    assert [sorted(d) for d in result] == [["A"], ["B", "C"], ["B", "D"]]

    no_current = consistency_diagnoses(theory, ObservationSet.of("!E"))
    assert [d for d in no_current] == [frozenset()]

    with pytest.raises(UnknownAtomError):
        consistency_diagnoses(theory, ObservationSet.of("X"))


def test_consistency_unexplainable():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
        extra_facts=(Not(Atom("A")),),
    )
    theory = clark_completion(model)
    with pytest.raises(UnexplainableObservationError, match="unexplainable"):
        consistency_diagnoses(theory, ObservationSet.of("E"))


def test_abductive_explanations_circuit4(circuit4, observe_current):
    theory = clark_completion(circuit4)
    result = abductive_explanations(theory, observe_current)
    assert [sorted(d) for d in result] == [["A"], ["B", "C"], ["B", "D"]]

    with pytest.raises(NegativeObservationError, match="positive"):
        abductive_explanations(theory, ObservationSet.of("!E"))


def test_abductive_single_rule_model():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.2),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    theory = clark_completion(model)
    result = abductive_explanations(theory, ObservationSet.of("E"))
    assert [d for d in result] == [frozenset({"A"})]


def _all_small_monotone_models():
    """All models with <= 3 hypotheses, <= 2 observables, <= 3 rules
    (duplicate-free rule sets, no hard constraints)."""
    hyp_ids = ("H0", "H1", "H2")
    obs_ids = ("O0", "O1")
    bodies = []
    for size in range(len(hyp_ids) + 1):
        bodies.extend(itertools.combinations(hyp_ids, size))
    all_rules = [
        CausalRule(body, head) for body in bodies for head in obs_ids
    ]
    hypotheses = tuple(Hypothesis(name, 0.3) for name in hyp_ids)
    for count in range(1, 4):
        for rule_set in itertools.combinations(all_rules, count):
            ruled = {rule.head for rule in rule_set}
            observables = tuple(
                ObservableVar(name, free=name not in ruled) for name in obs_ids
            )
            yield FaultModel(hypotheses, observables, rule_set), sorted(ruled)


def test_monotone_equivalence_exhaustive():
    """With positive-conjunction rules and no hard constraints,
    consistency-based and abductive diagnoses coincide on positive
    observations, including the error case."""
    checked = 0
    for model, ruled in _all_small_monotone_models():
        theory = clark_completion(model)
        for k in range(1, len(ruled) + 1):
            for chosen in itertools.combinations(ruled, k):
                observations = ObservationSet.of(*chosen)
                try:
                    consistent = consistency_diagnoses(theory, observations)
                except UnexplainableObservationError:
                    with pytest.raises(UnexplainableObservationError):
                        abductive_explanations(theory, observations)
                    continue
                abduced = abductive_explanations(theory, observations)
                assert [d for d in consistent] == [d for d in abduced]
                checked += 1
    assert checked > 500


def test_diagnoses_are_subset_minimal():
    rng = random.Random(11)
    for _ in range(60):
        model = random_model(rng, max_hypotheses=4, max_rules=4, with_facts=True)
        theory = clark_completion(model)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        observations = ObservationSet.of(rng.choice(ruled))
        for op in (consistency_diagnoses, abductive_explanations):
            try:
                result = op(theory, observations)
            except UnexplainableObservationError:
                continue
            returned = {d for d in result}
            for diag in result:
                for smaller_size in range(len(diag)):
                    for subset in itertools.combinations(diag, smaller_size):
                        assert frozenset(subset) not in returned


def test_consistency_matches_brute_force_oracle():
    rng = random.Random(23)
    for trial in range(80):
        model = random_model(
            rng,
            max_hypotheses=4 if trial < 60 else 8,
            max_rules=5,
            with_facts=True,
        )
        theory = clark_completion(model)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        name = rng.choice(ruled)
        polarity = rng.random() < 0.8
        observations = ObservationSet(((name, polarity),))
        expected = minimal_sets(satisfying_fault_sets(model, observations.literals))
        try:
            result = consistency_diagnoses(theory, observations)
        except UnexplainableObservationError:
            assert expected == set()
            continue
        assert {d for d in result} == expected
        # ordering: cardinality first, then declaration order
        order = model.hypothesis_index
        keys = [
            (len(d), tuple(sorted(order[n] for n in d))) for d in result
        ]
        assert keys == sorted(keys)


def test_abduction_matches_brute_force_oracle_with_facts():
    """Random models with facts (up to 8 hypotheses) and positive
    observations: the explanations are the minimal explaining fault sets
    of the oracle, ordered by cardinality, then declaration order."""
    rng = random.Random(29)
    checked = 0
    for trial in range(160):
        model = random_model(
            rng, max_hypotheses=4 if trial < 60 else 8, max_observables=3, max_rules=8
        )
        atoms = list(model.hypothesis_ids)
        facts = tuple(random_formula(rng, atoms) for _ in range(rng.randint(1, 2)))
        model = dataclasses.replace(model, extra_facts=facts)
        theory = clark_completion(model)
        ruled = ruled_observables(model)
        observations = ObservationSet.of(*rng.sample(ruled, rng.randint(1, len(ruled))))
        order = model.hypothesis_index
        expected = sorted(
            minimal_sets(explaining_fault_sets(model, observations.literals)),
            key=lambda s: (len(s), sorted(order[n] for n in s)),
        )
        try:
            result = abductive_explanations(theory, observations)
        except UnexplainableObservationError:
            assert expected == []
            continue
        assert [d for d in result] == expected
        checked += 1
    assert checked >= 80


def test_consistency_at_twelve_hypotheses():
    """Disjoint rule bodies make the minimal diagnoses the bodies themselves;
    checks the search (and its ordering) well above the worked-example size."""
    ids = tuple(f"G{k}" for k in range(12))
    bodies = (("G0",), ("G1", "G2"), ("G3", "G4", "G5"),
              ("G6", "G7", "G8", "G9"), ("G10", "G11"))
    model = FaultModel(
        hypotheses=tuple(Hypothesis(name, 0.1) for name in ids),
        observables=(ObservableVar("E"),),
        rules=tuple(CausalRule(body, "E") for body in bodies),
    )
    theory = clark_completion(model)
    result = consistency_diagnoses(theory, ObservationSet.of("E"))
    assert [sorted(d) for d in result] == [
        ["G0"], ["G1", "G2"], ["G10", "G11"],
        ["G3", "G4", "G5"], ["G6", "G7", "G8", "G9"],
    ]
    quiet = consistency_diagnoses(theory, ObservationSet.of("!E"))
    assert [d for d in quiet] == [frozenset()]


def test_logic_ops_are_deterministic(circuit4, observe_current):
    theory = clark_completion(circuit4)
    first = consistency_diagnoses(theory, observe_current)
    second = consistency_diagnoses(theory, observe_current)
    assert first == second
    assert maximal_scenarios(theory) == maximal_scenarios(theory)
