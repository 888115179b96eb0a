from __future__ import annotations

import random

import pytest

from diagnoscope.errors import UnknownAtomError
from diagnoscope.formulas import Atom, Not
from diagnoscope.model import (
    AdditiveEntry,
    CausalRule,
    FaultModel,
    Hypothesis,
    Interpretation,
    JointEntry,
    ObservableVar,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
    index_of_assignment,
    interpretation_at,
    validate_decision_inputs,
    validate_model,
    validate_observations,
)

from .oracle import assignment_for_index, random_model


def test_circuit4_is_valid(circuit4):
    assert validate_model(circuit4) == []


def test_prior_out_of_range_finding():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 1.3),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    findings = validate_model(model)
    assert len(findings) == 1
    assert findings[0].code == "prior-out-of-range"
    assert "prior out of range" in findings[0].message


def test_unknown_rule_head_finding():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"), CausalRule(("A",), "X")),
    )
    findings = validate_model(model)
    assert [f.code for f in findings] == ["unknown-observable"]
    assert "unknown observable" in findings[0].message


def test_unknown_rule_body_atom_finding():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A", "Z"), "E"),),
    )
    assert [f.code for f in validate_model(model)] == ["unknown-hypothesis"]


def test_undefined_observable_needs_free():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E"), ObservableVar("F")),
        rules=(CausalRule(("A",), "E"),),
    )
    assert [f.code for f in validate_model(model)] == ["undefined-observable"]
    free_model = FaultModel(
        hypotheses=model.hypotheses,
        observables=(ObservableVar("E"), ObservableVar("F", free=True)),
        rules=model.rules,
    )
    assert validate_model(free_model) == []


def test_free_observable_with_rules_flagged():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1),),
        observables=(ObservableVar("E", free=True),),
        rules=(CausalRule(("A",), "E"),),
    )
    assert [f.code for f in validate_model(model)] == ["free-with-rules"]


def test_duplicate_and_shared_ids_flagged():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1), Hypothesis("A", 0.2)),
        observables=(ObservableVar("A", free=True),),
        rules=(),
    )
    codes = [f.code for f in validate_model(model)]
    assert "duplicate-id" in codes
    assert "shared-id" in codes


def test_fact_over_observables_flagged(circuit4):
    model = FaultModel(
        hypotheses=circuit4.hypotheses,
        observables=circuit4.observables,
        rules=circuit4.rules,
        extra_facts=(Not(Atom("E")),),
    )
    assert [f.code for f in validate_model(model)] == ["fact-non-hypothesis-atom"]


def test_validation_is_idempotent_and_pure():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 1.3), Hypothesis("A", 0.2)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "X"),),
    )
    first = validate_model(model)
    second = validate_model(model)
    assert first == second


def test_zero_findings_means_invariants_hold():
    rng = random.Random(7)
    for _ in range(50):
        model = random_model(rng, max_hypotheses=4, max_rules=5, with_facts=True)
        assert validate_model(model) == []
        hyp_ids = [h.id for h in model.hypotheses]
        obs_ids = [o.id for o in model.observables]
        assert len(set(hyp_ids)) == len(hyp_ids)
        assert len(set(obs_ids)) == len(obs_ids)
        assert not set(hyp_ids) & set(obs_ids)
        assert all(0.0 <= h.prior <= 1.0 for h in model.hypotheses)
        for rule in model.rules:
            assert rule.head in obs_ids
            assert all(atom in hyp_ids for atom in rule.body)
        for obs in model.observables:
            assert obs.free != bool(model.rules_by_head.get(obs.id))


def test_observation_set_rejects_contradiction():
    with pytest.raises(ValueError):
        ObservationSet((("E", True), ("E", False)))
    dup = ObservationSet((("E", True), ("E", True)))
    assert dup.literals == (("E", True),)


def test_observation_set_of_parses_negation():
    obs = ObservationSet.of("E", "!F")
    assert obs.literals == (("E", True), ("F", False))
    assert not obs.all_positive


def test_validate_observations(circuit4):
    model = FaultModel(
        hypotheses=circuit4.hypotheses,
        observables=circuit4.observables + (ObservableVar("F", free=True),),
        rules=circuit4.rules,
    )
    assert validate_observations(model, ObservationSet.of("E")) == []
    codes = [f.code for f in validate_observations(model, ObservationSet.of("X"))]
    assert codes == ["unknown-observable"]
    codes = [f.code for f in validate_observations(model, ObservationSet.of("F"))]
    assert codes == ["free-observable-observed"]


def test_validate_decision_inputs(circuit4):
    treatments = (TreatmentAction("FixA", "A"), TreatmentAction("FixZ", "Z"))
    utility = UtilityModel(
        additive={"FixA": AdditiveEntry(1, -1, 0, 0), "Nope": AdditiveEntry(0, 0, 0, 0)},
        joint_entries=(JointEntry((("Q", True),), (("FixA", True),), 2.0),),
    )
    codes = [f.code for f in validate_decision_inputs(circuit4, treatments, utility)]
    assert codes == ["unknown-hypothesis", "unknown-treatment", "unknown-hypothesis"]
    assert validate_decision_inputs(circuit4, (TreatmentAction("FixA", "A"),), None) == []


def test_interpretation_index_convention(circuit4):
    all_faulty = interpretation_at(circuit4, 0)
    assert all(all_faulty.values)
    all_normal = interpretation_at(circuit4, 15)
    assert not any(all_normal.values)
    # first hypothesis is the most significant bit
    only_a = interpretation_at(circuit4, 0b0111)
    assert dict(only_a.literals()) == {"A": True, "B": False, "C": False, "D": False}
    assert index_of_assignment(circuit4, {"A"}) == 7
    assert index_of_assignment(circuit4, {"B", "C"}) == 9
    assert index_of_assignment(circuit4, set()) == 15


def test_index_of_assignment_rejects_unknown_names(circuit4):
    """A name that is not a hypothesis is an error, not an absent fault;
    the smallest unknown name is reported."""
    for names, unknown in [({"Z"}, "Z"), ({"A", "Z"}, "Z"), ({"Z", "Y", "B"}, "Y")]:
        with pytest.raises(UnknownAtomError, match=f"^unknown atom '{unknown}'$"):
            index_of_assignment(circuit4, names)


def test_interpretation_at_round_trips_indices(circuit4):
    for index in range(16):
        interp = interpretation_at(circuit4, index)
        assert dict(interp.literals()) == assignment_for_index(circuit4.hypothesis_ids, index)
        assert index_of_assignment(circuit4, set(interp.true_ids())) == index
