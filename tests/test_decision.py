from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from diagnoscope import decision
from diagnoscope.decision import (
    additive_fix_threshold,
    expected_utility,
    optimal_treatment,
)
from diagnoscope.errors import (
    NoFiniteThresholdError,
    SearchSpaceError,
    UnknownAtomError,
    ZeroProbabilityObservationError,
)
from diagnoscope.formulas import Atom
from diagnoscope.model import (
    AdditiveEntry,
    FaultModel,
    Hypothesis,
    JointEntry,
    ObservableVar,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
)
from diagnoscope.probability import marginal, posterior_table
from diagnoscope.strategies import compare_strategies

from .oracle import assignment_for_index, posterior_rows, random_formula, random_model, ruled_observables

UNIT_GAIN = AdditiveEntry(1.0, -1.0, 0.0, 0.0)
MISS_PENALTY = AdditiveEntry(1.0, -1.0, -10.0, 0.0)


def unit_gain_utility(treatments):
    return UtilityModel({t.id: UNIT_GAIN for t in treatments})


def row_by_row_eu(model, posteriors, utility, treatments, selected):
    """Independent expectation: explicit per-row utility accumulation over
    the posteriors of ``model``'s rows, in index order."""
    ids = model.hypothesis_ids
    total = 0.0
    for index, posterior in enumerate(posteriors):
        if posterior == 0.0:
            continue
        assignment = assignment_for_index(ids, index)
        value = 0.0
        for treatment in treatments:
            faulty = assignment[treatment.target]
            e = utility.additive.get(treatment.id, AdditiveEntry(0, 0, 0, 0))
            if treatment.id in selected:
                value += e.treat_faulty if faulty else e.treat_ok
            else:
                value += e.skip_faulty if faulty else e.skip_ok
        for joint in utility.joint_entries:
            if all(
                assignment[name] == pol for name, pol in joint.when
            ) and all((tid in selected) == pol for tid, pol in joint.given):
                value += joint.value
        total += posterior * value
    return total


def test_expected_utility_fix_b(circuit4, observe_current, gate_treatments):
    utility = unit_gain_utility(gate_treatments)
    table = posterior_table(circuit4, observe_current)
    selected = frozenset({"FixB"})
    eu = expected_utility(circuit4, observe_current, utility, gate_treatments, selected)
    by_rows = row_by_row_eu(circuit4, table.posteriors, utility, gate_treatments, selected)
    assert eu == pytest.approx(by_rows, abs=1e-12)
    # closed form: 2 p(B|E) - 1, about $0.264
    assert eu == pytest.approx(2 * marginal(table, Atom("B")) - 1, abs=1e-12)
    assert round(eu, 3) == 0.264


def test_expected_utility_is_additive(circuit4, observe_current, gate_treatments):
    utility = unit_gain_utility(gate_treatments)
    table = posterior_table(circuit4, observe_current)
    both = frozenset({"FixB", "FixD"})
    eu = expected_utility(circuit4, observe_current, utility, gate_treatments, both)
    by_rows = row_by_row_eu(circuit4, table.posteriors, utility, gate_treatments, both)
    assert eu == pytest.approx(by_rows, abs=1e-12)
    expected = (2 * marginal(table, Atom("B")) - 1) + (2 * marginal(table, Atom("D")) - 1)
    assert eu == pytest.approx(expected, abs=1e-12)
    assert eu < 0  # fixing d as well loses money


def test_zero_utility_chooses_nothing(circuit4, observe_current, gate_treatments):
    utility = UtilityModel({t.id: AdditiveEntry(0, 0, 0, 0) for t in gate_treatments})
    decision = optimal_treatment(circuit4, observe_current, utility, gate_treatments)
    assert decision.chosen == frozenset()
    assert decision.expected_utility == 0.0


def test_optimal_treatment_unit_gain(circuit4, observe_current, gate_treatments):
    decision = optimal_treatment(
        circuit4, observe_current, unit_gain_utility(gate_treatments), gate_treatments
    )
    assert decision.chosen == frozenset({"FixB"})
    assert decision.expected_utility == pytest.approx(0.2639, abs=5e-5)
    breakdown = decision.per_treatment_breakdown
    assert breakdown is not None
    assert sum(breakdown.values()) == pytest.approx(decision.expected_utility, abs=1e-12)
    assert breakdown["FixA"] == 0.0


def test_optimal_treatment_with_miss_penalty(circuit4, observe_current, gate_treatments):
    utility = UtilityModel({t.id: MISS_PENALTY for t in gate_treatments})
    decision = optimal_treatment(circuit4, observe_current, utility, gate_treatments)
    assert decision.chosen == frozenset({"FixA", "FixB", "FixC", "FixD"})


def test_treatment_cap(circuit4, observe_current):
    many = tuple(TreatmentAction(f"T{k}", "A") for k in range(21))
    with pytest.raises(SearchSpaceError, match="treatment space too large"):
        optimal_treatment(circuit4, observe_current, UtilityModel(), many)


def test_threshold_examples():
    assert additive_fix_threshold(UNIT_GAIN) == pytest.approx(0.5, abs=1e-15)
    assert additive_fix_threshold(MISS_PENALTY) == pytest.approx(1 / 12, abs=1e-15)


def test_threshold_never_treat():
    # treating never strictly wins: same payoff when faulty, loses $1 otherwise
    entry = AdditiveEntry(3.0, -1.0, 3.0, 0.0)
    with pytest.raises(NoFiniteThresholdError, match="dominated") as exc_info:
        additive_fix_threshold(entry)
    assert exc_info.value.direction == "never-treat"


def test_threshold_always_treat():
    entry = AdditiveEntry(2.0, 1.0, 0.0, 0.0)
    with pytest.raises(NoFiniteThresholdError) as exc_info:
        additive_fix_threshold(entry)
    assert exc_info.value.direction == "always-treat"


def test_threshold_reversed_and_constant():
    with pytest.raises(NoFiniteThresholdError) as exc_info:
        additive_fix_threshold(AdditiveEntry(0.0, 0.0, 2.0, 1.0))
    assert exc_info.value.direction == "reversed"
    with pytest.raises(NoFiniteThresholdError) as exc_info:
        additive_fix_threshold(AdditiveEntry(2.0, 1.0, 1.0, 0.0))
    assert exc_info.value.direction == "always-treat"
    with pytest.raises(NoFiniteThresholdError) as exc_info:
        additive_fix_threshold(AdditiveEntry(1.0, 1.0, 1.0, 1.0))
    assert exc_info.value.direction == "indifferent"


def test_threshold_agrees_with_enumeration():
    """For additive utilities with a threshold inside (0,1), the optimizer
    picks exactly the treatments whose marginal clears their threshold."""
    rng = random.Random(61)
    checked = 0
    for _ in range(80):
        model = random_model(rng, max_hypotheses=3, max_rules=4)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        observations = ObservationSet.of(rng.choice(ruled))
        try:
            table = posterior_table(model, observations)
        except Exception:
            continue
        treatments = tuple(
            TreatmentAction(f"Fix{h.id}", h.id) for h in model.hypotheses
        )
        additive = {}
        for treatment in treatments:
            skip_faulty = rng.uniform(-2, 2)
            treat_ok = rng.uniform(-2, 2)
            additive[treatment.id] = AdditiveEntry(
                treat_faulty=skip_faulty + rng.uniform(0.1, 3),
                treat_ok=treat_ok,
                skip_faulty=skip_faulty,
                skip_ok=treat_ok + rng.uniform(0.1, 3),
            )
        utility = UtilityModel(additive)
        decision = optimal_treatment(model, observations, utility, treatments)
        expected = set()
        tied = False
        for treatment in treatments:
            threshold = additive_fix_threshold(additive[treatment.id])
            prob = marginal(table, Atom(treatment.target))
            if abs(prob - threshold) < 1e-9:
                tied = True
                break
            if prob > threshold:
                expected.add(treatment.id)
        if tied:
            continue
        assert decision.chosen == frozenset(expected)
        checked += 1
    assert checked >= 40


def joint_encoding(utility, treatments):
    """The same additive table written as joint entries only."""
    joints = []
    for treatment in treatments:
        entry = utility.additive[treatment.id]
        target = treatment.target
        joints.extend(
            [
                JointEntry(((target, True),), ((treatment.id, True),), entry.treat_faulty),
                JointEntry(((target, False),), ((treatment.id, True),), entry.treat_ok),
                JointEntry(((target, True),), ((treatment.id, False),), entry.skip_faulty),
                JointEntry(((target, False),), ((treatment.id, False),), entry.skip_ok),
            ]
        )
    return UtilityModel(joint_entries=tuple(joints))


def test_additive_equals_joint_encoding(circuit4, observe_current, gate_treatments):
    rng = random.Random(67)
    additive = {
        t.id: AdditiveEntry(*(rng.uniform(-3, 3) for _ in range(4)))
        for t in gate_treatments
    }
    utility = UtilityModel(additive)
    encoded = joint_encoding(utility, gate_treatments)
    for _ in range(10):
        selected = frozenset(
            t.id for t in gate_treatments if rng.random() < 0.5
        )
        direct = expected_utility(circuit4, observe_current, utility, gate_treatments, selected)
        via_joints = expected_utility(circuit4, observe_current, encoded, gate_treatments, selected)
        assert direct == pytest.approx(via_joints, abs=1e-9)


def interaction_utility():
    """Independent repairs for b and c; the a/d repairs interact."""
    joints = []
    for a_in, d_in in itertools.product((True, False), repeat=2):
        for a_true, d_true in itertools.product((True, False), repeat=2):
            value = (
                (1.5 if a_in == a_true else -0.75)
                + (0.5 if d_in == d_true else -1.25)
                + (2.0 if (a_in and d_in) else 0.0) * (1.0 if a_true and d_true else -0.5)
            )
            joints.append(
                JointEntry(
                    ((("A"), a_true), (("D"), d_true)),
                    ((("FixA"), a_in), (("FixD"), d_in)),
                    value,
                )
            )
    return UtilityModel(
        additive={"FixB": AdditiveEntry(1.0, -1.0, 0.0, 0.0), "FixC": AdditiveEntry(0.8, -0.3, -0.2, 0.1)},
        joint_entries=tuple(joints),
    )


def test_interacting_utility_depends_only_on_needed_probabilities(
    circuit4, observe_current, gate_treatments
):
    """With additive entries for B and C plus joint terms over A and D, the
    expected utility is a function of p(B), p(C), and the four A/D cell
    probabilities alone: shifting posterior mass while preserving those
    leaves the engine's expected utility of every treatment set unchanged,
    and equal to the row-by-row expectation on either table."""
    utility = interaction_utility()
    table = posterior_table(circuit4, observe_current)

    # move mass between rows 1,3,5,7 (the A-faulty, D-normal cell) along a
    # direction that cancels in the B and C marginals
    delta = 0.0005
    shifts = {1: +delta, 3: -delta, 5: -delta, 7: +delta}
    posteriors = tuple(
        posterior + shifts.get(index, 0.0) for index, posterior in enumerate(table.posteriors)
    )
    perturbed = dataclasses.replace(table, posteriors=posteriors)

    from diagnoscope.formulas import And, Not

    for probe, expected in [
        (Atom("B"), None), (Atom("C"), None),
        (And((Atom("A"), Atom("D"))), None),
        (And((Atom("A"), Not(Atom("D")))), None),
        (And((Not(Atom("A")), Atom("D"))), None),
        (And((Not(Atom("A")), Not(Atom("D")))), None),
    ]:
        assert marginal(perturbed, probe) == pytest.approx(
            marginal(table, probe), abs=1e-12
        )

    ids = [t.id for t in gate_treatments]
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            selected = frozenset(combo)
            engine = expected_utility(circuit4, observe_current, utility, gate_treatments, selected)
            on_shifted = decision._total(
                decision._utility_parts(perturbed, utility, gate_treatments)(selected)
            )
            assert on_shifted == pytest.approx(engine, abs=1e-12)
            original = row_by_row_eu(circuit4, table.posteriors, utility, gate_treatments, selected)
            shifted = row_by_row_eu(circuit4, posteriors, utility, gate_treatments, selected)
            assert shifted == pytest.approx(original, abs=1e-12)
            assert engine == pytest.approx(shifted, abs=1e-12)


def test_joint_term_matching(circuit4, gate_treatments):
    """A joint term pays where its ``when`` holds in the true state and its
    ``given`` matches the chosen set; priors of 0 and 1 make one row true."""
    utility = UtilityModel(
        joint_entries=(
            JointEntry((("A", True),), (("FixA", True), ("FixD", False)), 5.0),
        )
    )

    def certain(*faulty):
        hypotheses = tuple(Hypothesis(h.id, float(h.id in faulty)) for h in circuit4.hypotheses)
        return dataclasses.replace(circuit4, hypotheses=hypotheses)

    only_a = certain("A")
    none = ObservationSet()
    assert expected_utility(only_a, none, utility, gate_treatments, frozenset({"FixA"})) == 5.0
    assert expected_utility(only_a, none, utility, gate_treatments, frozenset({"FixA", "FixD"})) == 0.0
    all_normal = certain()
    assert expected_utility(all_normal, none, utility, gate_treatments, frozenset({"FixA"})) == 0.0


@st.composite
def _decision_problems(draw):
    """A random model with facts and priors of 0 and 1, observations,
    treatments (some without an additive entry) and joint terms, one of
    them possibly with a contradictory ``when``."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    base = random_model(rng, max_hypotheses=5, max_observables=2, max_rules=5)
    ids = list(base.hypothesis_ids)
    priors = {name: draw(st.floats(0.01, 0.99)) for name in ids}
    for name in draw(st.lists(st.sampled_from(ids), unique=True, max_size=2)):
        priors[name] = draw(st.sampled_from([0.0, 1.0]))
    facts = tuple(
        random_formula(rng, ids) for _ in range(draw(st.integers(0, 2)))
    )
    model = dataclasses.replace(
        base,
        hypotheses=tuple(Hypothesis(name, priors[name]) for name in ids),
        extra_facts=facts,
    )
    ruled = ruled_observables(model)
    observed = draw(st.lists(st.sampled_from(ruled), unique=True, max_size=2))
    observations = ObservationSet(tuple((name, draw(st.booleans())) for name in observed))
    targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5))
    treatments = tuple(TreatmentAction(f"T{k}", name) for k, name in enumerate(targets))
    values = st.floats(-10.0, 10.0)
    additive = {
        t.id: AdditiveEntry(*draw(st.tuples(values, values, values, values)))
        for t in treatments
        if draw(st.booleans())
    }
    state_literals = st.tuples(st.sampled_from(ids), st.booleans())
    choice_literals = st.tuples(st.sampled_from([t.id for t in treatments]), st.booleans())
    joints = draw(
        st.lists(
            st.builds(
                JointEntry,
                st.lists(state_literals, min_size=1, max_size=3).map(tuple),
                st.lists(choice_literals, max_size=3).map(tuple),
                values,
            ),
            max_size=3,
        )
    )
    if joints and draw(st.booleans()):
        name = draw(st.sampled_from(ids))
        joints[0] = dataclasses.replace(joints[0], when=((name, True), (name, False)))
    return model, observations, UtilityModel(additive, tuple(joints)), treatments


@settings(derandomize=True, deadline=None)
@given(_decision_problems())
def test_treatment_search_matches_row_by_row_expectation(problem):
    model, observations, utility, treatments = problem
    try:
        rows, _ = posterior_rows(model, observations.literals)
    except ZeroDivisionError:
        with pytest.raises(ZeroProbabilityObservationError):
            optimal_treatment(model, observations, utility, treatments)
        return
    ids = [t.id for t in treatments]
    exhaustive = {}
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            selected = frozenset(combo)
            exhaustive[selected] = row_by_row_eu(model, rows, utility, treatments, selected)
            assert expected_utility(
                model, observations, utility, treatments, selected
            ) == pytest.approx(exhaustive[selected], abs=1e-9)
    best = max(exhaustive.values())
    decision = optimal_treatment(model, observations, utility, treatments)
    assert decision.expected_utility >= best - 1e-9 * max(1.0, abs(best))
    assert decision.expected_utility == pytest.approx(exhaustive[decision.chosen], abs=1e-9)
    if decision.per_treatment_breakdown is not None:
        assert sum(decision.per_treatment_breakdown.values()) == pytest.approx(
            decision.expected_utility, abs=1e-12
        )


@pytest.mark.parametrize("target", ["E", "Z"])
def test_treatment_of_a_non_hypothesis_is_an_unknown_atom(
    circuit4, observe_current, target
):
    treatments = (TreatmentAction("FixA", "A"), TreatmentAction("Fix", target))
    utility = unit_gain_utility(treatments)
    message = f"^unknown atom '{target}'$"
    with pytest.raises(UnknownAtomError, match=message):
        optimal_treatment(circuit4, observe_current, utility, treatments)
    with pytest.raises(UnknownAtomError, match=message):
        expected_utility(circuit4, observe_current, utility, treatments, frozenset())
    report = compare_strategies(circuit4, observe_current, utility, treatments)
    assert report.failures == (("treatment", f"unknown atom '{target}'"),)


def test_joint_pattern_on_an_observable_is_an_unknown_atom(
    circuit4, observe_current, gate_treatments
):
    utility = UtilityModel(
        joint_entries=(JointEntry((("A", True), ("E", True)), (("FixA", True),), 1.0),)
    )
    with pytest.raises(UnknownAtomError, match="^unknown atom 'E'$"):
        optimal_treatment(circuit4, observe_current, utility, gate_treatments)
    report = compare_strategies(circuit4, observe_current, utility, gate_treatments)
    assert report.failures == (("treatment", "unknown atom 'E'"),)
