from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from diagnoscope import decision
from diagnoscope.decision import (
    TreatmentDecision,
    additive_fix_threshold,
    expected_utility,
    optimal_treatment,
)
from diagnoscope.errors import (
    DiagnoscopeError,
    NoFiniteThresholdError,
    SearchSpaceError,
    UnknownAtomError,
    ZeroProbabilityObservationError,
)
from diagnoscope.formulas import Atom
from diagnoscope.logic import _literals
from diagnoscope.model import (
    AdditiveEntry,
    CausalRule,
    FaultModel,
    Hypothesis,
    JointEntry,
    ObservableVar,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
)
from diagnoscope.probability import Query, marginal, posterior_table
from diagnoscope.strategies import compare_strategies

from .conftest import make_circuit4
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


def test_an_impossible_observation_fails_where_no_term_asks_for_a_mass():
    """With no treatment and no joint term no mass is read, and the table is
    still built: an observation of zero probability is an error, not an
    expected utility of 0."""
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.0),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    observe = ObservationSet.of("E")
    with pytest.raises(ZeroProbabilityObservationError):
        optimal_treatment(model, observe, UtilityModel(), ())
    with pytest.raises(ZeroProbabilityObservationError):
        expected_utility(model, observe, UtilityModel(), (), frozenset())


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
                decision._utility_parts(
                    lambda literals: marginal(perturbed, _literals(literals)), utility, gate_treatments
                ).parts(selected)
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


def reference_total(terms):
    """A set's expected utility before the exact search: ``math.fsum``, whose
    overflow, of the total or of a partial sum, is a domain error."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DiagnoscopeError("expected utility overflows the float range") from None


def reference_optimal_treatment(model, observations, utility, treatments):
    """The search before the subset-sum transform, verbatim: every set
    scored one at a time, by size and then by ids, the first of the
    highest totals kept."""
    parts = decision._utility_parts(Query(model, observations).mass, utility, treatments).parts
    ids = sorted(treatment.id for treatment in treatments)
    best_set: frozenset[str] = frozenset()
    best_utility = float("-inf")
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            selected = frozenset(combo)
            value = reference_total(parts(selected))
            if value > best_utility:
                best_utility = value
                best_set = selected
    breakdown: dict[str, float] | None = None
    if not utility.joint_entries:
        breakdown = dict(zip((t.id for t in treatments), parts(best_set)))
    return TreatmentDecision(best_set, best_utility, breakdown)


def assert_same_decision(got, want):
    """Same set, and the same expected utility and breakdown to the bit."""
    assert got.chosen == want.chosen
    assert got.expected_utility.hex() == want.expected_utility.hex()
    if want.per_treatment_breakdown is None:
        assert got.per_treatment_breakdown is None
    else:
        assert {k: v.hex() for k, v in got.per_treatment_breakdown.items()} == {
            k: v.hex() for k, v in want.per_treatment_breakdown.items()
        }


def coupled_problem(rng, max_treatments=6, max_joints=8):
    """A random model (facts sometimes) with observations, up to
    ``max_treatments`` treatments and ``max_joints`` joint terms. A joint
    term's ``given`` may negate literals, repeat one, hold both t and !t or
    name a treatment that is not offered.
    Utilities are all small integers (so sets tie), all zero (the empty set
    wins), or floats of mixed magnitude. None when the observations are
    impossible."""
    model = random_model(rng, max_hypotheses=5, max_observables=2, max_rules=5, with_facts=True)
    ids = list(model.hypothesis_ids)
    ruled = ruled_observables(model)
    observed = rng.sample(ruled, rng.randint(0, min(2, len(ruled))))
    observations = ObservationSet(tuple((name, rng.random() < 0.8) for name in observed))
    kind = rng.choice(("integer", "zero", "float"))

    def value():
        if kind == "integer":
            return float(rng.randint(-3, 3))
        if kind == "zero":
            return 0.0
        return rng.uniform(-10, 10) * 10.0 ** rng.randint(-6, 6)

    treatments = tuple(
        TreatmentAction(f"T{k}", rng.choice(ids)) for k in range(rng.randint(0, max_treatments))
    )
    additive = {
        t.id: AdditiveEntry(value(), value(), value(), value())
        for t in treatments
        if rng.random() < 0.7
    }
    joints = []
    for _ in range(rng.randint(0, max_joints)):
        when = tuple((rng.choice(ids), rng.random() < 0.6) for _ in range(rng.randint(1, 3)))
        given = [
            (rng.choice(treatments).id, rng.random() < 0.5)
            for _ in range(rng.randint(0, min(4, len(treatments))))
        ]
        if given and rng.random() < 0.4:  # a repeated literal, or t & !t
            tid, polarity = rng.choice(given)
            given.append((tid, polarity if rng.random() < 0.5 else not polarity))
        if rng.random() < 0.1:  # the Python API takes a treatment that is not offered
            given.append(("Unoffered", rng.random() < 0.5))
        rng.shuffle(given)
        joints.append(JointEntry(when, tuple(given), value()))
    try:
        posterior_table(model, observations)
    except ZeroProbabilityObservationError:
        return None
    return model, observations, UtilityModel(additive, tuple(joints)), treatments


def assert_search_matches_reference(problem):
    model, observations, utility, treatments = problem
    got = optimal_treatment(model, observations, utility, treatments)
    assert_same_decision(got, reference_optimal_treatment(model, observations, utility, treatments))
    assert got.expected_utility == expected_utility(model, observations, utility, treatments, got.chosen)


def test_treatment_search_matches_the_per_set_search_on_seeded_models():
    problems = (coupled_problem(random.Random(seed)) for seed in range(600))
    checked = [problem for problem in problems if problem is not None]
    for problem in checked:
        assert_search_matches_reference(problem)
    utilities = [problem[2] for problem in checked]
    assert len(checked) >= 400
    assert sum(not problem[3] for problem in checked) >= 20  # no treatment at all
    assert sum(
        any(given.count((tid, True)) and given.count((tid, False)) for tid, _ in given)
        for utility in utilities
        for given in (joint.given for joint in utility.joint_entries)
    ) >= 50  # t & !t


@pytest.mark.parametrize("seed", range(4))
def test_treatment_search_matches_the_per_set_search_with_many_treatments(seed):
    """Twelve treatments and dense joint terms: every level of the transform
    runs both as strided and as contiguous slices."""
    rng = random.Random(1000 + seed)
    problem = None
    while problem is None:
        problem = coupled_problem(rng, max_treatments=12, max_joints=40)
        if problem is not None and len(problem[3]) < 10:
            problem = None
    assert_search_matches_reference(problem)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False))
def test_treatment_search_matches_the_per_set_search(rng):
    problem = coupled_problem(rng)
    if problem is not None:
        assert_search_matches_reference(problem)


def test_all_zero_utilities_choose_the_empty_set():
    model = make_circuit4()
    treatments = tuple(TreatmentAction(f"T{k}", name) for k, name in enumerate("ABCDABCDAB"))
    zero = AdditiveEntry(0.0, 0.0, 0.0, 0.0)
    joints = (JointEntry((("A", True),), (("T1", True), ("T2", False)), 0.0),)
    for utility in (UtilityModel({t.id: zero for t in treatments}), UtilityModel(joint_entries=joints)):
        got = optimal_treatment(model, ObservationSet.of("E"), utility, treatments)
        assert (got.chosen, got.expected_utility) == (frozenset(), 0.0)
        assert_same_decision(got, reference_optimal_treatment(model, ObservationSet.of("E"), utility, treatments))


def test_subset_sums_are_sums_over_subsets():
    rng = random.Random(5)
    for count in range(9):
        values = [rng.randint(-(10**30), 10**30) for _ in range(1 << count)]
        sums = list(values)
        decision._subset_sums(sums, count)
        assert sums == [
            sum(value for subset, value in enumerate(values) if subset & ~mask == 0)
            for mask in range(1 << count)
        ]


MAX = sys.float_info.max


def _extreme_model(joint_value):
    """FixA and FixB each pay MAX, exactly (p = 0.5 of MAX and MAX); a joint
    term pays ``joint_value`` when both are chosen (C is certain)."""
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.5), Hypothesis("B", 0.5), Hypothesis("C", 1.0)),
        observables=(ObservableVar("E"),),
        rules=(),
    )
    treatments = (TreatmentAction("FixA", "A"), TreatmentAction("FixB", "B"))
    utility = UtilityModel(
        {t.id: AdditiveEntry(MAX, MAX, 0.0, 0.0) for t in treatments},
        (JointEntry((("C", True),), (("FixA", True), ("FixB", True)), joint_value),),
    )
    return model, ObservationSet(), utility, treatments


def test_an_exact_total_within_the_float_range_is_no_overflow():
    """Both treatments together pay MAX + MAX - MAX: ``math.fsum`` overflows
    in a partial sum, but the exact total is MAX. The exact sum decides, so
    every set has a total, and the first of the four-way tie wins, where the
    per-set search failed."""
    problem = _extreme_model(-MAX)
    with pytest.raises(DiagnoscopeError, match="overflows the float range"):
        reference_optimal_treatment(*problem)
    got = optimal_treatment(*problem)
    assert (got.chosen, got.expected_utility) == (frozenset({"FixA"}), MAX)
    both = frozenset({"FixA", "FixB"})
    assert expected_utility(*problem, both) == MAX
    assert compare_strategies(*problem).treatment == got


@pytest.mark.parametrize("joint_value", [-MAX / 2, 0.0])
def test_a_total_beyond_the_float_range_is_a_domain_error(joint_value):
    """MAX + MAX - MAX / 2 and MAX + MAX overflow whichever set wins, as
    they did."""
    problem = _extreme_model(joint_value)
    for search in (optimal_treatment, reference_optimal_treatment):
        with pytest.raises(DiagnoscopeError, match="^expected utility overflows the float range$"):
            search(*problem)
    assert compare_strategies(*problem).failures[-1] == (
        "treatment",
        "expected utility overflows the float range",
    )


def test_a_losing_set_beyond_the_float_range_is_a_domain_error():
    """Skipping both treatments loses 2 * 0.9 * MAX, beyond the float range;
    treating both pays 0. Any set's overflow is the error, as it was, not
    only the best set's."""
    model = _extreme_model(0.0)[0]
    treatments = (TreatmentAction("FixA", "A"), TreatmentAction("FixB", "B"))
    loss = -0.9 * MAX
    utility = UtilityModel({t.id: AdditiveEntry(0.0, 0.0, loss, loss) for t in treatments})
    for search in (optimal_treatment, reference_optimal_treatment):
        with pytest.raises(DiagnoscopeError, match="^expected utility overflows the float range$"):
            search(model, ObservationSet(), utility, treatments)
    assert expected_utility(model, ObservationSet(), utility, treatments, frozenset({"FixA", "FixB"})) == 0.0


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "fix_a, fix_b, joint_value, selected",
    [
        (AdditiveEntry(INF, 0.0, 0.0, 0.0), None, 1.0, {"FixA"}),
        (AdditiveEntry(0.0, 0.0, -INF, 0.0), None, 1.0, set()),
        (AdditiveEntry(NAN, 0.0, 0.0, 0.0), None, 1.0, {"FixA"}),
        (None, None, INF, set()),
        (None, None, -INF, set()),
        # inf - inf in one set: math.fsum raised ValueError here
        (AdditiveEntry(INF, INF, 0.0, 0.0), AdditiveEntry(-INF, -INF, 0.0, 0.0), 1.0, {"FixA", "FixB"}),
    ],
)
def test_a_term_that_is_not_finite_is_a_domain_error(
    circuit4, observe_current, fix_a, fix_b, joint_value, selected
):
    """Through the Python API, which does not validate utilities, a term can
    be infinite or NaN. It has no exact value, so the search, and the
    expected utility of any set whose terms include it, end in the overflow
    error: not in a traceback, and not in a total of inf."""
    treatments = (TreatmentAction("FixA", "A"), TreatmentAction("FixB", "B"))
    additive = {tid: entry for tid, entry in (("FixA", fix_a), ("FixB", fix_b)) if entry is not None}
    utility = UtilityModel(additive, (JointEntry((("B", True),), (("FixB", False),), joint_value),))
    message = "^expected utility overflows the float range$"
    with pytest.raises(DiagnoscopeError, match=message):
        optimal_treatment(circuit4, observe_current, utility, treatments)
    with pytest.raises(DiagnoscopeError, match=message):
        expected_utility(circuit4, observe_current, utility, treatments, frozenset(selected))
    report = compare_strategies(circuit4, observe_current, utility, treatments)
    assert report.failures == (("treatment", "expected utility overflows the float range"),)


def test_totals_that_round_to_one_float_tie():
    """{T0} totals 1 - 2^-54 and {T1} 1 + 2^-53, exactly: 0.75 ulp apart,
    but both round to 1.0, so they tie and T0, the first id, wins, as in
    the per-set search."""
    model = FaultModel(hypotheses=(Hypothesis("C", 1.0),), observables=(ObservableVar("E"),), rules=())
    treatments = (TreatmentAction("T0", "C"), TreatmentAction("T1", "C"))
    only_t0, only_t1 = (("T0", True), ("T1", False)), (("T1", True), ("T0", False))
    utility = UtilityModel(
        joint_entries=tuple(
            JointEntry((("C", True),), given, value)
            for given, value in ((only_t0, 1.0), (only_t0, -(2.0**-54)), (only_t1, 1.0), (only_t1, 2.0**-53))
        )
    )
    got = optimal_treatment(model, ObservationSet(), utility, treatments)
    assert (got.chosen, got.expected_utility) == (frozenset({"T0"}), 1.0)
    assert_same_decision(got, reference_optimal_treatment(model, ObservationSet(), utility, treatments))
