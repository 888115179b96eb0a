from __future__ import annotations

import collections.abc
import random

import pytest

from diagnoscope import probability
from diagnoscope.errors import ZeroProbabilityObservationError
from diagnoscope.formulas import And, Atom, Not, conjunction
from diagnoscope.model import (
    AdditiveEntry,
    CausalRule,
    FaultModel,
    Hypothesis,
    ObservableVar,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
    index_of_assignment,
    interpretation_at,
)
from diagnoscope.probability import marginal, posterior_table
from diagnoscope.strategies import (
    RowCandidates,
    Strategy,
    compare_strategies,
    diagnose_abductive,
    diagnose_consistency,
    diagnose_mpe,
    diagnose_posterior,
    diagnose_single_fault,
)

from .conftest import make_circuit4
from .oracle import random_model, ruled_observables


def test_single_fault_circuit4(circuit4, observe_current):
    ranking = diagnose_single_fault(circuit4, observe_current)
    assert [c.fault_set for c in ranking.candidates] == [frozenset({"A"})]
    assert ranking.leader.score == pytest.approx(0.2816, abs=5e-4)
    assert ranking.ties == (ranking.leader,)


def test_single_fault_without_current(circuit4):
    ranking = diagnose_single_fault(circuit4, ObservationSet.of("!E"))
    # every single fault except A is compatible with the absence of current
    assert {frozenset(c.fault_set) for c in ranking.candidates} == {
        frozenset({"B"}), frozenset({"C"}), frozenset({"D"})
    }
    assert ranking.leader.fault_set == frozenset({"C"})
    scores = [c.score for c in ranking.candidates]
    assert scores == sorted(scores, reverse=True)


def test_single_fault_can_be_empty():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.1), Hypothesis("B", 0.1)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A", "B"), "E"),),
    )
    ranking = diagnose_single_fault(model, ObservationSet.of("E"))
    assert ranking.candidates == ()
    assert ranking.leader is None


def test_posterior_ranking_circuit4(circuit4, observe_current):
    ranking = diagnose_posterior(circuit4, observe_current)
    assert [sorted(c.fault_set) for c in ranking.candidates] == [["B"], ["C"], ["A"], ["D"]]
    expected = {"B": 0.632, "C": 0.439, "A": 0.409, "D": 0.292}
    for candidate in ranking.candidates:
        (name,) = candidate.fault_set
        assert candidate.score == pytest.approx(expected[name], abs=1e-3)


def test_posterior_leader_stable_under_prior_change(observe_current):
    ranking = diagnose_posterior(make_circuit4(prior_c=0.12), observe_current)
    assert ranking.leader.fault_set == frozenset({"B"})


def test_posterior_without_observations_equals_priors(circuit4):
    ranking = diagnose_posterior(circuit4, ObservationSet())
    priors = {h.id: h.prior for h in circuit4.hypotheses}
    for candidate in ranking.candidates:
        (name,) = candidate.fault_set
        assert candidate.score == pytest.approx(priors[name], abs=1e-12)


def test_mpe_circuit4(circuit4, observe_current):
    ranking = diagnose_mpe(circuit4, observe_current)
    assert ranking.leader.index == 9
    assert ranking.leader.fault_set == frozenset({"B", "C"})
    assert ranking.leader.score == pytest.approx(0.3395, abs=5e-4)
    assert len(ranking.candidates) == 16
    scores = [c.score for c in ranking.candidates]
    assert scores == sorted(scores, reverse=True)


def test_mpe_candidates_are_a_view_over_the_rows(circuit4, observe_current):
    """The MPE ranking holds row indices; each Candidate is built when it
    is asked for, with its fault set decoded from the index bits."""
    ranking = diagnose_mpe(circuit4, observe_current)
    candidates = ranking.candidates
    assert isinstance(candidates, collections.abc.Sequence)
    assert isinstance(candidates, RowCandidates)
    table = posterior_table(circuit4, observe_current)
    for position, candidate in enumerate(candidates):
        assert candidate == candidates[position] == candidates[position - len(candidates)]
        assert candidate.fault_set == frozenset(interpretation_at(circuit4, candidate.index).true_ids())
        assert candidate.score == table.posteriors[candidate.index]
    assert candidates[-1] == tuple(candidates)[-1]
    assert tuple(candidates[2:5]) == tuple(candidates)[2:5]
    assert list(reversed(candidates)) == list(candidates)[::-1]
    assert candidates.index(candidates[3]) == 3
    assert list(candidates.scores()) == [c.score for c in candidates]
    with pytest.raises(IndexError):
        candidates[16]
    assert tuple(ranking.ties) == (ranking.leader,)


def test_mpe_rankings_compare_by_rows_and_scores(circuit4, observe_current):
    """Two MPE rankings are equal when they rank the same rows of the same
    hypotheses with equal scores; a view is never equal to a tuple."""
    ranking = diagnose_mpe(circuit4, observe_current)
    again = diagnose_mpe(make_circuit4(), ObservationSet.of("E"))
    assert ranking.candidates.posteriors is not again.candidates.posteriors
    assert ranking == again
    assert hash(ranking) == hash(again)
    assert ranking.candidates != tuple(ranking.candidates)
    assert ranking.candidates[:3] == again.candidates[:3]
    assert ranking.candidates[:3] != again.candidates[1:4]
    view = ranking.candidates
    halved = tuple(p / 2 for p in view.posteriors)
    assert RowCandidates(view.ids, view.indices, halved) != view
    assert RowCandidates(view.ids, list(view.indices), tuple(list(view.posteriors))) == view
    # Same rows and scores, other hypotheses.
    renamed = FaultModel(
        tuple(Hypothesis(h.id.lower(), h.prior) for h in circuit4.hypotheses),
        circuit4.observables,
        tuple(CausalRule(tuple(n.lower() for n in r.body), r.head) for r in circuit4.rules),
    )
    other = diagnose_mpe(renamed, observe_current)
    assert list(other.candidates.scores()) == list(ranking.candidates.scores())
    assert other != ranking


def test_mpe_flips_with_prior_change(observe_current):
    ranking = diagnose_mpe(make_circuit4(prior_c=0.12), observe_current)
    assert ranking.leader.fault_set == frozenset({"A"})


def test_mpe_no_observations_prefers_all_normal(circuit4):
    ranking = diagnose_mpe(circuit4, ObservationSet())
    assert ranking.leader.index == 15
    assert ranking.leader.fault_set == frozenset()
    assert ranking.leader.score == pytest.approx(0.6775, abs=5e-5)


def test_consistency_scores_circuit4(circuit4, observe_current):
    ranking = diagnose_consistency(circuit4, observe_current)
    expected = [
        (frozenset({"A"}), 0.409),
        (frozenset({"B", "C"}), 0.383),
        (frozenset({"B", "D"}), 0.256),
    ]
    assert [(c.fault_set, round(c.score, 3)) for c in ranking.candidates] == expected
    assert ranking.leader.fault_set == frozenset({"A"})


def test_consistency_without_current_is_vacuous(circuit4):
    ranking = diagnose_consistency(circuit4, ObservationSet.of("!E"))
    assert [c.fault_set for c in ranking.candidates] == [frozenset()]
    assert ranking.leader.score == pytest.approx(1.0, abs=1e-12)


def test_consistency_two_cause_model():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.2), Hypothesis("B", 0.4)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"), CausalRule(("B",), "E")),
    )
    observations = ObservationSet.of("E")
    ranking = diagnose_consistency(model, observations)
    table = posterior_table(model, observations)
    assert {c.fault_set for c in ranking.candidates} == {
        frozenset({"A"}), frozenset({"B"})
    }
    for candidate in ranking.candidates:
        (name,) = candidate.fault_set
        assert candidate.score == pytest.approx(marginal(table, Atom(name)), abs=1e-12)


def test_abductive_matches_consistency_on_circuit4(circuit4, observe_current):
    consistency = diagnose_consistency(circuit4, observe_current)
    abductive = diagnose_abductive(circuit4, observe_current)
    assert [(c.fault_set, c.score) for c in consistency.candidates] == [
        (c.fault_set, c.score) for c in abductive.candidates
    ]


def test_abductive_sole_cause_is_certain():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.05),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    ranking = diagnose_abductive(model, ObservationSet.of("E"))
    assert ranking.leader.fault_set == frozenset({"A"})
    assert ranking.leader.score == pytest.approx(1.0, abs=1e-12)


def test_rankings_agree_on_random_monotone_models():
    rng = random.Random(53)
    checked = 0
    for _ in range(120):
        model = random_model(rng, max_hypotheses=3, max_rules=4)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        observations = ObservationSet.of(rng.choice(ruled))
        try:
            consistency = diagnose_consistency(model, observations)
            abductive = diagnose_abductive(model, observations)
        except ZeroProbabilityObservationError:
            continue
        assert [(c.fault_set, c.score) for c in consistency.candidates] == [
            (c.fault_set, c.score) for c in abductive.candidates
        ]
        checked += 1
    assert checked >= 60


def test_scores_recompute_from_the_table(circuit4, observe_current):
    table = posterior_table(circuit4, observe_current)
    order = circuit4.hypothesis_index
    for runner in (diagnose_posterior, diagnose_consistency, diagnose_abductive):
        for candidate in runner(circuit4, observe_current).candidates:
            names = sorted(candidate.fault_set, key=lambda n: order[n])
            formula = conjunction([Atom(name) for name in names])
            assert candidate.score == pytest.approx(
                marginal(table, formula), abs=1e-12
            )
    for candidate in diagnose_mpe(circuit4, observe_current).candidates:
        assert candidate.score == table.posteriors[candidate.index]


def test_single_fault_scores_are_table_rows(circuit4, observe_current):
    table = posterior_table(circuit4, observe_current)
    ranking = diagnose_single_fault(circuit4, observe_current)
    total = 0.0
    for candidate in ranking.candidates:
        index = index_of_assignment(circuit4, set(candidate.fault_set))
        assert candidate.score == table.posteriors[index]
        total += candidate.score
    assert total <= 1.0 + 1e-12


def test_conjunction_never_outscores_conjuncts():
    rng = random.Random(59)
    for _ in range(60):
        model = random_model(rng, max_hypotheses=4, max_rules=4)
        ruled = ruled_observables(model)
        if not ruled or len(model.hypotheses) < 2:
            continue
        observations = ObservationSet.of(rng.choice(ruled))
        try:
            table = posterior_table(model, observations)
        except ZeroProbabilityObservationError:
            continue
        first, second = rng.sample([h.id for h in model.hypotheses], 2)
        joint = marginal(table, And((Atom(first), Atom(second))))
        assert joint <= marginal(table, Atom(first)) + 1e-12
        assert joint <= marginal(table, Atom(second)) + 1e-12


def test_ranking_invariants_hold_everywhere(circuit4, observe_current):
    for runner in (
        diagnose_single_fault,
        diagnose_posterior,
        diagnose_mpe,
        diagnose_consistency,
        diagnose_abductive,
    ):
        ranking = runner(circuit4, observe_current)
        scores = [c.score for c in ranking.candidates]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)


def test_compare_strategies_flags_divergence(circuit4, observe_current, gate_treatments):
    entry = AdditiveEntry(1.0, -1.0, 0.0, 0.0)
    utility = UtilityModel({t.id: entry for t in gate_treatments})
    report = compare_strategies(circuit4, observe_current, utility, gate_treatments)
    leaders = dict(report.leaders)
    assert leaders["single-fault"] == frozenset({"A"})
    assert leaders["posterior"] == frozenset({"B"})
    assert leaders["mpe"] == frozenset({"B", "C"})
    assert leaders["consistency"] == frozenset({"A"})
    assert leaders["abductive"] == frozenset({"A"})
    assert leaders["treatment"] == frozenset({"B"})
    assert not report.agreement
    assert ("single-fault", "posterior") in report.disagreements
    assert ("single-fault", "consistency") not in report.disagreements
    assert report.failures == ()
    assert report.treatment is not None
    assert report.treatment.chosen == frozenset({"FixB"})


def test_compare_strategies_agrees_on_single_cause():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.2),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    report = compare_strategies(model, ObservationSet.of("E"))
    assert report.agreement
    assert all(fault_set == frozenset({"A"}) for _, fault_set in report.leaders)
    assert report.disagreements == ()


def test_compare_strategies_records_failures(circuit4):
    report = compare_strategies(circuit4, ObservationSet.of("!E"))
    failed = dict(report.failures)
    assert "abductive" in failed
    assert "positive" in failed["abductive"]
    leaders = dict(report.leaders)
    # nothing-is-wrong wins for mpe/consistency, the marginal strategies
    # still name their most likely single fault
    assert leaders["mpe"] == frozenset()
    assert leaders["consistency"] == frozenset()
    assert leaders["single-fault"] == frozenset({"C"})
    assert leaders["posterior"] == frozenset({"C"})
    assert not report.agreement


def _degenerate_model(prior_a: float, facts=()) -> FaultModel:
    return FaultModel(
        hypotheses=(Hypothesis("A", prior_a), Hypothesis("B", 0.2)),
        observables=(ObservableVar("E"), ObservableVar("N")),
        rules=(CausalRule(("A",), "E"), CausalRule(("B",), "N")),
        extra_facts=tuple(facts),
    )


ZERO = "observation has zero probability"
TABLE_STRATEGIES = ("single-fault", "posterior", "mpe")


@pytest.mark.parametrize(
    "prior_a, facts, observed, with_treatment, expected",
    [
        # {A} is logically consistent but has prior 0: every search succeeds
        # and then fails on the table.
        (0.0, (), ("E",), False,
         tuple((s, ZERO) for s in TABLE_STRATEGIES + ("consistency", "abductive"))),
        (0.0, (), ("!E", "N"), False,
         (("abductive", "abduction requires positive observations (got '!E')"),)),
        (0.0, (), ("E",), True,
         tuple((s, ZERO) for s in TABLE_STRATEGIES + ("consistency", "abductive", "treatment"))),
        # With fact !A nothing explains E: the searches fail first, with
        # their own messages.
        (0.3, (Not(Atom("A")),), ("E",), False,
         tuple((s, ZERO) for s in TABLE_STRATEGIES)
         + (("consistency", "observation unexplainable"),
            ("abductive", "observation unexplainable"))),
        (0.3, (Not(Atom("A")),), ("E", "!N"), False,
         tuple((s, ZERO) for s in TABLE_STRATEGIES)
         + (("consistency", "observation unexplainable"),
            ("abductive", "abduction requires positive observations (got '!N')"))),
    ],
)
def test_compare_strategies_failure_records_on_degenerate_input(
    prior_a, facts, observed, with_treatment, expected
):
    model = _degenerate_model(prior_a, facts)
    utility, treatments = None, ()
    if with_treatment:
        utility = UtilityModel({"t": AdditiveEntry(1.0, -1.0, 0.0, 0.0)})
        treatments = (TreatmentAction("t", "A"),)
    report = compare_strategies(model, ObservationSet.of(*observed), utility, treatments)
    assert report.failures == expected


def test_a_failing_table_is_built_once(monkeypatch):
    """A table build that raises is not repeated for each ranker: the
    error is remembered, and every strategy records the same failure."""
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.0), Hypothesis("B", 0.0)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"), CausalRule(("B",), "E")),
    )
    builds = []
    build_table = probability._build_table

    def counting_build(query):
        builds.append(query)
        return build_table(query)

    monkeypatch.setattr(probability, "_build_table", counting_build)
    report = compare_strategies(model, ObservationSet.of("E"))
    assert report.failures == tuple((s.value, ZERO) for s in Strategy)
    assert len(builds) == 1


CAPPED = "hypothesis space too large: 21 hypotheses exceed the cap of 20"
UNKNOWN = "unknown observable: observation of 'Z' is not declared"


@pytest.mark.parametrize(
    "observed, expected",
    [
        # Abduction refuses a negative literal before the size check.
        (("E", "!N"),
         tuple((s, CAPPED) for s in TABLE_STRATEGIES + ("consistency",))
         + (("abductive", "abduction requires positive observations (got '!N')"),)),
        # Every strategy checks the observables first.
        (("!N", "Z"), tuple((s.value, UNKNOWN) for s in Strategy)),
    ],
)
def test_error_order_through_compare_strategies(observed, expected):
    model = FaultModel(
        hypotheses=tuple(Hypothesis(f"H{k}", 0.1) for k in range(21)),
        observables=(ObservableVar("E"), ObservableVar("N")),
        rules=(CausalRule(("H0",), "E"), CausalRule(("H1",), "N")),
    )
    report = compare_strategies(model, ObservationSet.of(*observed))
    assert report.failures == expected
    assert report.rankings == ()
