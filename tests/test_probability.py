from __future__ import annotations

import math
import random

import pytest

from diagnoscope.errors import UnknownAtomError, ZeroProbabilityObservationError
from diagnoscope.formulas import FALSE, TRUE, And, Atom, Not, Or, conjunction
from diagnoscope.logic import _selectors
from diagnoscope.model import (
    CausalRule,
    FaultModel,
    Hypothesis,
    ObservableVar,
    ObservationSet,
    interpretation_at,
)
from diagnoscope.probability import (
    Query,
    _build_table,
    covering_mass_set,
    marginal,
    most_likely_interpretations,
    posterior_table,
)

from .conftest import make_circuit4
from .oracle import (
    formula_marginal,
    posterior_rows,
    prior_rows,
    random_formula,
    random_model,
    ruled_observables,
)

# The worked example's 16 posteriors, index 0 = all faulty.
CIRCUIT4_POSTERIORS = [
    0.0006, 0.0055, 0.0035, 0.0313, 0.0055, 0.0497, 0.0313, 0.2816,
    0.0377, 0.3395, 0.2138, 0.0, 0.0, 0.0, 0.0, 0.0,
]


def test_row_prior_hand_values(circuit4):
    """Without observations a row's posterior is its prior."""
    priors = posterior_table(circuit4, ObservationSet()).posteriors
    assert priors[15] == pytest.approx(0.677484, abs=1e-12)  # all normal
    assert priors[7] == pytest.approx(0.011016, abs=1e-12)  # only A faulty


def test_row_prior_degenerate_priors():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.0), Hypothesis("B", 1.0)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"), CausalRule(("B",), "E")),
    )
    priors = posterior_table(model, ObservationSet()).posteriors
    assert priors[0] == 0.0
    # A normal, B faulty
    assert priors[0b10] == 1.0


def test_posterior_table_reproduces_worked_example(circuit4, observe_current):
    table = posterior_table(circuit4, observe_current)
    assert table.evidence_probability == pytest.approx(0.039124, abs=1e-12)
    for posterior, expected in zip(table.posteriors, CIRCUIT4_POSTERIORS):
        assert posterior == pytest.approx(expected, abs=5e-4)
    # impossible rows carry an exact zero
    for index in range(11, 16):
        assert table.posteriors[index] == 0.0


def test_evidence_is_the_correctly_rounded_sum_of_the_live_rows(circuit4, observe_current):
    # The built-in sum of these priors reads 0.03912399999999999 before
    # CPython 3.12 and 0.039124 from it on; math.fsum reads 0.039124 on both.
    table = posterior_table(circuit4, observe_current)
    live = [
        prior for prior, posterior in zip(prior_rows(circuit4), table.posteriors) if posterior > 0.0
    ]
    assert len(live) == 11
    assert table.evidence_probability == math.fsum(live) == 0.039124


def test_posterior_table_empty_observations(circuit4):
    table = posterior_table(circuit4, ObservationSet())
    assert table.evidence_probability == pytest.approx(1.0, abs=1e-12)
    for posterior, prior in zip(table.posteriors, prior_rows(circuit4), strict=True):
        assert posterior == pytest.approx(prior, abs=1e-12)


def test_posterior_table_zero_probability():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.5),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule((), "E"),),  # E holds unconditionally
    )
    with pytest.raises(ZeroProbabilityObservationError, match="zero probability"):
        posterior_table(model, ObservationSet.of("!E"))


def test_degenerate_priors_keep_the_index_space():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.0), Hypothesis("B", 0.5)),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"), CausalRule(("B",), "E")),
    )
    table = posterior_table(model, ObservationSet.of("E"))
    assert len(table.posteriors) == 4
    # rows asserting the impossible fault stay in place with probability 0
    assert list(table.posteriors) == [0.0, 0.0, 1.0, 0.0]


def test_marginals_match_worked_example(circuit4, observe_current):
    table = posterior_table(circuit4, observe_current)
    assert marginal(table, Atom("B")) == pytest.approx(0.632, abs=1e-3)
    assert marginal(table, And((Atom("B"), Atom("C")))) == pytest.approx(0.383, abs=1e-3)
    assert marginal(table, And((Atom("A"), Not(Atom("D"))))) == pytest.approx(
        0.368, abs=1e-3
    )
    assert marginal(table, TRUE) == pytest.approx(1.0, abs=1e-12)
    # no row satisfies FALSE: the empty sum is still a float
    unsatisfiable = marginal(table, FALSE)
    assert unsatisfiable == 0.0 and isinstance(unsatisfiable, float)


def test_most_likely_interpretation_is_row_nine(circuit4, observe_current):
    table = posterior_table(circuit4, observe_current)
    winners = most_likely_interpretations(table)
    assert winners == [9]
    assert table.posteriors[winners[0]] == pytest.approx(0.3395, abs=5e-4)
    assert interpretation_at(circuit4, winners[0]).true_ids() == ("B", "C")


def test_most_likely_flips_when_prior_of_c_drops(observe_current):
    variant = make_circuit4(prior_c=0.12)
    table = posterior_table(variant, observe_current)
    winners = most_likely_interpretations(table)
    assert winners == [7]
    assert interpretation_at(variant, winners[0]).true_ids() == ("A",)


def test_most_likely_reports_ties():
    model = FaultModel(
        hypotheses=(Hypothesis("A", 0.5),),
        observables=(ObservableVar("E"),),
        rules=(CausalRule(("A",), "E"),),
    )
    table = posterior_table(model, ObservationSet())
    assert most_likely_interpretations(table) == [0, 1]


def test_covering_mass_examples(circuit4, observe_current):
    table = posterior_table(circuit4, observe_current)
    half = covering_mass_set(table, 0.5)
    assert half == [9, 7]
    assert sum(table.posteriors[i] for i in half) == pytest.approx(0.6211, abs=5e-4)
    everything = covering_mass_set(table, 1.0)
    assert len(everything) == 11
    assert all(table.posteriors[i] > 0.0 for i in everything)
    assert len(covering_mass_set(table, 1e-12)) == 1
    with pytest.raises(ValueError):
        covering_mass_set(table, 0.0)
    with pytest.raises(ValueError):
        covering_mass_set(table, 1.5)


def test_normalization_over_random_models():
    rng = random.Random(31)
    for _ in range(60):
        model = random_model(rng, max_hypotheses=5, max_rules=5, with_facts=True)
        ruled = ruled_observables(model)
        observations = (
            ObservationSet.of(rng.choice(ruled)) if ruled and rng.random() < 0.7
            else ObservationSet()
        )
        try:
            table = posterior_table(model, observations)
        except ZeroProbabilityObservationError:
            continue
        assert sum(table.posteriors) == pytest.approx(1.0, abs=1e-9)


def test_zero_exactly_for_impossible_rows():
    rng = random.Random(37)
    for _ in range(40):
        model = random_model(rng, max_hypotheses=4, max_rules=4, with_facts=True)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        observations = ObservationSet(((rng.choice(ruled), rng.random() < 0.7),))
        try:
            table = posterior_table(model, observations)
        except ZeroProbabilityObservationError:
            continue
        rows, _ = posterior_rows(model, observations.literals)
        for posterior, oracle_row in zip(table.posteriors, rows):
            # priors stay inside (0,1), so possibility <=> nonzero posterior
            assert (posterior == 0.0) == (oracle_row == 0.0)


def test_marginal_equals_brute_force_sum():
    rng = random.Random(41)
    for _ in range(40):
        model = random_model(rng, max_hypotheses=4, max_rules=4)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        observations = ObservationSet.of(rng.choice(ruled))
        try:
            table = posterior_table(model, observations)
        except ZeroProbabilityObservationError:
            continue
        atoms = [h.id for h in model.hypotheses] + ruled
        formula = random_formula(rng, atoms, depth=3)
        expected = formula_marginal(model, observations.literals, formula)
        assert marginal(table, formula) == pytest.approx(expected, abs=1e-9)
        for hypothesis in model.hypotheses:
            total = marginal(table, Atom(hypothesis.id)) + marginal(
                table, Not(Atom(hypothesis.id))
            )
            assert total == pytest.approx(1.0, abs=1e-9)


def test_literal_mass_is_the_marginal_of_the_conjunction():
    """Same rows, same order: equal to the last bit, contradictions
    included, whether the query has summed the same row mask before (the
    literals reordered or repeated) or not; a name that is not a
    hypothesis is an unknown atom."""
    rng = random.Random(47)
    for _ in range(60):
        model = random_model(rng, max_hypotheses=5, max_rules=4)
        table = posterior_table(model, ObservationSet())
        mass = Query(model, ObservationSet()).mass
        ids = model.hypothesis_ids
        for _ in range(4):
            literals = [(rng.choice(ids), rng.random() < 0.5) for _ in range(rng.randint(0, 4))]
            formula = conjunction(
                [Atom(name) if polarity else Not(Atom(name)) for name, polarity in literals]
            )
            assert mass(literals) == marginal(table, formula)
            assert mass(reversed(literals + literals[:1])) == marginal(table, formula)
    circuit4 = make_circuit4()
    mass = Query(circuit4, ObservationSet.of("E")).mass
    for name in ("E", "Z"):
        with pytest.raises(UnknownAtomError, match=f"^unknown atom '{name}'$"):
            mass((("A", True), (name, True)))


def test_mpe_ignores_added_independent_variable():
    """Adding a hypothesis no rule or fact mentions (prior != 0.5) leaves the
    winning interpretation unchanged on the original hypotheses; the new
    variable takes its more likely value."""
    rng = random.Random(43)
    checked = 0
    for _ in range(60):
        model = random_model(rng, max_hypotheses=3, max_rules=4)
        ruled = ruled_observables(model)
        if not ruled:
            continue
        observations = ObservationSet.of(rng.choice(ruled))
        try:
            base_table = posterior_table(model, observations)
        except ZeroProbabilityObservationError:
            continue
        base_winners = most_likely_interpretations(base_table)
        if len(base_winners) != 1:
            continue
        base_mapping = dict(interpretation_at(model, base_winners[0]).literals())

        prior = rng.choice([0.12, 0.31, 0.77, 0.9])
        extended = FaultModel(
            hypotheses=model.hypotheses + (Hypothesis("IRRELEVANT", prior),),
            observables=model.observables,
            rules=model.rules,
            extra_facts=model.extra_facts,
        )
        winners = most_likely_interpretations(posterior_table(extended, observations))
        assert len(winners) == 1
        mapping = dict(interpretation_at(extended, winners[0]).literals())
        assert mapping["IRRELEVANT"] == (prior > 0.5)
        projected = {k: v for k, v in mapping.items() if k != "IRRELEVANT"}
        assert projected == base_mapping
        checked += 1
    assert checked >= 20


def _reference_table(query: Query) -> tuple[list[float], float]:
    """The table built one list comprehension per hypothesis, as the
    products were first written: the posteriors and the evidence."""
    possible = _selectors(query.good, 1 << len(query.model.hypotheses))
    weights = [1.0]
    for hypothesis in query.model.hypotheses:
        p = hypothesis.prior
        weights = [x * f for x in weights for f in (p, 1.0 - p)]
    weights = [weight if keep else 0.0 for weight, keep in zip(weights, possible)]
    evidence = math.fsum(weights)
    if evidence == 0.0:
        raise ZeroProbabilityObservationError("observation has zero probability")
    return [weight / evidence for weight in weights], evidence


@pytest.mark.parametrize("seed", range(40))
def test_table_build_matches_the_reference_bit_for_bit(seed):
    """Priors of 0, 1, 1e-300 and 5e-324 among ordinary ones, with and
    without facts: the same products in the same order, so every posterior
    and the evidence are the same floats."""
    rng = random.Random(seed)
    names = [f"H{k}" for k in range(rng.randint(1, 7))]
    priors = (0.0, 1.0, 1e-300, 5e-324, 0.3, 0.7, 0.1)
    facts = (Or((Not(Atom(names[0])), Atom(names[-1]))),) if seed % 2 else ()
    model = FaultModel(
        hypotheses=tuple(Hypothesis(name, rng.choice(priors)) for name in names),
        observables=(ObservableVar("E"),),
        rules=tuple(CausalRule((name,), "E") for name in rng.sample(names, rng.randint(1, len(names)))),
        extra_facts=facts,
    )
    observations = ObservationSet.of(rng.choice(("E", "!E"))) if seed % 3 else ObservationSet()
    try:
        expected = _reference_table(Query(model, observations))
    except ZeroProbabilityObservationError:
        with pytest.raises(ZeroProbabilityObservationError):
            _build_table(Query(model, observations))
        return
    table = _build_table(Query(model, observations))
    assert list(map(float.hex, table.posteriors)) == list(map(float.hex, expected[0]))
    assert table.evidence_probability.hex() == expected[1].hex()
