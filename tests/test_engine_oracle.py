"""The engine against the brute force of ``tests/oracle.py`` on random
models: facts, negative observations, priors of 0 and 1, and ties. The
oracle checks the table, the searches, the scenario queries, the five
strategy rankings as ``compare_strategies`` reports them, and ``cover``."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from diagnoscope.errors import (
    InconsistentScenarioError,
    NegativeObservationError,
    UnexplainableObservationError,
    ZeroProbabilityObservationError,
)
from diagnoscope.logic import (
    Scenario,
    abductive_explanations,
    clark_completion,
    consistency_diagnoses,
    maximal_scenarios,
    scenario_consistent,
    scenario_explains,
)
from diagnoscope.model import Hypothesis, ObservationSet, interpretation_at
from diagnoscope.probability import covering_mass_set, marginal, posterior_table
from diagnoscope.strategies import Strategy, compare_strategies

from .oracle import (
    assignment_for_index,
    covering_prefix,
    explaining_fault_sets,
    fact_assignments,
    formula_marginal,
    index_for_assignment,
    minimal_sets,
    posterior_rows,
    random_formula,
    random_model,
    ruled_observables,
    satisfying_fault_sets,
    scenario_entails,
    scenario_is_consistent,
    strategy_rankings,
)

ZERO = "observation has zero probability"
UNEXPLAINABLE = "observation unexplainable"
TABLE_STRATEGIES = ("single-fault", "posterior", "mpe")


@st.composite
def _problems(draw):
    """A model of up to 8 hypotheses with 0-2 random facts, observations of
    either polarity, a goal formula and a scenario (possibly contradictory)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_model(rng, max_hypotheses=8, max_observables=3, max_rules=6)
    ids = list(base.hypothesis_ids)
    # a few shared values make tied posteriors likely; the tiny ones make
    # products underflow or go subnormal
    prior = st.sampled_from([0.1, 0.25, 0.5, 1e-300, 5e-324]) | st.floats(0.01, 0.99)
    priors = {name: draw(prior) for name in ids}
    for name in draw(st.lists(st.sampled_from(ids), unique=True, max_size=2)):
        priors[name] = draw(st.sampled_from([0.0, 1.0]))
    facts = tuple(random_formula(rng, ids) for _ in range(draw(st.integers(0, 2))))
    model = dataclasses.replace(
        base,
        hypotheses=tuple(Hypothesis(name, priors[name]) for name in ids),
        extra_facts=facts,
    )
    ruled = ruled_observables(model)
    observed = draw(st.lists(st.sampled_from(ruled), unique=True, max_size=3))
    observations = ObservationSet(tuple((name, draw(st.booleans())) for name in observed))
    goal = random_formula(rng, ids + ruled, depth=3)
    literal = st.tuples(st.sampled_from(ids), st.booleans())
    scenario = Scenario(tuple(draw(st.lists(literal, max_size=3))))
    mass = draw(st.sampled_from([0.5, 0.9, 1.0]) | st.floats(0.0, 1.0, exclude_min=True))
    return model, observations, goal, scenario, mass


def _ordered(model, sets):
    """Cardinality first, then declaration order."""
    order = model.hypothesis_index
    return sorted(sets, key=lambda s: (len(s), sorted(order[name] for name in s)))


@settings(derandomize=True, deadline=None)
@given(_problems())
def test_engine_matches_the_oracle(problem):
    model, observations, goal, scenario, mass = problem
    literals = observations.literals
    theory = clark_completion(model)

    # The table: the oracle multiplies in declaration order, as the table's
    # prefix products do, and sums in index order, so rows and evidence are
    # equal exactly, also where the products underflow.
    try:
        rows, evidence = posterior_rows(model, literals)
    except ZeroDivisionError:
        rows = None
        with pytest.raises(ZeroProbabilityObservationError):
            posterior_table(model, observations)
    else:
        table = posterior_table(model, observations)
        assert list(table.posteriors) == rows
        assert all(
            dict(interpretation_at(model, i).literals()) == assignment_for_index(model.hypothesis_ids, i)
            for i in range(len(rows))
        )
        assert table.evidence_probability == evidence
        assert marginal(table, goal) == formula_marginal(model, literals, goal)
        prefix = covering_mass_set(table, mass)
        assert prefix == covering_prefix(rows, mass)

    consistent = _ordered(model, minimal_sets(satisfying_fault_sets(model, literals)))
    if consistent:
        result = consistency_diagnoses(theory, observations)
        assert [d for d in result] == consistent
    else:
        with pytest.raises(UnexplainableObservationError):
            consistency_diagnoses(theory, observations)

    explaining = []
    if not observations.all_positive:
        with pytest.raises(NegativeObservationError):
            abductive_explanations(theory, observations)
    else:
        explaining = _ordered(model, minimal_sets(explaining_fault_sets(model, literals)))
        if explaining:
            result = abductive_explanations(theory, observations)
            assert [d for d in result] == explaining
        else:
            with pytest.raises(UnexplainableObservationError):
                abductive_explanations(theory, observations)

    _check_rankings(model, observations, rows, consistent, explaining)

    asserted = scenario.asserted
    assert scenario_consistent(theory, scenario, observations) == scenario_is_consistent(
        model, asserted, literals
    )
    entailed = scenario_entails(model, asserted, goal)
    if entailed is None:
        with pytest.raises(InconsistentScenarioError):
            scenario_explains(theory, scenario, goal)
    else:
        assert scenario_explains(theory, scenario, goal) == entailed
    ids = model.hypothesis_ids
    expected = [index_for_assignment(ids, assignment) for assignment in fact_assignments(model)]
    assert maximal_scenarios(theory) == expected


def _check_rankings(model, observations, rows, consistent, explaining):
    """compare_strategies against the oracle: every ranking's candidates,
    scores (exactly), order and ties, and every failure record in report
    order. A search error takes precedence over the table error."""
    negative = next((name for name, polarity in observations.literals if not polarity), None)
    table_error = ZERO if rows is None else None
    failed = dict.fromkeys(TABLE_STRATEGIES, table_error)
    failed["consistency"] = table_error if consistent else UNEXPLAINABLE
    if negative is not None:
        failed["abductive"] = f"abduction requires positive observations (got '!{negative}')"
    else:
        failed["abductive"] = table_error if explaining else UNEXPLAINABLE
    failed = {strategy: message for strategy, message in failed.items() if message}

    report = compare_strategies(model, observations)
    assert report.failures == tuple(
        (s.value, failed[s.value]) for s in Strategy if s.value in failed
    )
    expected = {}
    if rows is not None:
        expected = strategy_rankings(model, rows, consistent, explaining, 1e-9)
    assert [s.value for s, _ in report.rankings] == [
        s.value for s in Strategy if s.value not in failed
    ]
    for strategy, ranking in report.rankings:
        candidates, ties = expected[strategy.value]
        assert [(c.fault_set, c.score, c.index) for c in tuple(ranking.candidates)] == candidates
        assert [(c.fault_set, c.score, c.index) for c in tuple(ranking.ties)] == ties
