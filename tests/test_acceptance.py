"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N [...]: PASS`` (or FAIL) line; run with
``pytest -s tests/test_acceptance.py`` to see them. The brute-force
references live in tests/oracle.py and never call the engine's own
completion/enumeration/scoring paths.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

from diagnoscope.decision import additive_fix_threshold, optimal_treatment
from diagnoscope.errors import (
    UnexplainableObservationError,
    ZeroProbabilityObservationError,
)
from diagnoscope.formulas import And, Atom, Not
from diagnoscope.logic import (
    abductive_explanations,
    clark_completion,
    consistency_diagnoses,
)
from diagnoscope.model import (
    AdditiveEntry,
    ObservationSet,
    UtilityModel,
    interpretation_at,
)
from diagnoscope.probability import (
    marginal,
    most_likely_interpretations,
    posterior_table,
)
from diagnoscope.strategies import (
    diagnose_abductive,
    diagnose_consistency,
    diagnose_mpe,
    diagnose_posterior,
    diagnose_single_fault,
)

from .conftest import FIXTURES, make_circuit4
from .oracle import (
    formula_marginal,
    minimal_sets,
    posterior_rows,
    random_formula,
    random_model,
    ruled_observables,
    satisfying_fault_sets,
)

CIRCUIT4_FDL = str(FIXTURES / "circuit4.fdl")
UNIT_GAIN_FDL = str(FIXTURES / "fix_unit_gain.fdl")

PAPER_POSTERIORS = [
    0.0006, 0.0055, 0.0035, 0.0313, 0.0055, 0.0497, 0.0313, 0.2816,
    0.0377, 0.3395, 0.2138, 0.0, 0.0, 0.0, 0.0, 0.0,
]
PAPER_MARGINALS = {"A": 0.409, "B": 0.632, "C": 0.439, "D": 0.292}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    print(f"criterion {number} [{description}]: PASS")


def test_criterion_1_posterior_table_reproduction(capsys):
    with criterion(1, "posterior table reproduction via CLI"):
        from diagnoscope.cli import run_cli

        code = run_cli(["interpretations", CIRCUIT4_FDL, "--observe", "E"])
        out = capsys.readouterr().out
        assert code == 0
        rows = out.splitlines()[2:]
        assert len(rows) == 16
        for row, expected in zip(rows, PAPER_POSTERIORS):
            assert abs(float(row.split()[-1]) - expected) <= 5e-4


def test_criterion_2_marginals():
    with criterion(2, "posterior marginals of the four hypotheses"):
        table = posterior_table(make_circuit4(), ObservationSet.of("E"))
        for name, expected in PAPER_MARGINALS.items():
            assert marginal(table, Atom(name)) == pytest.approx(expected, abs=1e-3)


def test_criterion_3_strategy_divergence():
    with criterion(3, "the strategies disagree on one input"):
        model = make_circuit4()
        observations = ObservationSet.of("E")
        assert diagnose_single_fault(model, observations).leader.fault_set == {"A"}
        assert diagnose_posterior(model, observations).leader.fault_set == {"B"}
        assert diagnose_mpe(model, observations).leader.fault_set == {"B", "C"}
        consistency = diagnose_consistency(model, observations)
        assert consistency.leader.fault_set == {"A"}
        expected_scores = {
            frozenset({"A"}): 0.409,
            frozenset({"B", "C"}): 0.383,
            frozenset({"B", "D"}): 0.256,
        }
        assert len(consistency.candidates) == 3
        for candidate in consistency.candidates:
            assert candidate.score == pytest.approx(
                expected_scores[candidate.fault_set], abs=1e-3
            )
        abductive = diagnose_abductive(model, observations)
        assert [(c.fault_set, c.score) for c in abductive.candidates] == [
            (c.fault_set, c.score) for c in consistency.candidates
        ]


def test_criterion_4_prior_shift_flips_mpe_only():
    with criterion(4, "prior shift flips MPE leader but not posterior leader"):
        model = make_circuit4(prior_c=0.12)
        observations = ObservationSet.of("E")
        mpe = diagnose_mpe(model, observations)
        assert mpe.leader.fault_set == {"A"}
        posterior = diagnose_posterior(model, observations)
        assert posterior.leader.fault_set == {"B"}

        rows, _ = posterior_rows(model, observations.literals)
        assert mpe.leader.score == pytest.approx(max(rows), abs=1e-12)
        oracle_best = formula_marginal(model, observations.literals, Atom("B"))
        assert posterior.leader.score == pytest.approx(oracle_best, abs=1e-12)
        for name in "ACD":
            other = formula_marginal(model, observations.literals, Atom(name))
            assert other < oracle_best


def test_criterion_5_utility_decisions(gate_treatments):
    with criterion(5, "treatment choices and fix thresholds"):
        model = make_circuit4()
        observations = ObservationSet.of("E")
        unit_gain = AdditiveEntry(1.0, -1.0, 0.0, 0.0)
        miss_penalty = AdditiveEntry(1.0, -1.0, -10.0, 0.0)

        chosen = optimal_treatment(
            model,
            observations,
            UtilityModel({t.id: unit_gain for t in gate_treatments}),
            gate_treatments,
        ).chosen
        assert chosen == frozenset({"FixB"})

        chosen = optimal_treatment(
            model,
            observations,
            UtilityModel({t.id: miss_penalty for t in gate_treatments}),
            gate_treatments,
        ).chosen
        assert chosen == frozenset({"FixA", "FixB", "FixC", "FixD"})

        assert additive_fix_threshold(unit_gain) == pytest.approx(0.5, abs=1e-12)
        assert additive_fix_threshold(miss_penalty) == pytest.approx(1 / 12, abs=1e-12)


def test_criterion_6_interaction_probabilities():
    with criterion(6, "joint a/d repair probabilities"):
        table = posterior_table(make_circuit4(), ObservationSet.of("E"))
        a, d = Atom("A"), Atom("D")
        expected = [
            (And((a, d)), 0.041),
            (And((a, Not(d))), 0.368),
            (And((Not(a), d)), 0.251),
            (And((Not(a), Not(d))), 0.340),
        ]
        for formula, value in expected:
            assert marginal(table, formula) == pytest.approx(value, abs=1e-3)


def test_criterion_7a_normalization():
    with criterion(7, "property: posterior tables normalize to 1 +/- 1e-9"):
        rng = random.Random(101)
        checked = 0
        for _ in range(120):
            model = random_model(rng, max_hypotheses=5, max_rules=5, with_facts=True)
            ruled = ruled_observables(model)
            observations = (
                ObservationSet.of(rng.choice(ruled))
                if ruled and rng.random() < 0.8
                else ObservationSet()
            )
            try:
                table = posterior_table(model, observations)
            except ZeroProbabilityObservationError:
                continue
            assert abs(sum(table.posteriors) - 1.0) <= 1e-9
            checked += 1
        assert checked >= 80


def test_criterion_7b_subset_minimality():
    with criterion(7, "property: every emitted diagnosis is subset-minimal"):
        rng = random.Random(103)
        checked = 0
        for _ in range(120):
            model = random_model(rng, max_hypotheses=4, max_rules=5, with_facts=True)
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
                sets = [d for d in result]
                for diag in sets:
                    for size in range(len(diag)):
                        for subset in itertools.combinations(diag, size):
                            assert frozenset(subset) not in sets
                checked += 1
        assert checked >= 100


def test_criterion_7c_consistency_equals_abduction():
    with criterion(7, "property: consistency == abduction on monotone models"):
        rng = random.Random(107)
        checked = 0
        while checked < 200:
            model = random_model(rng, max_hypotheses=3, max_rules=4)
            theory = clark_completion(model)
            ruled = ruled_observables(model)
            if not ruled:
                continue
            size = rng.randint(1, len(ruled))
            observations = ObservationSet.of(*rng.sample(ruled, size))
            try:
                consistent = consistency_diagnoses(theory, observations)
            except UnexplainableObservationError:
                with pytest.raises(UnexplainableObservationError):
                    abductive_explanations(theory, observations)
                checked += 1
                continue
            abduced = abductive_explanations(theory, observations)
            assert [d for d in consistent] == [d for d in abduced]
            checked += 1


def test_criterion_7d_conjunction_dominance():
    with criterion(7, "property: conjunctions never outscore their conjuncts"):
        rng = random.Random(109)
        checked = 0
        for _ in range(120):
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
            left = random_formula(rng, atoms, depth=2)
            right = random_formula(rng, atoms, depth=2)
            joint = marginal(table, And((left, right)))
            assert joint <= marginal(table, left) + 1e-12
            assert joint <= marginal(table, right) + 1e-12
            checked += 1
        assert checked >= 80


def test_criterion_7e_mpe_projection_invariance():
    with criterion(7, "property: independent extra hypothesis leaves MPE projection unchanged"):
        from diagnoscope.model import FaultModel, Hypothesis

        rng = random.Random(113)
        checked = 0
        while checked < 60:
            model = random_model(rng, max_hypotheses=3, max_rules=4)
            ruled = ruled_observables(model)
            if not ruled:
                continue
            observations = ObservationSet.of(rng.choice(ruled))
            try:
                base = most_likely_interpretations(posterior_table(model, observations))
            except ZeroProbabilityObservationError:
                continue
            if len(base) != 1:
                continue
            prior = rng.choice([0.07, 0.2, 0.35, 0.65, 0.8, 0.93])
            extended = FaultModel(
                hypotheses=model.hypotheses + (Hypothesis("EXTRA", prior),),
                observables=model.observables,
                rules=model.rules,
                extra_facts=model.extra_facts,
            )
            winners = most_likely_interpretations(posterior_table(extended, observations))
            assert len(winners) == 1
            mapping = dict(interpretation_at(extended, winners[0]).mapping)
            assert mapping.pop("EXTRA") == (prior > 0.5)
            assert mapping == interpretation_at(model, base[0]).mapping
            checked += 1


def test_criterion_7f_consistency_brute_force_equivalence():
    with criterion(7, "property: consistency diagnoses match the brute-force oracle"):
        rng = random.Random(127)
        checked = 0
        for _ in range(150):
            model = random_model(rng, max_hypotheses=4, max_rules=5, with_facts=True)
            theory = clark_completion(model)
            ruled = ruled_observables(model)
            if not ruled:
                continue
            name = rng.choice(ruled)
            observations = ObservationSet(((name, rng.random() < 0.8),))
            expected = minimal_sets(satisfying_fault_sets(model, observations.literals))
            try:
                result = consistency_diagnoses(theory, observations)
            except UnexplainableObservationError:
                assert expected == set()
                checked += 1
                continue
            assert {d for d in result} == expected
            checked += 1
        assert checked >= 100


def test_criterion_8_cli_determinism():
    with criterion(8, "byte-identical CLI output across runs"):
        commands = [
            ["check", CIRCUIT4_FDL],
            ["interpretations", CIRCUIT4_FDL, "--observe", "E"],
            ["interpretations", CIRCUIT4_FDL, "--observe", "E", "--format", "json"],
            ["diagnose", CIRCUIT4_FDL, "--observe", "E", "--strategy", "all"],
            ["treat", CIRCUIT4_FDL, "--observe", "E", "--utility", UNIT_GAIN_FDL],
            ["cover", CIRCUIT4_FDL, "--observe", "E", "--mass", "0.5"],
        ]
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "diagnoscope", *argv],
                    capture_output=True,
                    check=False,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stderr == runs[1].stderr == b""
