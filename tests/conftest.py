from __future__ import annotations

from pathlib import Path

import pytest

from diagnoscope.model import (
    CausalRule,
    FaultModel,
    Hypothesis,
    ObservableVar,
    ObservationSet,
    TreatmentAction,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Worked 4-gate example: priors and rules of the circuit4 fixture.
CIRCUIT4_PRIORS = {"A": 0.016, "B": 0.1, "C": 0.15, "D": 0.1}
CIRCUIT4_RULES = ((("A",), "E"), (("B", "C"), "E"), (("B", "D"), "E"))


def make_circuit4(prior_c: float = 0.15) -> FaultModel:
    priors = dict(CIRCUIT4_PRIORS, C=prior_c)
    return FaultModel(
        hypotheses=tuple(Hypothesis(name, priors[name]) for name in "ABCD"),
        observables=(ObservableVar("E"),),
        rules=tuple(CausalRule(body, head) for body, head in CIRCUIT4_RULES),
    )


def assert_same_text(got: str, want: str) -> None:
    """Fail at the first line where ``got`` and ``want`` differ. A bare
    ``==`` on texts of thousands of lines makes pytest diff them line by
    line, which takes minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    pairs = enumerate(zip(got_lines, want_lines))
    first = next((k for k, (a, b) in pairs if a != b), min(len(got_lines), len(want_lines)))
    pytest.fail(
        f"line {first} of {len(want_lines)}: {got_lines[first : first + 1]!r} != {want_lines[first : first + 1]!r}"
    )


@pytest.fixture
def circuit4() -> FaultModel:
    return make_circuit4()


@pytest.fixture
def observe_current() -> ObservationSet:
    return ObservationSet.of("E")


@pytest.fixture
def gate_treatments() -> tuple[TreatmentAction, ...]:
    return tuple(TreatmentAction(f"Fix{name}", name) for name in "ABCD")
