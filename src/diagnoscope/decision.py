"""Utility-based treatment selection over the posterior table.

Utility is state-based, not tied to any diagnosis: on each row, every
treatment pays the additive entry for whether it is chosen and its target
is faulty, and every joint term pays its value where its ``when`` holds
and its ``given`` matches the set. Expected utility is linear in the row
weights, so it is computed from the posterior masses of each treatment's
target and of each joint term's ``when`` pattern, read from the
question's ``probability.Query``. A set's expected utility is then a
polynomial in the treatments' 0/1 indicators. The optimizer writes its
terms as exact ints at one common power of two and runs one subset-sum
(zeta) transform over the 2^l treatment subsets: every set's exact total
in l·2^l int additions, whatever the number of joint terms. A total's
correctly rounded float is the ``math.fsum`` of the set's terms. For
purely additive utilities each treatment also has a closed-form
probability threshold above which treating beats skipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Callable, Iterable

from .errors import DiagnoscopeError, NoFiniteThresholdError, SearchSpaceError
from .model import (
    AdditiveEntry,
    FaultModel,
    ObservationSet,
    TreatmentAction,
    UtilityModel,
    ZERO_ENTRY,
)
from .probability import Query

TREATMENT_CAP = 20


@dataclass(frozen=True)
class TreatmentDecision:
    """The chosen treatment set, its expected utility, and (for additive
    utilities) each treatment's standalone contribution."""

    chosen: frozenset[str]
    expected_utility: float
    per_treatment_breakdown: dict[str, float] | None = None


def _entry_value(entry: AdditiveEntry, treating: bool, faulty: bool) -> float:
    if treating:
        return entry.treat_faulty if faulty else entry.treat_ok
    return entry.skip_faulty if faulty else entry.skip_ok


@dataclass(frozen=True)
class _Terms:
    """The terms whose sum is a treatment set's expected utility: per
    treatment, in declaration order, its id and its treat and skip
    expectations p*v(faulty) + (1-p)*v(ok); per joint term, its ``given``
    and p_when * value."""

    treatments: list[tuple[str, float, float]]
    joints: list[tuple[tuple[tuple[str, bool], ...], float]]

    def parts(self, selected: frozenset[str]) -> list[float]:
        """A set's terms: each treatment's treat or skip expectation, then
        the joint terms whose ``given`` matches the set."""
        terms = [treat if tid in selected else skip for tid, treat, skip in self.treatments]
        terms.extend(
            value
            for given, value in self.joints
            if all((tid in selected) == pol for tid, pol in given)
        )
        return terms


def _utility_parts(
    mass: Callable[[Iterable[tuple[str, bool]]], float],
    utility: UtilityModel,
    treatments: tuple[TreatmentAction, ...],
) -> _Terms:
    """Every treatment's and joint term's expectation, from ``mass``, the
    posterior mass of a conjunction of hypothesis literals (``Query.mass``):
    expected utility is linear in the row weights, so each treatment's
    P(target faulty) and each joint term's P(when) are enough."""
    per_treatment = []
    for treatment in treatments:
        entry = utility.additive.get(treatment.id, ZERO_ENTRY)
        p = mass(((treatment.target, True),))
        treat, skip = (
            p * _entry_value(entry, treating, True)
            + (1.0 - p) * _entry_value(entry, treating, False)
            for treating in (True, False)
        )
        per_treatment.append((treatment.id, treat, skip))
    per_joint = [(joint.given, mass(joint.when) * joint.value) for joint in utility.joint_entries]
    return _Terms(per_treatment, per_joint)


def _overflow() -> DiagnoscopeError:
    return DiagnoscopeError("expected utility overflows the float range")


def _scaled(terms: list[float]) -> tuple[list[int], int]:
    """The terms as exact ints at one common power of two, and that power:
    term k is ``ints[k] / scale``. A term that is not finite is a domain
    error."""
    if not all(map(math.isfinite, terms)):
        raise _overflow()
    ratios = [term.as_integer_ratio() for term in terms]
    scale = max((denominator for _, denominator in ratios), default=1)
    return [numerator * (scale // denominator) for numerator, denominator in ratios], scale


def _float(total: int, scale: int) -> float:
    """``total / scale``, correctly rounded; beyond the float range it is a
    domain error."""
    try:
        return total / scale
    except OverflowError:
        raise _overflow() from None


def _total(terms: list[float]) -> float:
    """The correctly rounded sum of a set's utility terms, the same as
    ``math.fsum``'s. A term that is not finite, or a sum beyond the float
    range, is a domain error; an exact sum within the range is not, even
    where a partial sum overflows."""
    ints, scale = _scaled(terms)
    return _float(sum(ints), scale)


def expected_utility(
    model: FaultModel,
    observations: ObservationSet,
    utility: UtilityModel,
    treatments: tuple[TreatmentAction, ...],
    selected: frozenset[str],
) -> float:
    """Expected utility of the treatment set ``selected`` given the observations."""
    query = Query(model, observations)
    query.table  # an impossible observation fails even where no term asks for a mass
    return _total(_utility_parts(query.mass, utility, treatments).parts(selected))


def optimal_treatment(
    model: FaultModel,
    observations: ObservationSet,
    utility: UtilityModel,
    treatments: tuple[TreatmentAction, ...],
) -> TreatmentDecision:
    """Maximize expected utility over all treatment subsets.

    Ties go to the smallest set, then lexicographically smallest ids.
    """
    return _optimal_treatment(Query(model, observations), utility, treatments)


def _optimal_treatment(
    query: Query, utility: UtilityModel, treatments: tuple[TreatmentAction, ...]
) -> TreatmentDecision:
    """optimal_treatment over a shared query; its table is read after the cap check."""
    if len(treatments) > TREATMENT_CAP:
        raise SearchSpaceError(
            f"treatment space too large: {len(treatments)} treatments"
            f" exceed the cap of {TREATMENT_CAP}"
        )
    query.table  # an impossible observation fails even where no term asks for a mass
    terms = _utility_parts(query.mass, utility, treatments)
    best_set, best_utility = _best(terms)
    breakdown: dict[str, float] | None = None
    if not utility.joint_entries:
        breakdown = dict(zip((t.id for t in treatments), terms.parts(best_set)))
    return TreatmentDecision(best_set, best_utility, breakdown)


def _best(terms: _Terms) -> tuple[frozenset[str], float]:
    """The set of highest expected utility, ties to the smallest set and
    then the lexicographically first ids, and that utility: the set's exact
    total, correctly rounded, which is ``_total`` of its terms. Any set
    whose total is beyond the float range is a domain error.

    The total is a polynomial in the indicators x_t of the treatments: the
    skip expectations, plus x_t * (treat - skip) per treatment, plus per
    joint term its value times x_t for each ``given`` literal t and 1 - x_t
    for each !t. Its coefficients, exact ints at one power of two, go into
    an array indexed by the sets; 1 - x_t expands by inclusion-exclusion
    into monomials joined with OR, as x_t * x_t = x_t, so ``t & !t``
    cancels to 0. The subset-sum transform of the array is every set's
    exact total.
    """
    ids = sorted(tid for tid, _, _ in terms.treatments)
    count = len(ids)
    # Among the sets of one size, the lexicographically first ids have the
    # largest mask.
    bit = {tid: 1 << (count - 1 - k) for k, tid in enumerate(ids)}
    ints, scale = _scaled(
        [value for _, treat, skip in terms.treatments for value in (treat, skip)]
        + [value for _, value in terms.joints]
    )
    pairs = iter(ints)
    totals = [0] * (1 << count)
    for (tid, _, _), treat, skip in zip(terms.treatments, pairs, pairs):
        totals[0] += skip
        totals[bit[tid]] += treat - skip
    for (given, _), value in zip(terms.joints, pairs):
        if any(pol and tid not in bit for tid, pol in given):
            continue  # a treatment that is not offered is never chosen
        need = avoid = 0
        for tid, pol in given:
            if pol:
                need |= bit[tid]
            else:
                avoid |= bit.get(tid, 0)
        subset = avoid
        while True:
            totals[need | subset] += -value if subset.bit_count() & 1 else value
            if not subset:
                break
            subset = (subset - 1) & avoid
    _subset_sums(totals, count)
    high = max(totals)
    _float(min(totals), scale)  # the worst set overflows as surely as the best
    best = _float(high, scale)
    # Only a set within one ulp of the best exact total can round to it.
    numerator, denominator = math.ulp(best).as_integer_ratio()
    ulp = -(-numerator * scale // denominator)  # in units of 1 / scale, rounded up
    near = compress(range(len(totals)), map((high - ulp).__le__, totals))
    chosen = min(
        (mask for mask in near if totals[mask] / scale == best),
        key=lambda mask: (mask.bit_count(), -mask),
    )
    return frozenset(tid for tid in ids if chosen & bit[tid]), best


def _subset_sums(values: list[int], count: int) -> None:
    """Replace ``values[s]`` by the sum of ``values[t]`` over the subsets t
    of s, one level per bit: each set without the bit is added to the same
    set with it. A level is a few long slices, strided when the bit is low
    and contiguous halves of the blocks when it is high."""
    size = 1 << count
    for level in range(count):
        step = 1 << level
        span = 2 * step
        if step < size // span:
            for low in range(step):
                values[low + step :: span] = map(add, values[low + step :: span], values[low::span])
        else:
            for start in range(0, size, span):
                middle, end = start + step, start + span
                values[middle:end] = map(add, values[middle:end], values[start:middle])


def additive_fix_threshold(entry: AdditiveEntry) -> float:
    """Fault probability above which treating beats skipping.

    Solves p*treat_faulty + (1-p)*treat_ok > p*skip_faulty + (1-p)*skip_ok
    for p. Raises NoFiniteThresholdError when the comparison has no
    crossing of that form inside [0, 1).
    """
    gain = (entry.treat_faulty - entry.skip_faulty) + (entry.skip_ok - entry.treat_ok)
    if gain == 0.0:
        diff = entry.treat_ok - entry.skip_ok
        if diff > 0:
            direction = "always-treat"
        elif diff < 0:
            direction = "never-treat"
        else:
            direction = "indifferent"
        raise NoFiniteThresholdError(
            f"no finite threshold: utility difference is constant ({direction})",
            direction,
        )
    if gain < 0.0:
        raise NoFiniteThresholdError(
            "no finite threshold: treating pays off only at low fault probability (reversed)",
            "reversed",
        )
    threshold = (entry.skip_ok - entry.treat_ok) / gain
    if threshold >= 1.0:
        raise NoFiniteThresholdError(
            "no finite threshold: treating is dominated (never treat)", "never-treat"
        )
    if threshold < 0.0:
        raise NoFiniteThresholdError(
            "no finite threshold: skipping is dominated (always treat)", "always-treat"
        )
    return threshold
