"""Propositional formula trees over named atoms.

Formulas are immutable and hashable. Evaluation is resolver-based: callers
supply the mapping from atom names to truth values, which lets the logic
layer substitute rule-defined observables transparently. The same walk
evaluates one row (bools) or every row at once (int bitmasks, one bit per
row). ``CONNECTIVES`` is the one table of binary connectives: the
model-language parser and ``render`` both read their spellings, precedence
and associativity from it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

Truth = TypeVar("Truth", bool, int)


class Formula:
    """Base class for formula nodes."""


@dataclass(frozen=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    operands: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    @property
    def operands(self) -> tuple[Formula, Formula]:
        return (self.antecedent, self.consequent)


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    @property
    def operands(self) -> tuple[Formula, Formula]:
        return (self.left, self.right)


def conjunction(operands: Iterable[Formula]) -> Formula:
    """n-ary conjunction; flattens nested conjunctions, empty input is TRUE."""
    return _flatten(And, operands, TRUE)


def disjunction(operands: Iterable[Formula]) -> Formula:
    """n-ary disjunction; flattens nested disjunctions, empty input is FALSE."""
    return _flatten(Or, operands, FALSE)


def _flatten(
    node: type, operands: Iterable[Formula], empty: Formula | None = None
) -> Formula | None:
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, node):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return empty
    if len(flat) == 1:
        return flat[0]
    return node(tuple(flat))


@dataclass(frozen=True)
class Connective:
    """A binary connective of the model language."""

    spelling: str
    node: type
    nary: bool  # n-ary and flattened; otherwise binary and right-associative

    def join(self, operands: Sequence[Formula]) -> Formula:
        """Join one or more operands: flattened if n-ary, else folded to the right."""
        if self.nary:
            return _flatten(self.node, operands)
        joined = operands[-1]
        for operand in reversed(operands[:-1]):
            joined = self.node(operand, joined)
        return joined


# Loosest first; '!', atoms and constants bind tighter than all of them.
CONNECTIVES = (
    Connective("<->", Iff, nary=False),
    Connective("->", Implies, nary=False),
    Connective("|", Or, nary=True),
    Connective("&", And, nary=True),
)


def atom_names(formula: Formula) -> frozenset[str]:
    """All atom names occurring in the formula."""
    names: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.extend(node.operands)
    return frozenset(names)


def evaluate(
    formula: Formula, resolve: Callable[[str], Truth], true: Truth = True
) -> Truth:
    """Evaluate under ``resolve``, which maps atom names to truth values:
    bools, or int bitmasks with one bit per row where ``true`` sets every
    row. Connectives are bitwise, so every operand is evaluated."""
    if isinstance(formula, Const):
        return true if formula.value else true ^ true
    if isinstance(formula, Atom):
        return resolve(formula.name)
    if isinstance(formula, Not):
        return true ^ evaluate(formula.operand, resolve, true)
    if not isinstance(formula, (And, Or, Implies, Iff)):
        raise TypeError(f"not a formula: {formula!r}")
    values = [evaluate(op, resolve, true) for op in formula.operands]
    if isinstance(formula, And):
        return functools.reduce(operator.and_, values, true)
    if isinstance(formula, Or):
        return functools.reduce(operator.or_, values, true ^ true)
    if isinstance(formula, Implies):
        return (true ^ values[0]) | values[1]
    return true ^ values[0] ^ values[1]  # Iff


def render(formula: Formula) -> str:
    """Render in model-language syntax with minimal parentheses."""
    return _render(formula, 0)


def _render(formula: Formula, min_level: int) -> str:
    """``min_level`` indexes ``CONNECTIVES``; looser connectives get parentheses."""
    if isinstance(formula, Const):
        return "true" if formula.value else "false"
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return "!" + _render(formula.operand, len(CONNECTIVES))
    for level, connective in enumerate(CONNECTIVES):
        if isinstance(formula, connective.node):
            first, *rest = formula.operands
            # a right-associative connective's left operand binds strictly tighter
            first_level = level if connective.nary else level + 1
            text = f" {connective.spelling} ".join(
                [_render(first, first_level)] + [_render(op, level) for op in rest]
            )
            return f"({text})" if level < min_level else text
    raise TypeError(f"not a formula: {formula!r}")
