"""Seeded generator of synthetic ``.fdl`` fault models.

``generate_model(spec, seed)`` returns a ``GeneratedModel``: a plain record
of the model that the answer checker reads directly, and whose ``text()``
is the ``.fdl`` file the program under test reads. The same spec and seed
always give byte-identical text; the benchmark's worker checks that by
regenerating every model in its own process and comparing it byte for
byte with the file on disk. Run directly to write one model:

    python3 benchmarks/generate.py --seed 7 --hypotheses 12 --rules 9 \
        --facts 2 --observe 2 --treatments 6 --joints 2 --out model.fdl
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

Literal = tuple[str, bool]

HEAVY_BODY = 3  # smallest body of a rule for a heavy observable


@dataclass(frozen=True)
class ModelSpec:
    """Shape of one generated model.

    Hypotheses are ``H0..H{m-1}`` and observables ``O0..O{k-1}``. Rule heads
    go round-robin over the observables, so every observable is
    rule-defined and can be observed. The last ``heavy_observables`` get
    bodies of ``HEAVY_BODY`` or ``HEAVY_BODY + 1`` atoms, so they are rarely
    true and observing one false leaves most rows possible.
    """

    hypotheses: int
    observables: int = 3
    rules: int = 9
    body_size: int = 2
    heavy_observables: int = 0
    facts: int = 0
    observe_positive: int = 0
    observe_negative: bool = False
    treatments: int = 0
    joints: int = 0


@dataclass(frozen=True)
class GeneratedModel:
    """One model as data. Facts are ``(kind, atoms)`` with kind ``nand``
    (``!(a & b)``), ``implies`` (``a -> b``) or ``or-not`` (``a | b | !c``).
    Additive utilities are ``(treat-faulty, treat-ok, skip-faulty,
    skip-ok)``; joint terms are ``(when, given, value)``."""

    header: str
    hypotheses: tuple[tuple[str, str], ...]  # (id, prior as written)
    observables: tuple[str, ...]
    rules: tuple[tuple[tuple[str, ...], str], ...]
    facts: tuple[tuple[str, tuple[str, ...]], ...]
    observations: tuple[Literal, ...]
    treatments: tuple[tuple[str, str], ...]  # (id, target hypothesis)
    additive: tuple[tuple[int, int, int, int], ...]  # parallel to treatments
    joints: tuple[tuple[tuple[Literal, ...], tuple[Literal, ...], int], ...]

    def text(self) -> str:
        lines = [f"# {self.header}"]
        lines += [f"hypothesis {h} prior {p}" for h, p in self.hypotheses]
        lines += [f"observable {o}" for o in self.observables]
        lines += [f"rule {' & '.join(body)} => {head}" for body, head in self.rules]
        lines += [f"fact {_fact_text(kind, atoms)}" for kind, atoms in self.facts]
        lines += [f"observe {'' if pol else '!'}{name}" for name, pol in self.observations]
        lines += [f"treatment {tid} targets {target}" for tid, target in self.treatments]
        for (tid, _), (tf, to, sf, so) in zip(self.treatments, self.additive):
            lines.append(
                f"utility {tid} treat-faulty {tf} treat-ok {to} skip-faulty {sf} skip-ok {so}"
            )
        for when, given, value in self.joints:
            lines.append(
                f"utility joint when {_literals_text(when)} given {_literals_text(given)}"
                f" value {value}"
            )
        return "\n".join(lines) + "\n"


def _fact_text(kind: str, atoms: tuple[str, ...]) -> str:
    if kind == "nand":
        return f"!({atoms[0]} & {atoms[1]})"
    if kind == "implies":
        return f"{atoms[0]} -> {atoms[1]}"
    return f"{atoms[0]} | {atoms[1]} | !{atoms[2]}"


def _literals_text(literals: tuple[Literal, ...]) -> str:
    return " & ".join(name if pol else f"!{name}" for name, pol in literals)


def generate_model(spec: ModelSpec, seed: int) -> GeneratedModel:
    """Deterministic in ``(spec, seed)``: a string seed is hashed with
    SHA-512 by ``random``, independent of ``PYTHONHASHSEED``."""
    if spec.hypotheses < 3 or spec.observables < 1 or spec.rules < spec.observables:
        raise ValueError(f"degenerate model spec: {spec}")
    rng = random.Random(f"{seed}:{spec}")
    hyp = [f"H{k}" for k in range(spec.hypotheses)]
    obs = [f"O{k}" for k in range(spec.observables)]
    # Priors in [0.010, 0.300], written with three decimals.
    priors = tuple((h, f"{rng.randint(10, 300) / 1000:.3f}") for h in hyp)

    light = spec.observables - spec.heavy_observables
    rules = []
    for k in range(spec.rules):
        head = k % spec.observables
        if head >= light:
            size = rng.randint(HEAVY_BODY, HEAVY_BODY + 1)
        else:
            size = rng.randint(1, spec.body_size)
        body = sorted(rng.sample(range(spec.hypotheses), min(size, spec.hypotheses)))
        rules.append((tuple(hyp[i] for i in body), obs[head]))

    facts = []
    for _ in range(spec.facts):
        kind = rng.choice(("nand", "implies", "or-not"))
        facts.append((kind, tuple(rng.sample(hyp, 3 if kind == "or-not" else 2))))

    observed = sorted(rng.sample(range(spec.observables), min(spec.observe_positive, spec.observables)))
    observations = [(obs[k], True) for k in observed]
    unobserved = [k for k in range(spec.observables) if k not in observed]
    if spec.observe_negative and unobserved:
        observations.append((obs[rng.choice(unobserved)], False))

    targets = sorted(rng.sample(range(spec.hypotheses), min(spec.treatments, spec.hypotheses)))
    treatments = tuple((f"Fix{k}", hyp[k]) for k in targets)
    additive = tuple(
        (rng.randint(2, 10), rng.randint(-4, -1), rng.randint(-12, -1), 0) for _ in targets
    )
    joints = []
    for _ in range(spec.joints if len(targets) >= 2 else 0):
        a, b = rng.sample(targets, 2)
        joints.append(
            (
                ((hyp[a], True), (hyp[b], True)),
                ((f"Fix{a}", True), (f"Fix{b}", rng.random() < 0.5)),
                rng.randint(-6, 6),
            )
        )
    return GeneratedModel(
        header=f"generated: seed {seed}, {spec}",
        hypotheses=priors,
        observables=tuple(obs),
        rules=tuple(rules),
        facts=tuple(facts),
        observations=tuple(observations),
        treatments=treatments,
        additive=additive,
        joints=tuple(joints),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one seeded .fdl model.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--hypotheses", type=int, required=True)
    parser.add_argument("--observables", type=int, default=3)
    parser.add_argument("--rules", type=int, default=9)
    parser.add_argument("--body-size", type=int, default=2)
    parser.add_argument("--facts", type=int, default=0, help="number of fact lines")
    parser.add_argument("--observe", type=int, default=0, help="positive observe lines")
    parser.add_argument("--observe-negative", action="store_true")
    parser.add_argument("--treatments", type=int, default=0)
    parser.add_argument("--joints", type=int, default=0, help="joint utility terms")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = ModelSpec(
        hypotheses=args.hypotheses,
        observables=args.observables,
        rules=args.rules,
        body_size=args.body_size,
        facts=args.facts,
        observe_positive=args.observe,
        observe_negative=args.observe_negative,
        treatments=args.treatments,
        joints=args.joints,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(generate_model(spec, args.seed).text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
