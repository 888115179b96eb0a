"""The benchmark's workloads, built from a seed.

A workload is a list of rounds; a round is the queries on one model (for
``triage``, on one set of models). The timed loop runs whole rounds in
order, so every run sees the same mix of query kinds whatever its length.
The seed picks the models and the order of queries inside each round,
never the mix. The traced run runs the queries of the first
``trace_rounds`` rounds.

* ``table-wide``: fact-free models at m = 14 with sparse (``O0``, ``O1``)
  or dense (``!O2``, a rarely true observable) evidence; ``diagnose
  posterior|mpe`` and ``interpretations`` in both formats and ``cover`` in
  one. Building, marginalising and rendering 2^14 rows is nearly all the
  work.
* ``compare-all``: models at m = 11 with facts, positive observations
  and 6-7 treatments, some with joint utility terms; ``diagnose
  --strategy all`` in both formats and ``treat`` in one. Abduction, the
  treatment sweep and repeated table builds do the work.
* ``triage``: five sets of 240 small models (m = 4-9), each model asked
  one subcommand, in table and in JSON format; a round is one set. In
  each set every (m, subcommand) pair appears once with each of the four
  (facts, negative observation) combinations. Per-query fixed costs (argument parsing, file read,
  parse, validation, rendering) dominate.

The mix of each round is fixed so that the median and the tail do not
sit on the border between two kinds of query whose share varies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from generate import GeneratedModel, ModelSpec, generate_model

WORKLOADS = ("table-wide", "compare-all", "triage")


@dataclass(frozen=True)
class Query:
    """One CLI invocation. ``observe`` of ``None`` keeps the file's own
    observations; ``option`` is the strategy of ``diagnose`` or the mass
    of ``cover``."""

    model: str
    command: str
    option: str | None = None
    observe: tuple[str, ...] | None = None
    fmt: str = "table"

    def argv(self, workdir: str) -> list[str]:
        argv = [self.command, f"{workdir}/{self.model}.fdl"]
        if self.command == "diagnose":
            argv += ["--strategy", self.option]
        elif self.command == "cover":
            argv += ["--mass", self.option]
        for literal in self.observe or ():
            argv += ["--observe", literal]
        if self.command != "check":
            argv += ["--format", self.fmt]
        return argv

    def as_json(self) -> "Query":
        return replace(self, fmt="json")


@dataclass(frozen=True)
class Workload:
    models: dict[str, GeneratedModel]
    rounds: tuple[tuple[Query, ...], ...]
    trace_rounds: int

    def trace_queries(self) -> list[Query]:
        return [q for r in self.rounds[: self.trace_rounds] for q in r]


def _shuffled(rng: random.Random, queries: list[Query]) -> tuple[Query, ...]:
    rng.shuffle(queries)
    return tuple(queries)


def _table_wide(seed: int) -> Workload:
    rng = random.Random(f"table-wide:{seed}")
    evidence = (("O0", "O1"), ("!O2",))
    models, rounds = {}, []
    for k in range(12):
        spec = ModelSpec(hypotheses=14, observables=3, rules=9, heavy_observables=1)
        name = f"wide{k}"
        models[name] = generate_model(spec, seed * 1000 + k)
        observe = evidence[k % 2]
        queries = [
            Query(name, command, option, observe, fmt)
            for command, option in (("diagnose", "posterior"), ("diagnose", "mpe"), ("interpretations", None))
            for fmt in ("table", "json")
        ]
        queries.append(Query(name, "cover", "0.9", observe, ("table", "json")[k % 2]))
        rounds.append(_shuffled(rng, queries))
    return Workload(models, tuple(rounds), trace_rounds=2)


def _compare_all(seed: int) -> Workload:
    rng = random.Random(f"compare-all:{seed}")
    shapes = ((11, 6, 2), (11, 7, 0), (11, 6, 1), (11, 7, 1))  # (m, treatments, joint terms)
    models, rounds = {}, []
    for k in range(40):
        m, treatments, joints = shapes[k % len(shapes)]
        spec = ModelSpec(
            hypotheses=m, observables=3, rules=9, facts=2, observe_positive=2,
            treatments=treatments, joints=joints,
        )
        name = f"cmp{k}"
        models[name] = generate_model(spec, seed * 1000 + k)
        queries = [Query(name, "diagnose", "all", None, fmt) for fmt in ("table", "json")]
        queries.append(Query(name, "treat", None, None, ("json", "table")[k % 2]))
        rounds.append(_shuffled(rng, queries))
    return Workload(models, tuple(rounds), trace_rounds=4)


_TRIAGE_KINDS = (
    ("check", None),
    ("interpretations", None),
    ("diagnose", "single-fault"),
    ("diagnose", "posterior"),
    ("diagnose", "mpe"),
    ("diagnose", "consistency"),
    ("diagnose", "abductive"),
    ("diagnose", "all"),
    ("treat", None),
    ("cover", "0.5"),
)


def _triage(seed: int) -> Workload:
    rng = random.Random(f"triage:{seed}")
    models, rounds = {}, []
    for _ in range(5):  # five model sets, so that each query repeats few times in a run
        queries = []
        for m in range(4, 10):
            for k, (command, option) in enumerate(_TRIAGE_KINDS):
                for j, (facts, negative) in enumerate(((False, False), (True, False), (False, True), (True, True))):
                    # Shapes depend on the stratum only, so every seed has the same mix.
                    spec = ModelSpec(
                        hypotheses=m,
                        observables=2 + k % 2,
                        rules=3 + (k + j) % 4,
                        facts=1 + k % 2 if facts else 0,
                        observe_positive=1 if negative else 1 + (m + k) % 2,
                        observe_negative=negative,
                        treatments=2 + m % 2 if command in ("treat", "diagnose") else 0,
                        joints=(m + j) % 2,
                    )
                    name = f"tri{len(models)}"
                    models[name] = generate_model(spec, seed * 10000 + len(models))
                    for fmt in ("table",) if command == "check" else ("table", "json"):
                        queries.append(Query(name, command, option, None, fmt))
        rounds.append(_shuffled(rng, queries))
    return Workload(models, tuple(rounds), trace_rounds=1)


def build(name: str, seed: int) -> Workload:
    builders = {"table-wide": _table_wide, "compare-all": _compare_all, "triage": _triage}
    return builders[name](seed)


def write_models(workload: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, model in workload.models.items():
        (workdir / f"{name}.fdl").write_text(model.text(), encoding="utf-8")
