"""Ungated scaling sweep of ``posterior_table`` and ``compare_strategies``.

    python3 benchmarks/sweep.py [--out FILE]

It keeps the advertised cap of m = 20 hypotheses in view; nothing gates
on it. Each point runs in its own child process under a memory ceiling
(``RLIMIT_AS``) and a time budget. A point that exceeds either is
recorded as over budget, and so are the larger points of the same
function, which are then not run. No point is dropped.

The model family is the one of the baseline in ROADMAP.md: m hypotheses
with priors in [0.01, 0.3], 3 observables and 9 rules of 1-2 atoms, with
``O0`` and ``O1`` observed (the generator's observables are chosen by
name here). The output's first entry is that baseline table as recorded
there; the second is this sweep.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from generate import ModelSpec, generate_model
from run import ROOT, child_env

KINDS = ("posterior_table", "compare_strategies")
M_RANGE = range(10, 21)
BUDGET_S = 60  # time budget per point
MEMORY_MB = 1024  # address-space ceiling per point
SEED = 1

ROADMAP_BASELINE = {
    "source": "ROADMAP.md baseline, as recorded there: single wall-clock runs on a shared machine",
    "points": [
        {"m": 12, "posterior_table": "0.06 s", "peak_rss": None, "one_marginal": "5 ms", "compare_strategies": "0.9 s"},
        {"m": 14, "posterior_table": "0.14 s", "peak_rss": None, "one_marginal": "21 ms", "compare_strategies": "4.2 s"},
        {"m": 16, "posterior_table": "0.69 s", "peak_rss": "149 MB", "one_marginal": "80 ms", "compare_strategies": None},
        {"m": 18, "posterior_table": "3.3 s", "peak_rss": "577 MB", "one_marginal": "190 ms", "compare_strategies": None},
        {"m": 20, "posterior_table": "15.0 s", "peak_rss": "2.26 GB", "one_marginal": "700 ms", "compare_strategies": None},
    ],
}


def model_text(m: int) -> str:
    return generate_model(ModelSpec(hypotheses=m, observables=3, rules=9), SEED).text()


def point(kind: str, m: int) -> dict:
    """Run one point in this process; called in the child."""
    from diagnoscope import Atom, ObservationSet, compare_strategies, parse_model_file
    from diagnoscope.probability import marginal, posterior_table

    model = parse_model_file(model_text(m)).model
    observations = ObservationSet.of("O0", "O1")
    out: dict = {}
    start = time.perf_counter()
    if kind == "posterior_table":
        table = posterior_table(model, observations)
        out["posterior_table_s"] = time.perf_counter() - start
        start = time.perf_counter()
        marginal(table, Atom("H0"))
        out["marginal_ms"] = (time.perf_counter() - start) * 1e3
    else:
        compare_strategies(model, observations)
        out["compare_strategies_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run_point(kind: str, m: int) -> dict:
    def limit_memory() -> None:
        ceiling = MEMORY_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))

    record: dict = {"m": m, "kind": kind}
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--point", kind, str(m)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=BUDGET_S,
            preexec_fn=limit_memory,
        )
    except subprocess.TimeoutExpired:
        record["status"] = f"over budget: more than {BUDGET_S} s"
        return record
    if proc.returncode != 0:
        if "MemoryError" in proc.stderr:
            record["status"] = f"over budget: more than {MEMORY_MB} MB address space"
        else:
            record["status"] = f"failed: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return record
    record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    record["status"] = "ok"
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="Scaling sweep over m (ungated).")
    parser.add_argument("--out", help="also write the JSON here")
    parser.add_argument("--point", nargs=2, metavar=("KIND", "M"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        kind, m = args.point
        print(json.dumps(point(kind, int(m))))
        return 0

    points = []
    for kind in KINDS:
        exceeded = None
        for m in M_RANGE:
            if exceeded is not None:
                points.append({"m": m, "kind": kind, "status": f"not run: m = {exceeded}"})
                continue
            record = run_point(kind, m)
            print(json.dumps(record), file=sys.stderr, flush=True)
            if record["status"] != "ok":
                exceeded = f"{m} was {record['status']}"
            points.append(record)
    sweep = {
        "source": "benchmarks/sweep.py",
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "budget_s": BUDGET_S,
        "memory_mb": MEMORY_MB,
        "seed": SEED,
        "points": points,
    }
    text = json.dumps({"entries": [ROADMAP_BASELINE, sweep]}, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
