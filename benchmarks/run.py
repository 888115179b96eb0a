"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload table-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
with nothing to build. The seed goes to the model generator, which writes
``.fdl`` files under ``.bench_work/<workload>/``; the program only sees
those files.

With ``--trace 0`` a fresh child process runs the workload in a closed
loop for ``--seconds``, with set-up probes spread over the loop, and the
end-to-end metrics are reported. With ``--trace 1`` two children each run
every trace query of the workload once traced and once untraced, and the
per-layer metrics are reported; every count must repeat exactly between
the two. Either way every answer is checked, and the last line of
standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REQUIRED = ("src/diagnoscope/cli.py", "tests/oracle.py", "tests/fixtures/circuit4.fdl")
CHILD_TIMEOUT_S = 150

# Per-layer metrics: (name, unit, source). Sources are summed over the
# names listed: "self:<span>" is self time in ms, "count:<counter>" a count.
PER_LAYER = (
    ("probability.posterior_table.self_ms", "ms", ["self:probability.posterior_table"]),
    ("probability.posterior_table.calls", "count", ["count:probability.posterior_table.calls"]),
    ("probability.rows_enumerated", "count", ["count:probability.rows_enumerated"]),
    ("probability.rows_possible", "count", ["count:probability.rows_possible"]),
    ("probability.marginal.self_ms", "ms", ["self:probability.marginal"]),
    ("probability.marginal.calls", "count", ["count:probability.marginal.calls"]),
    ("probability.covering_mass_set.self_ms", "ms", ["self:probability.covering_mass_set"]),
    ("logic.consistency_diagnoses.self_ms", "ms", ["self:logic.consistency_diagnoses"]),
    ("logic.consistency_diagnoses.calls", "count", ["count:logic.consistency_diagnoses.calls"]),
    ("logic.abductive_explanations.self_ms", "ms", ["self:logic.abductive_explanations"]),
    ("logic.abductive_explanations.calls", "count", ["count:logic.abductive_explanations.calls"]),
    ("logic.clark_completion.calls", "count", ["count:logic.clark_completion.calls"]),
    ("logic.candidates_checked", "count", ["count:logic.candidates_checked"]),
    ("logic.diagnoses_returned", "count", ["count:logic.diagnoses_returned"]),
    ("decision.optimal_treatment.self_ms", "ms", ["self:decision.optimal_treatment"]),
    ("decision.expected_utility_over_table.self_ms", "ms", ["self:decision.expected_utility_over_table"]),
    ("decision.sets_scored", "count", ["count:decision.expected_utility_over_table.calls"]),
    ("strategies.diagnose_single_fault.self_ms", "ms", ["self:strategies.diagnose_single_fault"]),
    ("strategies.diagnose_posterior.self_ms", "ms", ["self:strategies.diagnose_posterior"]),
    ("strategies.diagnose_mpe.self_ms", "ms", ["self:strategies.diagnose_mpe"]),
    ("strategies.diagnose_consistency.self_ms", "ms", ["self:strategies.diagnose_consistency"]),
    ("strategies.diagnose_abductive.self_ms", "ms", ["self:strategies.diagnose_abductive"]),
    ("strategies.compare_strategies.self_ms", "ms", ["self:strategies.compare_strategies"]),
    ("strategies.failures", "count", ["count:strategies.failures"]),
    ("dsl.parse_document.self_ms", "ms", ["self:dsl.parse_document"]),
    ("dsl.assemble_bundle.self_ms", "ms", ["self:dsl.assemble_bundle"]),
    (
        "model.validate.self_ms",
        "ms",
        ["self:model.validate_model", "self:model.validate_observations", "self:model.validate_decision_inputs"],
    ),
    ("cli.run_cli.self_ms", "ms", ["self:cli.run_cli"]),
    ("cli.stdout_bytes", "count", ["count:cli.stdout_bytes"]),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_child(args: list[str]) -> dict:
    """Run a worker child to completion and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(name: str, seed: int, seconds: float, workdir: str) -> tuple[dict, dict]:
    result = run_child(["timed", name, str(seed), str(seconds), workdir])
    latencies = result["latencies"]
    percentile, tail_s = tail(latencies)
    print(
        f"{name}: {result['attempted']} queries in {result['rounds']} rounds over"
        f" {result['loop_s']:.2f} s; latency_tail_ms is p{percentile:.2f} of"
        f" {len(latencies)} samples; setup_s is the median of {len(result['setup'])}"
        f" set-up points; failed_ratio {result['failed']}/{result['attempted']}"
        f" = {result['failed'] / result['attempted']:g}",
        file=sys.stderr,
    )
    metrics = {
        "queries_per_s": (len(latencies) / result["loop_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (result["max_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(result["setup"]), "s"),
    }
    return metrics, result


def per_layer(name: str, seed: int, workdir: str) -> tuple[dict, dict]:
    # The two children run each query untraced and traced in opposite
    # orders, so warm-up effects cancel out of the overhead.
    first = run_child(["trace", name, str(seed), workdir, f"{workdir}/spans-1.jsonl"])
    second = run_child(["trace", name, str(seed), workdir, f"{workdir}/spans-2.jsonl", "--traced-first"])
    if first["counts"] != second["counts"]:
        differing = sorted(
            k for k in set(first["counts"]) | set(second["counts"])
            if first["counts"].get(k) != second["counts"].get(k)
        )
        first["errors"].append(f"counts differ between traced runs: {differing}")
        first["failed"] = max(first["failed"], 1)
    counts = first["counts"]
    self_ms = {k: (first["self_ms"].get(k, 0.0) + second["self_ms"].get(k, 0.0)) / 2 for k in first["self_ms"]}

    def value(sources: list[str]) -> float:
        total = 0.0
        for source in sources:
            kind, key = source.split(":", 1)
            total += self_ms.get(key, 0.0) if kind == "self" else counts.get(key, 0)
        return total

    metrics = {metric: (value(sources), unit) for metric, unit, sources in PER_LAYER}
    queries = first["attempted"]
    builds = counts.get("probability.posterior_table.calls", 0)
    metrics["probability.table_builds_per_query"] = (builds / queries, "1/query")
    traced_s = (first["traced_s"] + second["traced_s"]) / 2
    untraced_s = (first["untraced_s"] + second["untraced_s"]) / 2
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    first["attempted"] += second["attempted"]
    first["failed"] += second["failed"]
    first["errors"] += second["errors"]
    metrics["failed_ratio"] = (first["failed"] / first["attempted"], "ratio")
    print(
        f"{name}: {queries} queries, {traced_s:.3f} s traced vs"
        f" {untraced_s:.3f} s untraced; spans in {workdir}/spans-*.jsonl",
        file=sys.stderr,
    )
    return metrics, first


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one diagnoscope benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"not a diagnoscope checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workdir_path = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir_path, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed)
    workloads.write_models(workload, workdir_path)
    workdir = str(workdir_path.relative_to(ROOT))

    if args.trace:
        metrics, result = per_layer(args.workload, args.seed, workdir)
    else:
        metrics, result = end_to_end(args.workload, args.seed, args.seconds, workdir)
    for error in result["errors"][:10]:
        print(f"wrong: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result["errors"] and result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
