"""Child process that runs one workload through ``diagnoscope.cli.run_cli``.

One client, closed loop: each query starts when the previous one has
returned. Standard output of every query is captured in memory.

    worker.py timed WORKLOAD SEED SECONDS WORKDIR
        Whole rounds until SECONDS of queries have run, then the peak RSS,
        then the check of every distinct answer (each saved to a file the
        first time its query ran). Set-up is measured at even intervals
        during the loop; that time is not loop time.
    worker.py trace WORKLOAD SEED WORKDIR SPANS [--traced-first]
        Each of the workload's trace queries runs untraced and then with
        the tracer installed, or the other way round with --traced-first.
        The traced answers must equal the untraced ones, which are checked
        (unless --traced-first, the second of the two traced children).

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import workloads
from tracer import Tracer

import diagnoscope.cli as cli

WARM_UP = "tests/fixtures/circuit4.fdl"
# Set-up is measured at SETUP_POINTS points spread evenly over the timed
# loop. Each point is the fastest of PROBES_PER_POINT fresh interpreters
# started back to back: on a shared machine single starts flip between a
# fast and a ~50 % slower mode from one second to the next, and the
# fastest of a few is the one that ran undisturbed.
SETUP_POINTS = 10
PROBES_PER_POINT = 3
PROBE_TIMEOUT_S = 60


def run_query(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run_cli(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def warm_up() -> None:
    for argv in (
        ["diagnose", WARM_UP, "--observe", "E", "--strategy", "all", "--format", "json"],
        ["interpretations", WARM_UP, "--observe", "E"],
    ):
        run_query(argv)


def setup_probe() -> float:
    """Time a fresh interpreter from start until it has imported the
    package and answered one warm-up query (``setup_probe.py``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), WARM_UP],
        stdout=subprocess.PIPE,
        text=True,
    )
    with proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if line != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {line!r}")
    return elapsed


def verify_model_files(workload: workloads.Workload, workdir: str) -> list[str]:
    """The files on disk must be byte-identical to a regeneration here."""
    return [
        f"{name}.fdl differs from its regeneration"
        for name, model in workload.models.items()
        if Path(workdir, f"{name}.fdl").read_bytes() != model.text().encode("utf-8")
    ]


class AnswerChecker:
    def __init__(self, workload: workloads.Workload, workdir: str):
        self.oracle = check.Oracle(workload.models)
        self.workdir = workdir

    def wrong(self, query: workloads.Query, code: int, text: str, json_text: str | None = None) -> str | None:
        if json_text is None and query.fmt == "table" and query.command != "check" and code == 0:
            json_code, json_text, _ = run_query(query.as_json().argv(self.workdir))
            if json_code != 0:
                return f"JSON form exited {json_code}"
        return check.check_answer(query, code, text, json_text, self.oracle.truth(query))


def timed(name: str, seed: int, seconds: float, workdir: str) -> dict:
    workload = workloads.build(name, seed)
    errors = verify_model_files(workload, workdir)
    plan = [[(q, q.argv(workdir)) for q in round_] for round_ in workload.rounds]
    saved = Path(workdir, "answers")
    saved.mkdir(exist_ok=True)
    number = {q: k for k, q in enumerate(q for round_ in workload.rounds for q in round_)}
    warm_up()

    latencies: list[float] = []
    setup: list[float] = []
    first: dict[workloads.Query, tuple[int, int]] = {}
    executed: Counter[workloads.Query] = Counter()
    unstable: Counter[workloads.Query] = Counter()
    rounds = 0
    paused_s = 0.0  # saving answers and set-up probes, not loop time
    start = time.perf_counter()

    def loop_time() -> float:
        return time.perf_counter() - start - paused_s

    while True:
        for query, argv in plan[rounds % len(plan)]:
            if len(setup) < SETUP_POINTS and loop_time() >= len(setup) * seconds / SETUP_POINTS:
                mark = time.perf_counter()
                setup.append(min(setup_probe() for _ in range(PROBES_PER_POINT)))
                paused_s += time.perf_counter() - mark
            code, text, elapsed = run_query(argv)
            latencies.append(elapsed)
            fingerprint = (code, hash(text))
            if query not in first:
                # Saved for the check after the loop; kept out of memory so
                # that it does not raise the peak RSS.
                mark = time.perf_counter()
                (saved / f"{number[query]}.txt").write_text(text, encoding="utf-8")
                first[query] = fingerprint
                paused_s += time.perf_counter() - mark
            elif first[query] != fingerprint:
                unstable[query] += 1
            executed[query] += 1
        rounds += 1
        if loop_time() >= seconds:
            break
    loop_s = loop_time()
    max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def answer(query: workloads.Query) -> str:
        return (saved / f"{number[query]}.txt").read_text(encoding="utf-8")

    checker = AnswerChecker(workload, workdir)
    failed = sum(unstable.values())
    errors += [f"{' '.join(q.argv(workdir))}: output differs between runs" for q in unstable]
    for query, count in executed.items():
        sibling = query.as_json()
        json_text = answer(sibling) if first.get(sibling, (1,))[0] == 0 else None
        reason = checker.wrong(query, first[query][0], answer(query), json_text)
        if reason is not None:
            failed += count - unstable[query]
            errors.append(f"{' '.join(query.argv(workdir))}: {reason}")
    shutil.rmtree(saved)
    return {
        "latencies": latencies,
        "setup": setup,
        "loop_s": loop_s,
        "rounds": rounds,
        "max_rss_kb": max_rss_kb,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
    }


def trace(name: str, seed: int, workdir: str, spans_path: str, traced_first: bool) -> dict:
    workload = workloads.build(name, seed)
    errors = verify_model_files(workload, workdir)
    queries = workload.trace_queries()
    warm_up()
    result: dict = {"attempted": len(queries), "failed": 0, "traced_s": 0.0, "untraced_s": 0.0}
    tracer = Tracer()

    def traced_query(argv: list[str]) -> tuple[int, str, float]:
        tracer.install()
        try:
            return run_query(argv)
        finally:
            tracer.uninstall()

    # Each query runs back to back with and without the tracer, so that a
    # drift in the machine's speed falls on both alike.
    order = (traced_query, run_query) if traced_first else (run_query, traced_query)
    untraced, traced = [], []
    for query in queries:
        for runner in order:
            code, text, elapsed = runner(query.argv(workdir))
            is_traced = runner is traced_query
            (traced if is_traced else untraced).append((code, text))
            result["traced_s" if is_traced else "untraced_s"] += elapsed
    tracer.write_spans(spans_path)

    counts = Counter({f"{n}.calls": c for n, c in tracer.calls().items()})
    counts.update(tracer.counts)
    counts["cli.stdout_bytes"] = sum(len(text.encode("utf-8")) for _, text in traced)
    result["counts"] = dict(counts)
    result["self_ms"] = {n: ns / 1e6 for n, ns in tracer.self_times_ns().items()}

    checker = None if traced_first else AnswerChecker(workload, workdir)
    answers = dict(zip(queries, untraced))
    for query, plain, with_trace in zip(queries, untraced, traced):
        if plain != with_trace:
            reason = "traced output differs from untraced output"
        elif checker is not None:
            json_answer = answers.get(query.as_json())
            json_text = json_answer[1] if json_answer and json_answer[0] == 0 else None
            reason = checker.wrong(query, *plain, json_text)
        else:
            reason = None
        if reason is not None:
            result["failed"] += 1
            errors.append(f"{' '.join(query.argv(workdir))}: {reason}")
    result["errors"] = errors
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "timed":
        name, seed, seconds, workdir = argv[1], int(argv[2]), float(argv[3]), argv[4]
        result = timed(name, seed, seconds, workdir)
    elif mode == "trace":
        name, seed, workdir, spans = argv[1], int(argv[2]), argv[3], argv[4]
        result = trace(name, seed, workdir, spans, traced_first="--traced-first" in argv[5:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
