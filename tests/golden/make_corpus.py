"""Golden corpus of command-line answers: generate it, or replay one case.

Each case is one ``diagnoscope`` argv, run in-process through
``cli.run_cli`` in a directory holding every model of the corpus as
``<name>.fdl``. Arguments name that directory as ``{dir}``, and so do the
recorded outputs. A case stores the exit code, stdout and stderr; an output
longer than ``INLINE_LIMIT`` bytes is stored as its sha256 and length.
Help and usage-error text is not stored, because argparse words it
differently across Python versions: such a case (one that a fresh
``build_parser().parse_args`` ends with ``SystemExit``) is marked
``"argparse": true`` and replayed against a fresh parser instead.

The same run writes ``cap_digests.json``: the sha256 of each answer at
the hypothesis cap (m = 20) that CI checks byte for byte within a bounded
address space. Those answers run on the m = 20 model of
``benchmarks/sweep.py`` and are too large to store or to replay here.

When output changes on purpose, regenerate the corpus from the repository
root and name the changed cases in CHANGES.md:

    PYTHONPATH=src python tests/golden/make_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from diagnoscope.cli import build_parser, run_cli

CORPUS = Path(__file__).with_name("corpus.json")
CAP_DIGESTS = Path(__file__).with_name("cap_digests.json")
BENCHMARKS = Path(__file__).parent.parent.parent / "benchmarks"
FIXTURES = Path(__file__).parent.parent / "fixtures"
DIR = "{dir}"
INLINE_LIMIT = 2048

STRATEGIES = ("single-fault", "posterior", "mpe", "consistency", "abductive", "all")
MASSES = ("0.1", "0.5", "0.9", "1", "2", "nan")
OBSERVATIONS = ((), ("--observe", "E"), ("--observe", "!E"), ("--observe", "Z"))
FORMATS = ((), ("--format", "json"))


# ---------------------------------------------------------------------------
# replay


def write_models(models: dict[str, str], directory: Path) -> None:
    """Write every model as ``<name>.fdl``; lone surrogates in a text stand
    for the undecodable bytes they escape."""
    for name, text in models.items():
        (directory / f"{name}.fdl").write_bytes(text.encode("utf-8", "surrogateescape"))


def _captured(call, argv: list[str], directory: Path) -> tuple[int, str, str]:
    where = str(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call([arg.replace(DIR, where) for arg in argv])
    return code, out.getvalue().replace(where, DIR), err.getvalue().replace(where, DIR)


def run(argv: list[str], directory: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``run_cli(argv)``."""
    return _captured(run_cli, argv, directory)


def _parse_with_fresh_parser(args: list[str]) -> int | None:
    try:
        build_parser().parse_args(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return None


def run_fresh_parser(argv: list[str], directory: Path) -> tuple[int | None, str, str]:
    """Exit code, stdout and stderr of a freshly built parser on ``argv``;
    the code is None when it parses without exiting."""
    return _captured(_parse_with_fresh_parser, argv, directory)


def _stored(text: str) -> str | dict:
    data = text.encode("utf-8")
    if len(data) <= INLINE_LIMIT:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record(code: int, out: str, err: str) -> dict:
    """A run as the corpus stores it."""
    return {"exit": code, "stdout": _stored(out), "stderr": _stored(err)}


# ---------------------------------------------------------------------------
# models


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.fdl").read_text()


def _formula(rng: random.Random, atoms: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        atom = rng.choice(atoms)
        return atom if rng.random() < 0.7 else f"!{atom}"
    op = rng.choice(("&", "|", "->", "<->"))
    return f"({_formula(rng, atoms, depth - 1)} {op} {_formula(rng, atoms, depth - 1)})"


def _seeded_model(seed: int) -> str:
    """A small random model: priors from a few values (so exact ties, 0 and
    1 occur), rules onto observables E, F, G, some facts, positive and
    negative observations, and sometimes treatments with a joint term."""
    rng = random.Random(seed)
    count = rng.choice((1, 2, 3, 4, 5, 6, 7, 9))
    names = [f"H{i}" for i in range(count)]
    priors = ("0.1", "0.1", "0.25", "0.5", "0.016", "0.9", "0.3", "0", "1")
    lines = [f"# seeded model {seed}"]
    lines += [f"hypothesis {name} prior {rng.choice(priors)}" for name in names]
    observables = ("E", "F", "G")
    lines += [f"observable {name}" for name in observables]
    for head in observables:
        for _ in range(rng.randint(1, 3)):
            body = rng.sample(names, rng.randint(1, min(3, count)))
            lines.append(f"rule {' & '.join(body)} => {head}")
    for _ in range(rng.choice((0, 0, 1, 2))):
        lines.append(f"fact {_formula(rng, names, 2)}")
    for name in rng.sample(observables, rng.randint(0, 2)):
        lines.append(f"observe {'' if rng.random() < 0.6 else '!'}{name}")
    if rng.random() < 0.5:
        fixes = [f"Fix{name}" for name in rng.sample(names, min(count, 3))]
        for fix in fixes:
            values = [rng.randint(-3, 3) for _ in range(4)]
            lines.append(f"treatment {fix} targets {fix[3:]}")
            lines.append(
                f"utility {fix} treat-faulty {values[0]} treat-ok {values[1]}"
                f" skip-faulty {values[2]} skip-ok {values[3]}"
            )
        if rng.random() < 0.5:
            when = f"{'' if rng.random() < 0.5 else '!'}{rng.choice(names)}"
            given = " & ".join(rng.sample(fixes, min(2, len(fixes))))
            lines.append(f"utility joint when {when} given {given} value {rng.randint(-5, 5)}")
    return "\n".join(lines) + "\n"


def _models() -> dict[str, str]:
    circuit4 = _fixture("circuit4")
    models = {
        name: _fixture(name)
        for name in ("circuit4", "circuit4_c12", "fix_unit_gain", "fix_miss_penalty")
    }
    models["circuit4_unit_gain"] = circuit4 + _fixture("fix_unit_gain")
    models["circuit4_miss_penalty"] = circuit4 + _fixture("fix_miss_penalty")
    models["circuit4_observe"] = circuit4 + "observe E\n"
    models.update({f"seeded{seed}": _seeded_model(seed) for seed in range(24)})
    tiny = "0." + "0" * 99 + "1"  # 1e-100; the language has no exponents
    models["underflow"] = (
        "".join(f"hypothesis {name} prior {tiny}\n" for name in "ABCD")
        + "observable E\nrule A & B & C & D => E\n"
    )
    models["ties"] = (
        "".join(f"hypothesis {name} prior 0.2\n" for name in "ABCD")
        + "observable E\nrule A => E\nrule B => E\nrule C & D => E\n"
    )
    models["degenerate"] = (
        "hypothesis A prior 0\nhypothesis B prior 1\nhypothesis C prior 0.5\n"
        "observable E\nobservable F\nrule A => E\nrule B => E\nrule C => F\n"
    )
    models["facts_negative"] = (
        "hypothesis A prior 0.2\nhypothesis B prior 0.3\nhypothesis C prior 0.1\n"
        "observable E\nobservable F\nrule A => E\nrule B & C => E\nrule C => F\n"
        "fact !(A & B)\nfact B -> C | A\nobserve E\nobserve !F\n"
    )
    models["m0"] = "observable E\nrule true => E\n"
    models["m21"] = (
        "".join(f"hypothesis H{i} prior 0.1\n" for i in range(21))
        + "observable E\nrule H0 => E\n"
    )
    huge = int(1.7e308)
    models["overflow"] = (
        "hypothesis A prior 0.999\nhypothesis B prior 0.999\nobservable E\n"
        "rule A => E\nrule B => E\nobserve E\n"
        "treatment FixA targets A\ntreatment FixB targets B\n"
        f"utility FixA treat-faulty {huge} treat-ok 0 skip-faulty 0 skip-ok 0\n"
        f"utility FixB treat-faulty {huge} treat-ok 0 skip-faulty 0 skip-ok 0\n"
    )
    models["findings"] = (
        "hypothesis A prior 1.3\nhypothesis A prior 0.1\nobservable E\n"
        "observable F free\nrule A & Q => E\nobserve F\nobserve E\nobserve !E\n"
    )
    models["free_observed"] = (
        "hypothesis A prior 0.1\nobservable E\nobservable F free\nrule A => E\nobserve F\n"
    )
    parse_errors = {
        "bad_rule": "rule B & => E\n",
        "bad_digit": "hypothesis A prior ²\n",
        "exponent": "hypothesis A prior 1e-5\n",
        "unknown_keyword": "hypothesis A prior 0.1\nobserve E\nbogus A\n",
        "deep": "hypothesis A prior 0.1\nobservable E\nrule A => E\nfact "
        + "(" * 200 + "A" + ")" * 200 + "\n",
        "bad_joint": "utility joint when given value 1\n",
    }
    models.update({f"parse_{name}": text for name, text in parse_errors.items()})
    models["undecodable"] = "hypothesis A prior 0.1\udcff\n"
    return models


# ---------------------------------------------------------------------------
# cases


def _path(name: str) -> str:
    return f"{DIR}/{name}.fdl"


def _queries(model: str, observations):
    """Every subcommand but check on one model, per observation and format."""
    for observe in observations:
        for fmt in FORMATS:
            tail = (*observe, *fmt)
            yield ("interpretations", _path(model), *tail)
            for strategy in STRATEGIES:
                yield ("diagnose", _path(model), "--strategy", strategy, *tail)
            yield ("treat", _path(model), *tail)
            for mass in MASSES:
                yield ("cover", _path(model), "--mass", mass, *tail)


def _argvs(models: dict[str, str]):
    for name in ("circuit4", "circuit4_c12", "circuit4_unit_gain", "circuit4_miss_penalty"):
        yield ("check", _path(name))
        yield from _queries(name, OBSERVATIONS)
    for name in ("circuit4", "circuit4_c12"):
        for utility in ("fix_unit_gain", "fix_miss_penalty"):
            for observe in OBSERVATIONS:
                for fmt in FORMATS:
                    yield ("treat", _path(name), "--utility", _path(utility), *observe, *fmt)
    circuit4 = _path("circuit4")
    yield ("treat", circuit4, "--utility", _path("circuit4_unit_gain"), "--observe", "E")
    yield ("treat", circuit4, "--utility", _path("parse_bad_joint"), "--observe", "E")
    yield ("treat", circuit4, "--utility", _path("missing"), "--observe", "E")
    yield ("interpretations", circuit4, "--observe", "E", "--format", "table")
    for observe in (("E", "E"), ("E", "!E"), ("!E", "!E"), ("E", "Z"), ("",)):
        flags = [arg for literal in observe for arg in ("--observe", literal)]
        yield ("diagnose", circuit4, "--strategy", "all", *flags)
        yield ("cover", circuit4, "--mass", "0.5", "--format", "json", *flags)
    yield from _queries("circuit4_observe", ((),))
    special = ("underflow", "ties", "degenerate", "facts_negative", "m0", "m21", "overflow")
    seeded = sorted(name for name in models if name.startswith("seeded"))
    for name in (*seeded, *special):
        yield ("check", _path(name))
        yield from _queries(name, ((),))
    yield from _queries("underflow", (("--observe", "E"),))
    broken = sorted(name for name in models if name.startswith("parse_"))
    for name in ("findings", "free_observed", "missing", *broken, "undecodable"):
        yield ("check", _path(name))
        yield ("interpretations", _path(name))
        yield ("diagnose", _path(name), "--strategy", "all", "--format", "json")
    # Help and usage errors: replayed against a fresh parser.
    yield ("--help",)
    for command in ("check", "interpretations", "diagnose", "treat", "cover"):
        yield (command, "--help")
        yield (command,)
    yield ()
    yield ("bogus",)
    yield ("-h", "diagnose")
    yield ("diagnose", circuit4)
    yield ("diagnose", circuit4, "--strategy", "best")
    yield ("diagnose", circuit4, "--strategy", "all", "--no-such-flag")
    yield ("diagnose", circuit4, "--strategy", "all", "--utility", _path("fix_unit_gain"))
    yield ("interpretations", circuit4, "--format", "xml")
    yield ("interpretations", circuit4, "--observe")
    yield ("interpretations", circuit4, circuit4)
    yield ("cover", circuit4)
    yield ("cover", circuit4, "--mass", "half")
    yield ("check", circuit4, "--observe", "E")
    yield ("treat", circuit4, "--utility")


def build_cases() -> tuple[dict[str, str], list[dict]]:
    models = _models()
    cases = []
    seen = set()
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        write_models(models, directory)
        for argv in _argvs(models):
            argv = list(argv)
            case_id = " ".join(argv).replace(f"{DIR}/", "")
            assert case_id not in seen, case_id
            seen.add(case_id)
            case: dict = {"id": case_id, "argv": argv}
            if run_fresh_parser(argv, directory)[0] is not None:
                case["argparse"] = True
            else:
                case.update(record(*run(argv, directory)))
            cases.append(case)
    return models, cases


# ---------------------------------------------------------------------------
# answers at the cap

# Each is asked of the m = 20 sweep model with O0 and O1 observed.
CAP_ARGVS = (
    ("interpretations",),
    ("diagnose", "--strategy", "mpe"),
    ("diagnose", "--strategy", "all"),
    ("cover", "--mass", "1"),
    ("diagnose", "--strategy", "all", "--format", "json"),
    ("cover", "--mass", "1", "--format", "json"),
    ("diagnose", "--strategy", "single-fault"),
    ("diagnose", "--strategy", "single-fault", "--format", "json"),
    ("diagnose", "--strategy", "posterior"),
    ("diagnose", "--strategy", "posterior", "--format", "json"),
    ("diagnose", "--strategy", "consistency"),
    ("diagnose", "--strategy", "consistency", "--format", "json"),
    ("diagnose", "--strategy", "abductive"),
    ("diagnose", "--strategy", "abductive", "--format", "json"),
    ("diagnose", "--strategy", "mpe", "--format", "json"),
)


class _Digest:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


def cap_digests() -> list[dict]:
    """The sha256 of the stdout of each of CAP_ARGVS."""
    text = subprocess.run(
        [sys.executable, "-c", "import sys, sweep; sys.stdout.write(sweep.model_text(20))"],
        cwd=BENCHMARKS, check=True, capture_output=True, text=True,
    ).stdout
    answers = []
    with tempfile.TemporaryDirectory() as name:
        path = Path(name) / "sweep20.fdl"
        path.write_text(text)
        for argv in CAP_ARGVS:
            out = _Digest()
            with contextlib.redirect_stdout(out):
                code = run_cli([argv[0], str(path), "--observe", "O0", "--observe", "O1", *argv[1:]])
            assert code == 0, argv
            answers.append({"argv": list(argv), "sha256": out.sha256.hexdigest()})
    return answers


def main() -> None:
    answers = ",\n".join(json.dumps(answer) for answer in cap_digests())
    CAP_DIGESTS.write_text("[\n" + answers + "\n]\n", encoding="utf-8")
    models, cases = build_cases()
    lines = ['{"models": ' + json.dumps(models, indent=1, sort_keys=True) + ",", '"cases": [']
    lines.append(",\n".join(json.dumps(case, sort_keys=True) for case in cases))
    lines.append("]}")
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{CORPUS}: {len(cases)} cases, {CORPUS.stat().st_size} bytes", file=sys.stderr)
    print(f"{CAP_DIGESTS}: {len(CAP_ARGVS)} answers at the cap", file=sys.stderr)


if __name__ == "__main__":
    main()
