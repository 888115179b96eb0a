"""Seeded mutations of the fixture models through every subcommand.

Each mutant replaces, inserts or deletes a token, or duplicates a line, of
a fixture ``.fdl`` file. Whatever the input, the command line must end
without a traceback, with an exit code of 0, 1 or 2, and with nothing on
stdout when it fails (``check`` prints its findings to stdout by design).
"""

from __future__ import annotations

import random
import re

import pytest

from diagnoscope.cli import run_cli

from .conftest import FIXTURES

SOURCES = (
    (FIXTURES / "circuit4.fdl").read_text(),
    (FIXTURES / "circuit4_c12.fdl").read_text(),
    (FIXTURES / "circuit4.fdl").read_text() + (FIXTURES / "fix_miss_penalty.fdl").read_text(),
    (FIXTURES / "circuit4.fdl").read_text() + (FIXTURES / "fix_unit_gain.fdl").read_text(),
)

VOCABULARY = (
    "hypothesis", "observable", "rule", "fact", "observe", "treatment", "utility",
    "prior", "free", "targets", "joint", "when", "given", "value", "treat-faulty",
    "treat-ok", "skip-faulty", "skip-ok", "true", "false",
    "=>", "&", "|", "!", "->", "<->", "(", ")", "#",
    "A", "B", "E", "Z", "FixA", "A-", "0", "1", "0.5", "-1", "1.5", "1e-9", "0.0000001",
    "\n",
)

COMMANDS = (
    ("interpretations",),
    *(("diagnose", "--strategy", s)
      for s in ("single-fault", "posterior", "mpe", "consistency", "abductive", "all")),
    ("treat",),
    ("cover", "--mass", "0.9"),
)
OBSERVATIONS = ((), ("--observe", "E"), ("--observe", "!E"), ("--observe", "Z"), ("--observe", ""))
MUTANTS = 30


def _mutate(text: str, rng: random.Random) -> str:
    if rng.random() < 0.2:
        lines = text.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        return "".join(lines[: k + 1] + lines[k:])
    pieces = re.split(r"(\s+)", text)
    tokens = [i for i, piece in enumerate(pieces) if piece and not piece.isspace()]
    k = rng.choice(tokens)
    word = rng.choice(VOCABULARY)
    kind = rng.choice(("replace", "insert", "delete"))
    if kind == "replace":
        pieces[k] = word
    elif kind == "insert":
        pieces[k] = f"{word} {pieces[k]}"
    else:
        pieces[k] = ""
    return "".join(pieces)


@pytest.mark.parametrize("seed", range(MUTANTS))
def test_mutated_models_fail_cleanly(capsys, tmp_path, seed):
    rng = random.Random(seed)
    text = rng.choice(SOURCES)
    for _ in range(rng.choice((1, 1, 2))):
        text = _mutate(text, rng)
    path = tmp_path / "mutant.fdl"
    path.write_text(text)
    runs = [("check", str(path))] + [
        (command[0], str(path), *command[1:], *observe)
        for command in COMMANDS
        for observe in OBSERVATIONS
    ]
    for argv in runs:
        code = run_cli(list(argv))
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code != 0 and argv[0] != "check":
            assert out == "", argv
