"""Replay the README's command examples. Each ``$ diagnoscope ...`` line of
a ``sh`` block, joined with its ``\\`` continuation lines, runs in-process
through ``run_cli`` from the repository root; it must exit 0 and print the
lines that follow it, up to a blank line or the end of the block. A ``...``
line matches any run of lines.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from diagnoscope.cli import run_cli

ROOT = Path(__file__).parent.parent


def _examples(text: str) -> list[tuple[str, list[str]]]:
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for chunk in re.sub(r"\\\n\s*", "", block).split("\n\n"):
            command, *output = chunk.strip("\n").split("\n")
            if command.startswith("$ diagnoscope "):
                examples.append((command, output))
    return examples


EXAMPLES = _examples((ROOT / "README.md").read_text(encoding="utf-8"))


def test_the_readme_has_examples():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[command[2:] for command, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, command, output):
    monkeypatch.chdir(ROOT)
    assert run_cli(shlex.split(command)[2:]) == 0
    pattern = "".join(
        "(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n" for line in output
    )
    stdout = capsys.readouterr().out
    assert re.fullmatch(pattern, stdout), stdout
