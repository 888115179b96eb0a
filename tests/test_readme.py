"""Replay the README's examples. Each ``$ diagnoscope ...`` line of a
``sh`` block, joined with its ``\\`` continuation lines, runs in-process
through ``run_cli`` from the repository root; it must exit 0 and print the
lines that follow it, up to a blank line or the end of the block. A ``...``
line matches any run of lines. The ``python`` block runs as it stands.
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


README = (ROOT / "README.md").read_text(encoding="utf-8")
EXAMPLES = _examples(README)


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


def test_readme_python_block(capsys):
    """The Python API example prints the marginal of B, the leaders and the
    decoded most likely row. A fault set is compared as a set: the order of
    a frozenset's repr varies with the hash seed."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    namespace: dict[str, object] = {}
    exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("0.6319")
    assert dict(namespace["report"].leaders) == {
        "single-fault": {"A"},
        "posterior": {"B"},
        "mpe": {"B", "C"},
        "consistency": {"A"},
        "abductive": {"A"},
    }
    assert namespace["rows"] == [9]
    assert printed[2] == "('B', 'C')"
