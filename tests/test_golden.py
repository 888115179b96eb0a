"""Replay the golden corpus: every recorded argv gives the same exit code,
stdout and stderr through ``run_cli``. Help and usage errors are compared
with a freshly built parser in this interpreter instead of stored text.
``tests/golden/make_corpus.py`` says how the corpus is made and regenerated.
"""

from __future__ import annotations

import json

import pytest

from .golden.make_corpus import CORPUS, record, run, run_fresh_parser, write_models

_CORPUS = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_models(_CORPUS["models"], path)
    return path


def test_corpus_stays_small():
    assert CORPUS.stat().st_size < 1 << 20


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=lambda case: case["id"])
def test_golden_case(monkeypatch, directory, case):
    monkeypatch.setenv("COLUMNS", "80")
    answer = run(case["argv"], directory)
    if case.get("argparse"):
        assert answer == run_fresh_parser(case["argv"], directory)
    else:
        expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
        assert record(*answer) == expected
