from __future__ import annotations

import gc
import json
import random
import sys
from pathlib import Path

import pytest

from diagnoscope.cli import run_cli

from .conftest import FIXTURES

CIRCUIT4 = str(FIXTURES / "circuit4.fdl")
CIRCUIT4_C12 = str(FIXTURES / "circuit4_c12.fdl")
UNIT_GAIN = str(FIXTURES / "fix_unit_gain.fdl")
MISS_PENALTY = str(FIXTURES / "fix_miss_penalty.fdl")

PAPER_POSTERIORS = [
    0.0006, 0.0055, 0.0035, 0.0313, 0.0055, 0.0497, 0.0313, 0.2816,
    0.0377, 0.3395, 0.2138, 0.0, 0.0, 0.0, 0.0, 0.0,
]


def run(capsys, *argv: str):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_model(capsys):
    code, out, err = run(capsys, "check", CIRCUIT4)
    assert code == 0
    assert out == "ok\n"
    assert err == ""


def test_check_reports_findings(capsys, tmp_path):
    path = tmp_path / "broken.fdl"
    path.write_text("hypothesis A prior 1.3\nobservable E\nrule A => E\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "prior out of range" in out


def test_interpretations_matches_published_table(capsys):
    code, out, _ = run(capsys, "interpretations", CIRCUIT4, "--observe", "E")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "evidence probability: 0.039124"
    rows = lines[2:]
    assert len(rows) == 16
    for row, expected in zip(rows, PAPER_POSTERIORS):
        assert float(row.split()[-1]) == pytest.approx(expected, abs=5e-4)


def test_interpretations_json(capsys):
    code, out, _ = run(
        capsys, "interpretations", CIRCUIT4, "--observe", "E", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rounded"]["posteriors"] == PAPER_POSTERIORS
    assert payload["evidence_probability"] == pytest.approx(0.039124, abs=1e-9)
    assert payload["entries"][9]["assignment"] == {
        "A": False, "B": True, "C": True, "D": False,
    }


def test_diagnose_single_strategy_table(capsys):
    code, out, _ = run(
        capsys, "diagnose", CIRCUIT4, "--observe", "E", "--strategy", "consistency"
    )
    assert code == 0
    assert "strategy: consistency" in out
    assert "leader: {A}" in out
    scores = [line.split()[-1] for line in out.splitlines() if line.lstrip()[0].isdigit()]
    assert scores == ["0.4090", "0.3834", "0.2556"]


def test_diagnose_mpe_shows_interpretation(capsys):
    code, out, _ = run(
        capsys, "diagnose", CIRCUIT4, "--observe", "E", "--strategy", "mpe"
    )
    assert code == 0
    assert "leader: [9] !A B C !D" in out


def test_diagnose_all_report(capsys):
    code, out, _ = run(
        capsys, "diagnose", CIRCUIT4, "--observe", "E", "--strategy", "all"
    )
    assert code == 0
    assert "single-fault  {A}" in out
    assert "posterior     {B}" in out
    assert "mpe           {B,C}" in out
    assert "consistency   {A}" in out
    assert "abductive     {A}" in out
    assert "agreement: no" in out
    assert "single-fault vs posterior" in out


def test_diagnose_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "diagnose", CIRCUIT4, "--observe", "E",
        "--strategy", "consistency", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["strategy"] == "consistency"
    assert payload["candidates"] == [["A"], ["B", "C"], ["B", "D"]]
    assert payload["rounded"]["scores"] == [0.409, 0.3834, 0.2556]
    assert payload["leader"] == ["A"]
    assert "evidence_probability" in payload


def test_diagnose_all_json(capsys):
    code, out, _ = run(
        capsys,
        "diagnose", CIRCUIT4, "--observe", "E", "--strategy", "all",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["leaders"]["mpe"] == ["B", "C"]
    assert payload["agreement"] is False
    assert ["single-fault", "posterior"] in payload["disagreements"]
    assert payload["treatment"] is None


def test_treat_with_separate_utility_file(capsys):
    code, out, _ = run(
        capsys, "treat", CIRCUIT4, "--observe", "E", "--utility", UNIT_GAIN
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chosen: {FixB}"
    assert lines[1] == "expected utility: $0.2639"
    assert "  FixB $0.2639" in lines


def test_treat_miss_penalty_fixes_everything(capsys):
    code, out, _ = run(
        capsys, "treat", CIRCUIT4, "--observe", "E", "--utility", MISS_PENALTY
    )
    assert code == 0
    assert out.splitlines()[0] == "chosen: {FixA,FixB,FixC,FixD}"


def test_treat_with_everything_in_one_file(capsys, tmp_path):
    path = tmp_path / "bundled.fdl"
    path.write_text(
        Path(CIRCUIT4).read_text()
        + "observe E\n"
        + Path(UNIT_GAIN).read_text()
    )
    code, out, _ = run(capsys, "treat", str(path))
    assert code == 0
    assert out.splitlines()[0] == "chosen: {FixB}"


def test_negative_zero_amounts_put_the_sign_before_the_dollar(capsys, tmp_path):
    path = tmp_path / "zero.fdl"
    path.write_text(
        "treatment FixA targets A\n"
        "utility FixA treat-faulty -0 treat-ok -0 skip-faulty -0 skip-ok -0\n"
    )
    code, out, _ = run(capsys, "treat", CIRCUIT4, "--observe", "E", "--utility", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "  FixA -$0.0000"


def test_treat_without_utility_errors(capsys):
    code, out, err = run(capsys, "treat", CIRCUIT4, "--observe", "E")
    assert code == 1
    assert "no utility model" in err


def test_cover_table(capsys):
    code, out, _ = run(
        capsys, "cover", CIRCUIT4, "--observe", "E", "--mass", "0.5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "mass: 0.5"
    data_rows = lines[3:]
    assert len(data_rows) == 2
    assert data_rows[0].split()[1] == "9"
    assert data_rows[1].split()[1] == "7"
    assert data_rows[1].split()[-1] == "0.6211"


def test_cover_rejects_bad_mass(capsys):
    code, _, err = run(capsys, "cover", CIRCUIT4, "--observe", "E", "--mass", "1.5")
    assert code == 1
    assert "mass" in err


def test_parse_error_exit_code_and_location(capsys, tmp_path):
    path = tmp_path / "bad.fdl"
    for text, location in [("rule B & => E\n", "1:8"), ("hypothesis A prior \u00b2\n", "1:20")]:
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:{location}: parse error" in err


def test_parse_error_in_utility_file_names_it(capsys, tmp_path):
    path = tmp_path / "bad_util.fdl"
    path.write_text("utility joint when given value 1\n")
    code, _, err = run(
        capsys, "treat", CIRCUIT4, "--observe", "E", "--utility", str(path)
    )
    assert code == 2
    assert "bad_util.fdl:1:" in err


def test_a_treatment_named_joint_takes_an_additive_utility(capsys, tmp_path):
    # 'utility joint treat-faulty ...' is the additive line of treatment
    # joint; it decides exactly as the same line for a treatment FixB does
    lines = (
        "treatment {0} targets B\n"
        "utility {0} treat-faulty 1 treat-ok -1 skip-faulty 0 skip-ok 0\n"
    )
    answers = []
    for name in ("joint", "FixB"):
        path = tmp_path / f"{name}.fdl"
        path.write_text(Path(CIRCUIT4).read_text() + lines.format(name))
        assert run(capsys, "check", str(path)) == (0, "ok\n", "")
        code, out, err = run(capsys, "treat", str(path), "--observe", "E")
        assert (code, err) == (0, "")
        answers.append(out.replace(name, "T"))
    assert answers[0] == answers[1]
    assert answers[0].splitlines()[0] == "chosen: {T}"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.fdl")
    assert code == 2
    assert "error:" in err


def test_unknown_flag_is_usage_error(capsys):
    code = run_cli(["interpretations", CIRCUIT4, "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_domain_errors_exit_one(capsys):
    code, _, err = run(
        capsys, "diagnose", CIRCUIT4, "--observe", "!E", "--strategy", "abductive"
    )
    assert code == 1
    assert "positive observations" in err

    code, _, err = run(capsys, "interpretations", CIRCUIT4, "--observe", "X")
    assert code == 1
    assert "unknown observable" in err

    code, _, err = run(
        capsys, "interpretations", CIRCUIT4, "--observe", "E", "--observe", "!E"
    )
    assert code == 1
    assert "contradictory" in err


def test_utility_overflow_is_a_domain_error(capsys, tmp_path):
    """A model that check accepts, whose expected utility totals overflow a
    float: treat ends in an error line, the comparison in a failure record."""
    huge = int(1.7e308)  # written out as a plain decimal
    path = tmp_path / "huge.fdl"
    path.write_text(
        "hypothesis A prior 0.999\nhypothesis B prior 0.999\nobservable E\n"
        "rule A => E\nrule B => E\nobserve E\n"
        "treatment FixA targets A\ntreatment FixB targets B\n"
        f"utility FixA treat-faulty {huge} treat-ok 0 skip-faulty 0 skip-ok 0\n"
        f"utility FixB treat-faulty {huge} treat-ok 0 skip-faulty 0 skip-ok 0\n"
    )
    assert run(capsys, "check", str(path)) == (0, "ok\n", "")
    message = "expected utility overflows the float range"
    assert run(capsys, "treat", str(path)) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "diagnose", str(path), "--strategy", "all")
    assert (code, err) == (0, "")
    assert f"errors:\n  treatment: {message}\n" in out


def test_an_exact_total_within_the_float_range_is_an_answer(capsys, tmp_path):
    """FixA and FixB each pay the largest float, and a joint term takes it
    back once when both are chosen. A partial sum of that set overflows,
    but its exact total, like every set's, is within the float range, so
    treat answers (it exited 1 while each set was summed with math.fsum)."""
    largest = int(sys.float_info.max)  # written out as a plain decimal
    path = tmp_path / "largest.fdl"
    path.write_text(
        "hypothesis A prior 0.5\nhypothesis B prior 0.5\nhypothesis C prior 1\n"
        "observable E\nrule A => E\n"
        "treatment FixA targets A\ntreatment FixB targets B\n"
        f"utility FixA treat-faulty {largest} treat-ok {largest} skip-faulty 0 skip-ok 0\n"
        f"utility FixB treat-faulty {largest} treat-ok {largest} skip-faulty 0 skip-ok 0\n"
        f"utility joint when C given FixA & FixB value -{largest}\n"
    )
    code, out, err = run(capsys, "treat", str(path), "--format", "json")
    assert (code, err) == (0, "")
    answer = json.loads(out)
    assert (answer["chosen"], answer["expected_utility"]) == (["FixA"], sys.float_info.max)
    code, out, err = run(capsys, "diagnose", str(path), "--strategy", "all")
    assert (code, err) == (0, "")
    assert "errors:" not in out


def test_findings_block_other_commands(capsys, tmp_path):
    path = tmp_path / "freeobs.fdl"
    path.write_text(
        "hypothesis A prior 0.1\nobservable E\nobservable F free\n"
        "rule A => E\nobserve F\n"
    )
    code, out, err = run(capsys, "interpretations", str(path))
    assert code == 1
    assert out == ""
    assert "free observable 'F'" in err


def test_observe_flags_override_file_observations(capsys, tmp_path):
    path = tmp_path / "with_obs.fdl"
    path.write_text(
        "hypothesis A prior 0.1\nobservable E\nrule A => E\nobserve !E\n"
    )
    _, out_file, _ = run(capsys, "diagnose", str(path), "--strategy", "consistency")
    assert "leader: {}" in out_file
    _, out_flag, _ = run(
        capsys, "diagnose", str(path), "--observe", "E", "--strategy", "consistency"
    )
    assert "leader: {A}" in out_flag


def test_repeated_runs_are_byte_identical(capsys):
    """One process answers a mixed sequence forwards, then in reverse, and
    every argv gets the same answer both times: the shared parser carries
    nothing from one query to the next."""
    commands = [
        ("check", CIRCUIT4),
        ("treat", CIRCUIT4, "--observe", "E", "--utility", UNIT_GAIN),
        ("diagnose", CIRCUIT4, "--observe", "E", "--strategy", "all"),
        ("interpretations", CIRCUIT4, "--observe", "E", "--observe", "E"),
        ("diagnose", CIRCUIT4_C12, "--strategy", "mpe", "--format", "json"),
        ("diagnose", CIRCUIT4, "--strategy", "best"),
        ("cover", CIRCUIT4, "--observe", "E", "--mass", "0.9"),
        ("treat", "--help"),
        ("diagnose", CIRCUIT4, "--strategy", "posterior"),
        ("treat", CIRCUIT4, "--observe", "!E", "--format", "json"),
    ]
    first = {argv: run(capsys, *argv) for argv in commands}
    for argv in reversed(commands):
        assert run(capsys, *argv) == first[argv], argv
    assert first[commands[-1]][0] == 1  # no --utility left over from the first treat


@pytest.mark.parametrize(
    "argv",
    [
        ("diagnose", CIRCUIT4, "--observe", "E", "--strategy", "all", "--format", "json"),
        ("interpretations", CIRCUIT4),
        ("cover", CIRCUIT4, "--mass", "2"),
        ("check", "missing.fdl"),
        ("diagnose", CIRCUIT4, "--no-such-flag"),
        ("interpretations", CIRCUIT4, "--observe", "E", "--format", "json"),
        ("diagnose", CIRCUIT4, "--observe", "E", "--strategy", "mpe", "--format", "json"),
    ],
)
def test_query_collects_its_own_cycles(capsys, argv):
    """A query runs with the cyclic collector paused and leaves no cyclic
    garbage behind; a collector the caller switched off stays off. A JSON
    answer builds no reference cycle at all, so it leaves none even when
    nothing is collected."""
    gc.collect()
    run(capsys, *argv)
    assert gc.isenabled()
    assert gc.collect() == 0
    gc.disable()
    try:
        run(capsys, *argv)
        assert not gc.isenabled()
        if "json" in argv:
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", CIRCUIT4),
        ("diagnose", CIRCUIT4, "--observe", "E", "--strategy", "all"),
        ("diagnose", CIRCUIT4, "--strategy", "best"),
    ],
)
def test_a_query_builds_no_argument_parser(capsys, monkeypatch, argv):
    """The parser is built once, when the module is imported."""
    import argparse

    built = [0]
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, _, _ = run(capsys, *argv)
    assert code == (2 if argv[-1] == "best" else 0)
    assert built[0] == 0


def test_undecodable_file_is_a_file_error(capsys, tmp_path):
    path = tmp_path / "bad.fdl"
    path.write_bytes(b"hypothesis A prior 0.1\xff\n")
    for argv in (("check", str(path)), ("interpretations", str(path), "--observe", "E")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{path}: error: 'utf-8' codec can't decode")


def test_too_deep_formula_is_a_located_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.fdl"
    for formula in ["(" * 3000 + "A" + ")" * 3000, " -> ".join(["A"] * 3000), " <-> ".join(["A"] * 3000)]:
        path.write_text(f"hypothesis A prior 0.1\nobservable E\nrule A => E\nfact {formula}\n")
        code, out, err = run(capsys, "diagnose", str(path), "--strategy", "all")
        assert code == 2
        assert out == ""
        assert err.startswith(f"{path}:4:")
        assert "parse error: formula nested deeper than" in err
        assert "Traceback" not in err


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count calls of ``module.name`` through every module that binds it."""
    import importlib
    import pkgutil

    import diagnoscope

    calls = [0]
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    modules = [diagnoscope] + [
        importlib.import_module(f"diagnoscope.{info.name}")
        for info in pkgutil.iter_modules(diagnoscope.__path__)
        if info.name != "__main__"
    ]
    for bound in modules:
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("diagnose", "--strategy", "all"),
        ("diagnose", "--strategy", "posterior"),
        ("diagnose", "--strategy", "abductive", "--format", "json"),
        ("interpretations",),
        ("cover", "--mass", "0.9"),
        ("treat", "--utility", UNIT_GAIN),
    ],
)
def test_one_table_build_per_query(capsys, monkeypatch, tmp_path, argv):
    from diagnoscope import probability

    # diagnose has no --utility flag, so the treatment comparison of
    # --strategy all needs the utility lines in the model file itself.
    path = tmp_path / "circuit4_fix.fdl"
    path.write_text(Path(CIRCUIT4).read_text() + Path(UNIT_GAIN).read_text())
    model = CIRCUIT4 if argv[0] == "treat" else str(path)
    calls = _count_calls(monkeypatch, probability, "_build_table")
    code, out, _ = run(capsys, argv[0], model, "--observe", "E", *argv[1:])
    assert code == 0
    if argv[-1] == "all":
        assert out.splitlines()[-1] == "agreement: no"
        assert any(line.startswith("treatment: ") for line in out.splitlines())
    assert calls[0] == 1


@pytest.mark.parametrize("strategy", ["all", "abductive"])
def test_one_completion_and_mask_per_query(capsys, monkeypatch, tmp_path, strategy):
    """The table, the searches and the treatment search of one query share
    one Clark completion and one facts mask."""
    from diagnoscope import logic

    path = tmp_path / "circuit4_fix.fdl"
    path.write_text(Path(CIRCUIT4).read_text() + Path(UNIT_GAIN).read_text())
    completions = _count_calls(monkeypatch, logic, "clark_completion")
    fact_masks = _count_calls(monkeypatch, logic, "_possible_rows")
    code, _, _ = run(capsys, "diagnose", str(path), "--observe", "E", "--strategy", strategy)
    assert code == 0
    assert completions[0] == 1
    assert fact_masks[0] == 1


@pytest.mark.parametrize(
    "argv, built",
    [
        (("diagnose", "--strategy", "posterior"), 0),
        (("diagnose", "--strategy", "single-fault"), 0),
        (("treat", "--utility", UNIT_GAIN), 0),
        (("cover", "--mass", "0.5"), 0),
        (("diagnose", "--strategy", "mpe"), 0),
        (("diagnose", "--strategy", "mpe", "--format", "json"), 0),
        (("diagnose", "--strategy", "all"), 6),
        (("diagnose", "--strategy", "all", "--format", "json"), 6),
        (("interpretations",), 0),
        (("interpretations", "--format", "json"), 0),
    ],
)
def test_rows_become_interpretations_only_where_printed(capsys, monkeypatch, argv, built):
    """A row is its index into the posteriors: the rankers build no
    Interpretation, and the renderers look each row's text up by its
    index. Only the minimal-set searches decode their results, 3 sets
    each."""
    from diagnoscope.model import Interpretation

    constructed = [0]
    original = Interpretation.__post_init__

    def counting(self):
        constructed[0] += 1
        original(self)

    monkeypatch.setattr(Interpretation, "__post_init__", counting)
    code, out, _ = run(capsys, argv[0], CIRCUIT4, "--observe", "E", *argv[1:])
    assert code == 0
    if argv[0] == "cover":
        assert len(out.splitlines()) == 3 + 2
    assert constructed[0] == built


@pytest.mark.parametrize(
    "argv, built",
    [
        (("diagnose", "--strategy", "single-fault"), 1),
        (("diagnose", "--strategy", "posterior"), 4),
        (("diagnose", "--strategy", "mpe"), 0),
        (("diagnose", "--strategy", "mpe", "--format", "json"), 1),
        (("diagnose", "--strategy", "consistency"), 3),
        (("diagnose", "--strategy", "abductive"), 3),
        (("diagnose", "--strategy", "all"), 13),
        (("diagnose", "--strategy", "all", "--format", "json"), 13),
        (("interpretations",), 0),
        (("cover", "--mass", "0.5"), 0),
        (("treat", "--utility", UNIT_GAIN), 0),
    ],
)
def test_candidates_built_per_command(capsys, monkeypatch, argv, built):
    """One Candidate per ranked answer: single-fault keeps only its
    possible hypothesis, posterior scores all 4 and each search returns 3
    minimal sets. The MPE ranking is a view over the 16 rows that builds a
    Candidate only when one is asked for: none for its table, its leader
    for JSON, and its leader twice for the comparison (once for the
    report, once to print it). The commands that print rows build none."""
    from diagnoscope.strategies import Candidate

    constructed = [0]
    original = Candidate.__init__

    def counting(self, *args, **kwargs):
        constructed[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Candidate, "__init__", counting)
    code, _, _ = run(capsys, argv[0], CIRCUIT4, "--observe", "E", *argv[1:])
    assert code == 0
    assert constructed[0] == built


def _seeded12(seed: int, equal_priors: bool) -> str:
    rng = random.Random(seed)
    names = [f"H{k}" for k in range(12)]
    priors = ["0.5"] * 12 if equal_priors else [rng.choice(("0.05", "0.1", "0.2", "0.3")) for _ in names]
    lines = [f"hypothesis {name} prior {prior}" for name, prior in zip(names, priors)]
    lines += ["observable E", "observable F"]
    lines += [f"rule {' & '.join(rng.sample(names, rng.randint(1, 2)))} => {head}" for head in "EEEFFF"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("equal_priors", [False, True])
def test_mpe_builds_a_candidate_for_no_row(capsys, monkeypatch, tmp_path, fmt, equal_priors):
    """On 2^12 rows the MPE answer builds no more Candidates than its ties
    and leader, whether one row leads or every live row ties."""
    from diagnoscope import ObservationSet, diagnose_mpe, parse_model_file
    from diagnoscope.strategies import Candidate

    text = _seeded12(12, equal_priors)
    ties = len(diagnose_mpe(parse_model_file(text).model, ObservationSet.of("E")).ties)
    assert (ties > 100) == equal_priors
    path = tmp_path / "seeded12.fdl"
    path.write_text(text)
    constructed = [0]
    original = Candidate.__init__

    def counting(self, *args, **kwargs):
        constructed[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Candidate, "__init__", counting)
    code, out, _ = run(capsys, "diagnose", str(path), "--strategy", "mpe", "--observe", "E", "--format", fmt)
    assert code == 0
    assert out.count("\n") > 1 << 12
    assert constructed[0] <= ties + 1
