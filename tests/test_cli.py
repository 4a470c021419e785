import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cglogic
import helpers
from cglogic.cli import main
from cglogic.models import load_pointed_model, save_model
from cglogic.syntax import parse, random_formula, render
from cglogic.mcheck import satisfies


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid(capsys):
    code, out, _ = run(capsys, "check", "--logic", "SID", "--agents", "2", "~<*>false")
    assert code == 0 and out.strip() == "valid"


def test_check_invalid(capsys):
    code, out, _ = run(capsys, "check", "--logic", "E", "--agents", "2", "<0>true")
    assert code == 0 and out.strip() == "invalid"


def test_check_serial_deterministic_remark(capsys):
    code, out, _ = run(capsys, "check", "--logic", "SD", "--agents", "2", "~[ ]~p -> <*>p")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "check", "--logic", "SD", "--agents", "2", "~<>~p -> <*>p")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "check", "--logic", "D", "--agents", "2", "~<>~p -> <*>p")
    assert code == 0 and out.strip() == "invalid"


def test_check_logic_aliases(capsys):
    for alias in ("DS", "sd", "Sd"):
        code, out, _ = run(capsys, "check", "--logic", alias, "--agents", "2", "~<>~p -> <*>p")
        assert code == 0 and out.strip() == "valid"


def test_check_trace(capsys):
    code, out, _ = run(capsys, "check", "--logic", "S", "--agents", "2", "--trace", "<0>true")
    assert code == 0
    assert "clause 0" in out and out.strip().endswith("valid")


def test_check_json(capsys):
    code, out, _ = run(capsys, "--json", "check", "--logic", "SID", "--agents", "2", "~<*>false")
    assert code == 0
    record = json.loads(out)
    assert record["result"] == "valid" and record["logic"] == "SID"


def test_sat_with_model_and_feedback(capsys, tmp_path):
    model_path = str(tmp_path / "model.json")
    code, out, _ = run(
        capsys, "sat", "--logic", "E", "--agents", "1", "--model", model_path, "<0>p & <0>~p"
    )
    assert code == 0 and out.splitlines()[0] == "satisfiable"

    pointed = load_pointed_model(model_path)
    f = parse("<0>p & <0>~p", 1)
    assert satisfies(pointed.model, pointed.state, f)

    # the standing cross-check: feed the model back through mc
    code, out, _ = run(capsys, "mc", model_path, pointed.state, "<0>p & <0>~p")
    assert code == 0 and out.strip() == "true"


def test_sat_unsatisfiable(capsys):
    code, out, _ = run(capsys, "sat", "--logic", "SID", "--agents", "1", "<0>p & ~<*>p")
    assert code == 0 and out.strip() == "unsatisfiable"
    code, out, _ = run(capsys, "sat", "--logic", "D", "--agents", "1", "false")
    assert code == 0 and out.strip() == "unsatisfiable"


def test_sat_verdict_does_not_depend_on_model_option(capsys, tmp_path):
    # With --model, sat decides through synthesize; without, through
    # is_satisfiable.  The verdicts must agree, and only a satisfiable
    # formula writes a model.
    verdicts = set()
    for x in cglogic.ALL_LOGICS:
        for seed in range(6):
            text = render(random_formula(random.Random(seed), 2, 2))
            path = tmp_path / f"{x.name}-{seed}.json"
            argv = ["--json", "sat", "--logic", x.name, "--agents", "2"]
            code, out, _ = run(capsys, *argv, text)
            assert code == 0
            plain = json.loads(out)
            code, out, _ = run(capsys, *argv, "--model", str(path), text)
            assert code == 0
            modelled = json.loads(out)
            assert modelled["result"] == plain["result"], (x.name, text)
            assert path.exists() == (plain["result"] == "satisfiable")
            verdicts.add(plain["result"])
    assert verdicts == {"satisfiable", "unsatisfiable"}


@pytest.mark.parametrize("formula", ["p & ~p", "<0>p & ~<*>p", "<0>(q & ~q)"])
def test_sat_unsatisfiable_with_model_writes_no_file(capsys, tmp_path, formula):
    path = tmp_path / "model.json"
    code, out, _ = run(capsys, "sat", "--logic", "SID", "--agents", "2", "--model", str(path), formula)
    assert code == 0 and out.strip() == "unsatisfiable"
    assert not path.exists()


@pytest.mark.parametrize(
    "formula, expected_code, expected_text",
    [
        (" & ".join(f"(x{i} | y{i})" for i in range(18)) + " & <0>z", 3, "cap"),
        ("<5>p", 2, "out of range"),
    ],
)
def test_sat_errors_do_not_depend_on_model_option(capsys, tmp_path, formula, expected_code, expected_text):
    path = tmp_path / "model.json"
    argv = ["sat", "--logic", "E", "--agents", "1"]
    plain = run(capsys, *argv, formula)
    modelled = run(capsys, *argv, "--model", str(path), formula)
    assert plain[0] == modelled[0] == expected_code
    assert plain[2] == modelled[2] and expected_text in plain[2]
    assert not path.exists()


def test_mc_on_loop_model(capsys, tmp_path):
    path = str(tmp_path / "loop.json")
    save_model(helpers.loop_model(labels=("p",)), path)
    code, out, _ = run(capsys, "mc", path, "s0", "<>p")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "mc", path, "s0", "q")
    assert code == 0 and out.strip() == "false"


def test_mc_unknown_state(capsys, tmp_path):
    path = str(tmp_path / "loop.json")
    save_model(helpers.loop_model(), path)
    code, _, err = run(capsys, "mc", path, "zz", "p")
    assert code == 2 and "unknown state" in err


def test_props_on_empty_table(capsys, tmp_path):
    path = str(tmp_path / "empty.json")
    save_model(helpers.empty_table_model(), path)
    code, out, _ = run(capsys, "props", path)
    assert code == 0
    assert out.strip() == "serial=false independent=true deterministic=true"


def test_gen_then_props(capsys, tmp_path):
    path = str(tmp_path / "gen.json")
    code, out, _ = run(capsys, "gen", "--logic", "SI", "--seed", "1", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "props", path)
    assert code == 0
    assert "serial=true" in out and "independent=true" in out


def test_gen_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "--logic", "ID", "--seed", "9", "--out", a)
    run(capsys, "gen", "--logic", "ID", "--seed", "9", "--out", b)
    assert Path(a).read_text() == Path(b).read_text()


def test_fuzz_clean_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "fuzz", "--logic", "SID", "--iters", "25", "--seed", "7")
    assert code == 0 and "ok: 25 iterations" in out
    code, out, _ = run(capsys, "fuzz", "--logic", "E", "--iters", "25", "--seed", "3")
    assert code == 0


@pytest.mark.parametrize("option", ["--iters", "--depth"])
def test_fuzz_rejects_negative_counts(capsys, tmp_path, monkeypatch, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "fuzz", "--logic", "E", "--iters", "3", option, "-1")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {option} must be >= 0, got -1"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "--logic", "SID", "--agents", "2", "p &")
    assert code == 2 and "error" in err


def test_agent_range_exit_code(capsys):
    code, _, err = run(capsys, "check", "--logic", "SID", "--agents", "2", "<5>p")
    assert code == 2 and "out of range" in err


def test_bad_logic_exit_code(capsys):
    code, _, err = run(capsys, "check", "--logic", "XYZ", "--agents", "2", "p")
    assert code == 2 and "unknown logic" in err


def test_cap_exit_code(capsys):
    blowup = " | ".join(f"(x{i} & y{i})" for i in range(18)) + " | <0>z"
    code, _, err = run(capsys, "check", "--logic", "E", "--agents", "1", blowup)
    assert code == 3 and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--logic", "E", "--iters", "1"],
        ["gen", "--logic", "E", "--out", "gen.json"],
        ["sat", "--logic", "E", "--model", "model.json", "<0>p & <1>q & ~<0,1>(p & q)"],
    ],
    ids=["fuzz", "gen", "sat"],
)
def test_profile_cap_exit_code(capsys, tmp_path, monkeypatch, argv):
    # With 40 agents a random model or a blueprint would enumerate 2^40 or
    # more profiles; the count is checked before any is built.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv[:3], "--agents", "40", *argv[3:])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.strip().endswith("(the profile cap)")
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cglogic.cli", "check", "--logic", "CL", "--agents", "2", "~<*>false"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "valid"


@pytest.mark.parametrize("command", ["check", "sat", "mc"])
def test_deep_nesting_exit_code(capsys, tmp_path, command):
    # Deciding and model checking recurse once per nested <C> (test below
    # for nesting without modal depth).  Seriality makes the empty antecedent
    # family neat, so `check` and `sat` reach the innermost modality.
    if command == "mc":
        path = tmp_path / "loop.json"
        save_model(helpers.loop_model(), path)
        argv = ["mc", str(path), "s0", "<0>" * 1200 + "p"]
    else:
        argv = [command, "--logic", "S", "--agents", "1", "<0>" * 1200 + "p"]
    code, out, err = run(capsys, "--json", *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: formula nested too deeply")


@pytest.mark.parametrize(
    "command,deep,expected",
    [
        ("check", "~" * 5000 + "p", "invalid"),
        ("sat", "~" * 5000 + "p", "satisfiable"),
        ("check", "~" * 5000 + "<0> p", "invalid"),
        ("sat", "~" * 5000 + "<0> p", "satisfiable"),
        ("mc", "~" * 5000 + "p", "true"),
    ],
    ids=["check-invalid", "sat-satisfiable", "check-modal-invalid", "sat-modal-satisfiable", "mc-true"],
)
def test_deep_propositional_formula_answers(capsys, tmp_path, command, deep, expected):
    # Parsing, printing, the truth table, the normal form and model checking
    # are iterative over the propositional skeleton, so nesting of ~ and &
    # far beyond the recursion limit still gets an answer.
    if command == "mc":
        path = str(tmp_path / "loop.json")
        save_model(helpers.loop_model(), path)
        argv = ["mc", path, "s0", deep]
    else:
        argv = [command, "--logic", "E", "--agents", "1", deep]
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["result"] == expected and record["formula"] == deep
    if command == "sat":
        path = str(tmp_path / "model.json")
        code, out, _ = run(capsys, "sat", "--logic", "E", "--agents", "1", "--model", path, deep)
        assert code == 0 and out.splitlines()[0] == "satisfiable"
        pointed = load_pointed_model(path)
        assert satisfies(pointed.model, pointed.state, parse(deep, 1))
        if "<" not in deep:
            assert pointed.model.labels[pointed.state] == frozenset({"p"})


def test_sat_model_does_not_depend_on_hash_seed(tmp_path):
    # A negated fan: every listed profile of its blueprint lists two
    # formulas, so the written model depends on how they are ordered.
    formula = "~(((<0> x0 & <1> x1) & <2> x2) -> <0,1,2> ((x0 & x1) & x2))"
    src = str(Path(cglogic.__file__).resolve().parents[1])
    replies = []
    for seed in ("0", "1"):
        workdir = tmp_path / f"hashseed-{seed}"
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "cglogic.cli", "sat", "--logic", "E", "--agents", "3",
             "--model", "model.json", formula],
            cwd=workdir,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        replies.append((proc.stdout, (workdir / "model.json").read_bytes()))
    assert replies[0] == replies[1]
    assert replies[0][0].splitlines()[0] == "satisfiable"


def test_consecutive_calls_share_no_state(capsys, tmp_path):
    # The argument parser is built once per process; options of one call must
    # not leak into the next.
    code, out, _ = run(capsys, "check", "--logic", "S", "--agents", "2", "--trace", "<0>true")
    assert code == 0 and "clause 0" in out
    code, out, _ = run(capsys, "check", "--logic", "S", "--agents", "2", "<0>true")
    assert code == 0 and out.strip() == "valid"

    model_path = tmp_path / "model.json"
    code, out, _ = run(capsys, "sat", "--logic", "E", "--agents", "1", "--model", str(model_path), "<0>p")
    assert code == 0 and model_path.exists()
    model_path.unlink()
    code, out, _ = run(capsys, "--json", "sat", "--logic", "E", "--agents", "1", "<0>p")
    assert code == 0 and not model_path.exists()
    assert "model" not in json.loads(out)

    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--logic", "E"])
    assert exit_info.value.code == 2
    code, _, err = run(capsys, "check", "--logic", "E", "--agents", "1", "p &")
    assert code == 2 and "error" in err
    code, out, _ = run(capsys, "--json", "check", "--logic", "E", "--agents", "1", "p | ~p")
    assert code == 0 and json.loads(out)["result"] == "valid"


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "@missing", "s0", "p"],
        ["props", "@missing"],
        ["mc", "@dir", "s0", "p"],
        ["props", "@dir"],
        ["sat", "--logic", "E", "--agents", "1", "--model", "@nodir", "<0>p"],
        ["gen", "--logic", "E", "--out", "@nodir"],
    ],
    ids=["mc-missing", "props-missing", "mc-dir", "props-dir", "sat-model-nodir", "gen-out-nodir"],
)
def test_unreadable_or_unwritable_path_exit_code(capsys, tmp_path, argv):
    paths = {
        "@missing": str(tmp_path / "missing.json"),
        "@dir": str(tmp_path),
        "@nodir": str(tmp_path / "no" / "such" / "m.json"),
    }
    code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_model_file_exit_code(capsys, tmp_path):
    # A string label set used to be split into one-letter atoms, so `mc`
    # answered "true" for q; a list of labels ended in a traceback.
    base = '{"agents": 1, "actions": ["a"], "states": ["s0"], '
    path = tmp_path / "m.json"
    for rest in ('"labels": {"s0": "pq"}}', '"labels": [["s0", "p"]]}'):
        path.write_text(base + rest)
        for argv in (["mc", str(path), "s0", "q"], ["props", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "labels" in err


def test_mc_and_props_never_build_the_string_view(capsys, tmp_path, monkeypatch):
    # Both commands work on the loaded model's index form; the string view
    # (outcomes, labels) is derived only when something asks for it.
    import cglogic.cli
    from cglogic.models import load_model

    path = str(tmp_path / "fork.json")
    save_model(helpers.two_agent_fork(), path)
    loaded = []

    def loading(p):
        loaded.append(load_model(p))
        return loaded[-1]

    monkeypatch.setattr(cglogic.cli, "load_model", loading)
    assert run(capsys, "mc", path, "s", "~<0>p & <0,1>p")[:2] == (0, "true\n")
    assert run(capsys, "mc", path, "t", "<1>p")[:2] == (0, "true\n")
    assert run(capsys, "props", path)[:2] == (
        0, "serial=true independent=true deterministic=true\n"
    )
    assert len(loaded) == 3
    for model in loaded:
        assert "outcomes" not in vars(model) and "labels" not in vars(model)
