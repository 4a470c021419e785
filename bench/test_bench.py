"""Tests of the benchmark's own arithmetic and checks (run with pytest)."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
from checks import Checker, Reply, check_model_file  # noqa: E402
from tracer import SELF_TIME_METRICS, Tracer, layer_metrics  # noqa: E402
from workload import percentile  # noqa: E402


def test_percentile_is_nearest_rank_with_ten_beyond():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    assert percentile(values[:20], 50) == 10


def _span(tracer, name, start, end, parent):
    tracer.name_of.append(tracer._name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.query.append(0)
    return len(tracer.start) - 1


def test_self_time_is_span_minus_direct_children():
    # main [0, 100] > entry [10, 90] > { to_sd [20, 40], witness [40, 85] > is_taut [50, 60] }
    t = Tracer()
    main = _span(t, "cli.main", 0, 100_000_000, -1)
    entry = _span(t, "decide.entry", 10_000_000, 90_000_000, main)
    _span(t, "normalform.to_sd", 20_000_000, 40_000_000, entry)
    witness = _span(t, "decide.reduction_witness", 40_000_000, 85_000_000, entry)
    _span(t, "decide.is_taut", 50_000_000, 60_000_000, witness)
    totals = t.layer_totals()
    assert totals["cli.main"]["self_ns"] == 20_000_000
    assert totals["decide.entry"]["self_ns"] == 15_000_000
    assert totals["decide.reduction_witness"]["self_ns"] == 35_000_000
    assert totals["decide.is_taut"]["self_ns"] == 10_000_000
    layers = layer_metrics(totals, t.counts)
    assert sum(layers[name] for name in SELF_TIME_METRICS) == pytest.approx(100.0)


def test_tracer_nests_cross_module_calls_and_restores():
    from cglogic import cli, decide

    original = decide.to_standard_disjunctions
    t = Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--json", "check", "--logic", "I", "--agents", "2", "<0>p & <1>q -> <0,1>(p & q)"]) == 0
    finally:
        t.uninstall()
    assert decide.to_standard_disjunctions is original and not t.missing
    names = [t.names[i] for i in t.name_of]
    parents = {names[i]: names[t.parent[i]] for i in range(len(names)) if t.parent[i] >= 0}
    assert names[0] == "cli.main" and t.parent[0] == -1
    assert parents["decide.entry"] == "cli.main"
    assert parents["normalform.to_sd"] in ("decide.entry", "decide.reduction_witness")
    assert t.counts["clauses"] > 0 and t.counts["oracle_calls"] > 0


def _reply(stdout, pass_no=0):
    return Reply(0, pass_no, 0, stdout, "", 0.001)


def test_checker_rejects_a_flipped_verdict():
    text = reference.render(inputs.fan(2))
    query = inputs._check("I", text, "valid", "fan-2")
    record = {"command": "check", "formula": text, "logic": "I", "agents": 3, "result": "valid"}
    checker = Checker([query])
    assert checker.check(_reply(json.dumps(record))) is None
    record["result"] = "invalid"
    assert "result" in checker.check(_reply(json.dumps(record)))


def test_fan_known_answers_agree_with_the_package():
    from cglogic.cli import main

    for logic in ("E", "I", "SD", "SID"):
        for k in (1, 2, 3, 4):
            out = io.StringIO()
            text = reference.render(inputs.fan(k))
            with contextlib.redirect_stdout(out):
                main(["--json", "check", "--logic", logic, "--agents", "3", text])
            verdict = json.loads(out.getvalue())["result"] == "valid"
            assert verdict == inputs.fan_valid(k, logic), (logic, k)


def _two_state_doc():
    # s0 --(a)--> s1, s1 loops and is labeled p: <0>p holds at s0 in every logic.
    return {
        "agents": 1,
        "actions": ["a"],
        "states": ["s0", "s1"],
        "atoms": ["p"],
        "labels": {"s0": [], "s1": ["p"]},
        "outcomes": [
            {"state": "s0", "profile": ["a"], "to": ["s1"]},
            {"state": "s1", "profile": ["a"], "to": ["s1"]},
        ],
        "pointed": "s0",
    }


def test_checker_rejects_a_corrupted_model(tmp_path):
    path = tmp_path / "model-0-0.json"
    path.write_text(json.dumps(_two_state_doc()))
    assert check_model_file(path, "SID", "<0> p", 1) is None

    refuting = _two_state_doc()
    refuting["labels"]["s1"] = []
    path.write_text(json.dumps(refuting))
    assert "does not satisfy" in check_model_file(path, "E", "<0> p", 1)

    not_serial = _two_state_doc()
    not_serial["outcomes"].pop()
    path.write_text(json.dumps(not_serial))
    assert "not a S-model" in check_model_file(path, "S", "<0> p", 1)

    query = inputs._sat("E", 1, "<0> p", True, "test", 0, tmp_path)
    record = {"command": "sat", "formula": "<0> p", "logic": "E", "agents": 1,
              "result": "satisfiable", "model": str(path), "pointed": "s0"}
    path.write_text(json.dumps(refuting))
    assert "does not satisfy" in Checker([query]).check(_reply(json.dumps(record)))


def test_reference_evaluator_on_a_two_agent_fork():
    # At s, agent 0 playing x forces an outcome, but only with agent 1 is p forced.
    doc = {
        "agents": 2, "actions": ["x", "y"], "states": ["s", "t", "u"],
        "labels": {"t": ["p"]},
        "outcomes": [
            {"state": "s", "profile": ["x", "x"], "to": ["t"]},
            {"state": "s", "profile": ["x", "y"], "to": ["u"]},
        ],
    }
    model = reference.model_from_doc(doc)
    assert reference.holds(model, "s", reference.parse("<0,1> p", 2))
    assert not reference.holds(model, "s", reference.parse("<0> p", 2))
    assert reference.holds(model, "s", reference.parse("<0> (p | ~p)", 2))
    assert not reference.holds(model, "t", reference.parse("<> true", 2))
    assert reference.frame_properties(model)["deterministic"]
    assert not reference.is_serial(model)
