import gc
import itertools
import json
import random
import re

import pytest

import helpers
from cglogic import (
    ALL_LOGICS,
    Model,
    ModelError,
    RandomModelConfig,
    available_actions,
    frame_properties,
    load_model,
    load_pointed_model,
    outcome,
    random_model,
    save_model,
    validate_model,
)
from cglogic.logics import D, E, I, LogicId, S, SID
from cglogic.models import coalitions
from cglogic.cli import main
from cglogic.synth import check_regular, synthesize
from cglogic.syntax import Atom, Not, random_formula


def test_outcome_union_over_extensions():
    m = helpers.two_agent_fork()
    assert outcome(m, "s", {0}, ("x",)) == {"t", "u"}
    assert outcome(m, "s", frozenset(), ()) == {"t", "u"}
    assert outcome(m, "s", {0, 1}, ("x", "y")) == {"u"}
    assert outcome(m, "s", {0, 1}, ("y", "y")) == frozenset()


@pytest.mark.parametrize("state", ["nowhere", ["s0"], {"s0": 0}], ids=["unknown", "list", "dict"])
def test_state_lookups_reject_unknown_and_unhashable_states(state):
    m = helpers.loop_model()
    calls = {
        "number": lambda: m.number(state),
        "entries": lambda: m.entries(state),
        "available_actions": lambda: available_actions(m, state, {0}),
        "outcome": lambda: outcome(m, state, {0}, ("a",)),
    }
    for name, call in calls.items():
        with pytest.raises(ModelError) as caught:
            call()
        assert str(caught.value) == f"unknown state {state!r}", name


def test_outcome_on_empty_table():
    m = helpers.empty_table_model(agents=2, actions=("x", "y"), states=("s0", "s1"))
    for c in coalitions(2):
        ja = ("x",) * len(c)
        assert outcome(m, "s0", c, ja) == frozenset()


def test_outcome_errors():
    m = helpers.loop_model()
    with pytest.raises(ModelError):
        outcome(m, "nowhere", frozenset(), ())
    with pytest.raises(ModelError):
        outcome(m, "s0", {0}, ("zz",))
    with pytest.raises(ModelError, match="out of range"):
        outcome(m, "s0", {1}, ("a",))
    with pytest.raises(ValueError, match="one action per coalition member"):
        outcome(m, "s0", frozenset(), ("a",))
    with pytest.raises(ValueError, match="one action per coalition member"):
        outcome(m, "s0", {0}, ())


def test_available_actions():
    m = helpers.loop_model(agents=2, actions=("x", "y"))
    for c in coalitions(2):
        assert len(available_actions(m, "s0", c)) == 2 ** len(c)

    empty = helpers.empty_table_model(agents=2, actions=("x", "y"))
    for c in coalitions(2):
        assert available_actions(empty, "s0", c) == set()

    fork = helpers.two_agent_fork()
    only_xy = Model(
        2,
        ("x", "y"),
        ("s", "t"),
        {"s": {("x", "y"): frozenset({"t"})}},
        {},
        (),
    )
    assert available_actions(only_xy, "s", {1}) == {("y",)}
    assert available_actions(fork, "s", {0}) == {("x",)}


def test_frame_properties_examples():
    from cglogic import FrameProperties

    assert frame_properties(helpers.loop_model()) == FrameProperties(True, True, True)
    empty = helpers.empty_table_model()
    assert frame_properties(empty) == FrameProperties(False, True, True)
    fork1 = Model(
        1,
        ("x",),
        ("s", "t", "u"),
        {"s": {("x",): frozenset({"t", "u"})}},
        {},
        (),
    )
    assert frame_properties(fork1).deterministic is False
    assert validate_model(fork1, D).violation.describe() == (
        "deterministic fails at state 's' (coalitions {0}; joint actions {0: 'x'})"
    )


def test_validate_model_examples():
    assert validate_model(helpers.loop_model(), SID).passed
    empty = helpers.empty_table_model()
    report = validate_model(empty, S)
    assert not report.passed
    assert report.violation.prop == "serial"
    assert report.violation.state == "s0"
    assert report.violation.coalitions == (frozenset(),)
    assert report.violation.describe() == "serial fails at state 's0' (coalitions {})"
    assert validate_model(empty, D).passed
    assert validate_model(empty, E).passed


def test_validate_independence_witness():
    # (x,x) and (y,y) listed, (x,y) not: {0}:x and {1}:y are available but do not merge
    m = Model(
        2,
        ("x", "y"),
        ("s",),
        {"s": {("x", "x"): frozenset({"s"}), ("y", "y"): frozenset({"s"})}},
        {},
        (),
    )
    report = validate_model(m, LogicId.from_string("I"))
    assert not report.passed
    assert report.violation.prop == "independent"
    assert report.violation.coalitions == (frozenset({0}), frozenset({1}))
    assert report.violation.joint_actions == (("x",), ("y",))
    assert report.violation.describe() == (
        "independent fails at state 's' (coalitions {0}, {1}; joint actions {0: 'x'}, {1: 'y'})"
    )


@pytest.fixture(scope="module")
def perturbed_models():
    return [helpers.perturbed_model(seed) for seed in range(500)]


def test_frame_characterisation_matches_exhaustive(perturbed_models):
    seen = set()
    for m in perturbed_models:
        props = frame_properties(m)
        serial = helpers.exhaustive_serial_violation(m)
        independent = helpers.exhaustive_independent_violation(m)
        assert props.serial == (serial is None)
        assert props.independent == (independent is None)
        assert validate_model(m, S).violation == serial
        seen.add((m.agents, props.serial, props.independent))
    # every agent count, and for 2 and 3 agents every combination of verdicts
    assert {agents for agents, _, _ in seen} == {1, 2, 3}
    for agents in (2, 3):
        assert {(s, i) for a, s, i in seen if a == agents} == {
            (True, True), (True, False), (False, True), (False, False)
        }


def test_independence_witness_is_genuine(perturbed_models):
    failures = 0
    for m in perturbed_models:
        report = validate_model(m, I)
        if report.passed:
            continue
        failures += 1
        v = report.violation
        c, d = v.coalitions
        ja_c, ja_d = v.joint_actions
        assert not c & d
        assert len(ja_c) == len(c) and len(ja_d) == len(d)
        assert ja_c in available_actions(m, v.state, c)
        assert ja_d in available_actions(m, v.state, d)
        assert helpers.merge(c, ja_c, d, ja_d) not in available_actions(m, v.state, c | d)
    assert failures >= 50


def test_coalition_table_matches_definition(perturbed_models):
    # by definition, over the declared actions: a joint action's outcome is the
    # union over every full profile that extends it, and it is available iff
    # that union is nonempty
    for m in perturbed_models:
        full = m.full_coalition()
        profiles = list(itertools.product(m.actions, repeat=m.agents))
        for s in m.states:
            entries = m.entries(s)
            for c in coalitions(m.agents):
                available = available_actions(m, s, c)
                for ja in itertools.product(m.actions, repeat=len(c)):
                    expected = set()
                    for profile in profiles:
                        if helpers.restrict(full, profile, c) == ja:
                            expected |= entries.get(profile, frozenset())
                    assert outcome(m, s, c, ja) == expected
                    assert (ja in available) == bool(expected)


def test_check_regular_frames_match_exhaustive():
    formulas = [Atom("p"), Not(Atom("p")), Atom("q")]
    seen = set()
    for seed in range(300):
        bp = helpers.perturbed_blueprint(seed, formulas)
        for x in ALL_LOGICS:
            expected = helpers.exhaustive_blueprint_frames(bp, x)
            assert check_regular(bp, x, lambda f: True) == expected, (seed, x.name)
            seen.add((x.name, expected))
    # E assumes no frame property; every other logic sees both verdicts
    assert len(seen) == 2 * len(ALL_LOGICS) - 1


def test_save_load_round_trip(tmp_path):
    m = helpers.two_agent_fork()
    path = tmp_path / "fork.json"
    save_model(m, path)
    assert load_model(path) == m

    save_model(m, path, pointed="s")
    pm = load_pointed_model(path)
    assert pm.model == m and pm.state == "s"


def assert_writes_reference(m, path, pointed=None):
    save_model(m, path, pointed=pointed)
    expected = json.dumps(helpers.reference_doc(m, pointed), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_save_model_writes_json_dumps_bytes(tmp_path, perturbed_models):
    path = tmp_path / "m.json"
    for x in ALL_LOGICS:
        for seed in range(6):
            m = helpers.random_x_model(x, seed)
            assert_writes_reference(m, path)
            assert_writes_reference(m, path, pointed=m.states[-1])
            assert_writes_reference(load_model(path), path, pointed=m.states[0])
    for m in perturbed_models[:100]:
        assert_writes_reference(m, path, pointed=m.states[0])


def test_save_model_bytes_of_synthesized_countermodels(tmp_path):
    path = tmp_path / "m.json"
    written = 0
    for x in ALL_LOGICS:
        for seed in range(4):
            f = random_formula(random.Random(seed), 2, 2)
            pointed = synthesize(f, x, 2)
            if pointed is not None:
                assert_writes_reference(pointed.model, path, pointed=pointed.state)
                written += 1
    assert written >= len(ALL_LOGICS)


def test_save_model_bytes_of_generated_models(tmp_path, capsys):
    path = tmp_path / "gen.json"
    for x in ALL_LOGICS:
        argv = ["gen", "--logic", x.name, "--states", "5", "--agents", "3", "--seed", "4"]
        assert main([*argv, "--out", str(path)]) == 0
        text = path.read_bytes()
        assert_writes_reference(load_model(path), path)
        assert path.read_bytes() == text
    capsys.readouterr()


def test_save_model_bytes_of_awkward_names(tmp_path):
    states = ("s\u00e9", "\U0001f600", 'q"t', "b\\s", "new\nline", "ctl\x01", "del\x7f", "idle")
    actions = ("\u00e9", "\U0001d11e", '"', "\\", "\n", "\x1f")
    atoms = ("\u00e4", "\U0001f600", 'a"b', "a\\b", "a\nb", "a\x02b", "unused")
    table = {
        state: {
            (actions[i % 6], actions[(i + j) % 6]): frozenset(states[(i + j) % 6 : (i + j) % 6 + 2])
            for j in range(3)
        }
        for i, state in enumerate(states[:6])
    }
    labels = {state: frozenset(atoms[i % 3 : i % 6]) for i, state in enumerate(states)}
    m = Model(2, actions, states, table, labels, atoms)
    assert not m.labels["s\u00e9"] and "idle" not in m.outcomes
    path = tmp_path / "m.json"
    for pointed in (None, *states):
        assert_writes_reference(m, path, pointed=pointed)
    assert load_model(path) == m


def test_save_model_bytes_of_empty_parts(tmp_path):
    path = tmp_path / "m.json"
    no_atoms = Model(1, ("a",), ("s0", "s1"), {"s0": {("a",): frozenset({"s1"})}}, {}, ())
    for m in (no_atoms, helpers.empty_table_model(atoms=()), helpers.empty_table_model()):
        assert_writes_reference(m, path)
        assert_writes_reference(m, path, pointed="s0")


def test_save_model_rejects_unknown_pointed_state_before_writing(tmp_path):
    m = helpers.two_agent_fork()
    path = tmp_path / "m.json"
    path.write_text("keep")
    for pointed in ("zz", ["s"]):
        with pytest.raises(ModelError, match="pointed state"):
            save_model(m, path, pointed=pointed)
        assert path.read_text() == "keep"


def test_loaded_models_derive_the_constructed_string_view(tmp_path, perturbed_models):
    # Constructed and loaded models both derive the string view from the
    # index form.  A loaded model must read as the model it was saved from,
    # and saving it must write the same file.
    path = tmp_path / "m.json"
    for m in perturbed_models:
        save_model(m, path)
        text = path.read_text()
        loaded = load_model(path)
        assert loaded == m
        assert loaded.outcomes == m.outcomes and loaded.labels == m.labels
        assert all(loaded.entries(s) == m.entries(s) for s in m.states)
        save_model(loaded, path)
        assert path.read_text() == text


def test_constructed_string_view_is_the_input_without_empty_entries():
    # The view is derived from the index form, not kept: it must equal the
    # constructor's table with empty outcome sets and empty rows dropped,
    # and every state's labels, unlabelled states reading empty.
    emptied = dropped = 0
    for seed in range(500):
        parts = helpers.perturbed_parts(seed)
        rng = random.Random(seed)
        outcomes = {state: dict(row) for state, row in parts.outcomes.items()}
        for row in outcomes.values():
            if rng.random() < 0.3:
                profile = tuple(rng.choice(parts.actions) for _ in range(parts.agents))
                row.setdefault(profile, frozenset())
        labels = {state: atoms for state, atoms in parts.labels.items() if rng.random() < 0.7}
        m = Model(parts.agents, parts.actions, parts.states, outcomes, labels, parts.atoms)
        expected = {}
        for state, row in outcomes.items():
            listed = {profile: frozenset(targets) for profile, targets in row.items() if targets}
            emptied += len(row) - len(listed)
            if listed:
                expected[state] = listed
            else:
                dropped += 1
        assert m.outcomes == expected, seed
        assert m.labels == {state: frozenset(labels.get(state, ())) for state in parts.states}
        # an unknown state is refused even when its row is empty
        unknown = dict(outcomes, ghost={})
        with pytest.raises(ModelError, match="outcome entry for unknown state 'ghost'"):
            Model(parts.agents, parts.actions, parts.states, unknown, labels, parts.atoms)
    assert emptied >= 50 and dropped >= 50


def test_load_minimal_model(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text('{"agents": 1, "actions": ["a"], "states": ["s0"]}')
    m = load_model(path)
    assert m.outcomes == {} and m.states == ("s0",)


ONE_STATE = '{"agents": 1, "actions": ["a"], "states": ["s0"], '


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": ["s0"]},'
            ' {"state": "s0", "profile": ["a"], "to": []}]}',
            "duplicate outcome key",
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["b"], "to": ["s0"]}]}',
            "unknown action",
        ),
        (
            '{"agents": 2, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": ["s0"]}]}',
            "one action per agent",
        ),
        ('{"agents": 0, "actions": ["a"], "states": ["s0"]}', "positive integer"),
        ('{"actions": ["a"], "states": ["s0"]}', "missing"),
        ("[1, 2]", "JSON object"),
        ("{nope", "not valid JSON"),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"], "atoms": ["p"],'
            ' "labels": {"s0": ["q"]}}',
            re.escape("label ['q'] at state 's0' not among declared atoms"),
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "to": ["s0"]}]}',
            "bad outcome entry",
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"], "pointed": "s9"}',
            "pointed state 's9' not in model",
        ),
        # JSON shapes: a string is not a list of names, true is not an agent
        # count, and names are strings
        (ONE_STATE + '"labels": {"s0": "pq"}}', "labels at state 's0'"),
        (ONE_STATE + '"labels": {"s0": 1}}', "labels at state 's0'"),
        (ONE_STATE + '"labels": {"s0": [1]}}', "labels at state 's0'"),
        (ONE_STATE + '"labels": [["s0", "p"]]}', "'labels' must be an object"),
        ('{"agents": true, "actions": ["a"], "states": ["s0"]}', "positive integer"),
        ('{"agents": 1, "actions": "ab", "states": ["s0"]}', "'actions' must be a list"),
        ('{"agents": 1, "actions": ["a"], "states": 3}', "'states' must be a list"),
        ('{"agents": 1, "actions": ["a"], "states": [0]}', "'states' must be a list"),
        (ONE_STATE + '"atoms": 2}', "'atoms' must be a list"),
        (ONE_STATE + '"outcomes": 4}', "'outcomes' must be a list"),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": "a", "to": ["s0"]}]}',
            "bad outcome entry",
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": "s0"}]}',
            "bad outcome entry",
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": [["a"]], "to": ["s0"]}]}',
            re.escape("unknown action ['a'] at state 's0'"),
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": [["s0"]]}]}',
            re.escape("unknown outcome state ['s0'] at state 's0'"),
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": 0, "profile": ["a"], "to": ["s0"]}]}',
            "bad outcome entry",
        ),
        # the second of two targets, a one-element "to" that cannot be a
        # dictionary key, and a state after a run of entries of known ones
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": ["s0", "s9"]}]}',
            re.escape("unknown outcome state 's9' at state 's0'"),
        ),
        (
            '{"agents": 1, "actions": ["a"], "states": ["s0"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": [{"s0": 1}]}]}',
            re.escape("unknown outcome state {'s0': 1} at state 's0'"),
        ),
        (
            '{"agents": 1, "actions": ["a", "b"], "states": ["s0", "s1"],'
            ' "outcomes": [{"state": "s0", "profile": ["a"], "to": ["s1"]},'
            ' {"state": "s0", "profile": ["b"], "to": ["s0", "s1"]},'
            ' {"state": "s1", "profile": ["a"], "to": ["s0"]},'
            ' {"state": "s2", "profile": ["a"], "to": ["s0"]}]}',
            "outcome entry for unknown state 's2'",
        ),
    ],
)
def test_load_errors(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(ModelError, match=message):
        load_model(path)


def test_interleaved_entries_load_the_constructed_model(tmp_path):
    # save_model groups entries by state; a file may interleave them, and a
    # state's entries may come back after another state's.
    m = helpers.two_agent_fork()
    doc = helpers.reference_doc(m)
    doc["outcomes"] = sorted(doc["outcomes"], key=lambda e: (e["profile"], e["state"]))
    assert [e["state"] for e in doc["outcomes"][:3]] == ["s", "t", "u"]
    path = tmp_path / "interleaved.json"
    path.write_text(json.dumps(doc))
    assert load_model(path) == m


@pytest.mark.parametrize("was_enabled", [True, False])
def test_load_restores_the_cyclic_collector(tmp_path, was_enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_model(helpers.two_agent_fork(), good)
    bad.write_text(ONE_STATE + '"outcomes": 4}')
    enabled = gc.isenabled()
    (gc.enable if was_enabled else gc.disable)()
    try:
        load_model(good)
        assert gc.isenabled() is was_enabled
        with pytest.raises(ModelError):
            load_model(bad)
        assert gc.isenabled() is was_enabled
    finally:
        (gc.enable if enabled else gc.disable)()


def test_load_runs_no_cyclic_collection(tmp_path):
    # Decoding a 500-state file allocates enough containers to set the
    # collector off dozens of times (28 for this file without the pause).
    path = tmp_path / "large.json"
    save_model(random_model(RandomModelConfig(500, 3, 3, 2), E, 5), path)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        model = load_model(path)
        fired = len(starts)
    finally:
        gc.callbacks.remove(record)
    assert fired == 0 and len(model.states) == 500


def test_empty_to_equivalent_to_omission(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        '{"agents": 1, "actions": ["a"], "states": ["s0"],'
        ' "outcomes": [{"state": "s0", "profile": ["a"], "to": []}]}'
    )
    assert load_model(path).outcomes == {}


def test_random_model_properties_hold():
    # oracle: validate_model on the generator's own output
    for x in ALL_LOGICS:
        for seed in range(30):
            m = helpers.random_x_model(x, seed)
            assert validate_model(m, x).passed, (x.name, seed)


def test_random_model_deterministic():
    cfg = RandomModelConfig(num_states=5, num_actions=3, agents=2, branching=3)
    for x in (E, SID):
        assert random_model(cfg, x, 123) == random_model(cfg, x, 123)


def test_random_model_bad_config():
    with pytest.raises(ValueError):
        random_model(RandomModelConfig(num_states=0), E, 1)


@pytest.mark.parametrize("branching", [None, "2", 2.5, True])
def test_random_model_branching_must_be_an_int(branching):
    # Checked before the bounds are compared, as the counts are; a bool is
    # not a bound.
    with pytest.raises(ValueError, match=rf"^branching {re.escape(repr(branching))} must be an int$"):
        random_model(RandomModelConfig(branching=branching), E, 0)


def test_validate_monotone_in_logic():
    for seed in range(20):
        for x in ALL_LOGICS:
            m = helpers.random_x_model(x, seed, max_states=4)
            for weaker in ALL_LOGICS:
                if weaker <= x:
                    assert validate_model(m, weaker).passed


def test_outcome_antimonotone_and_availability_restriction():
    rng = random.Random(9)
    for seed in range(25):
        m = helpers.random_x_model(E, seed, max_states=4, max_agents=2)
        full = m.full_coalition()
        for s in m.states:
            for c in coalitions(m.agents):
                for ja in available_actions(m, s, c):
                    # restrictions of available actions stay available
                    for sub in coalitions(m.agents):
                        if sub <= c:
                            assert helpers.restrict(c, ja, sub) in available_actions(m, s, sub)
                    # larger coalitions with extended actions shrink outcomes
                    bigger = frozenset(rng.sample(sorted(full), rng.randint(len(c), m.agents)))
                    extra = bigger - c
                    played = tuple(rng.choice(m.actions) for _ in sorted(extra))
                    extended = helpers.merge(c, ja, extra, played)
                    assert outcome(m, s, c | extra, extended) <= outcome(m, s, c, ja)


def test_model_validation_errors():
    # Every text of the validating pass, for the constructor's input.
    cases = [
        ((1, (), ("s0",), {}, {}, ()), "a model needs at least one action"),
        ((1, ("a",), (), {}, {}, ()), "a model needs at least one state"),
        ((0, ("a",), ("s0",), {}, {}, ()), "a model needs at least one agent"),
        ((1, ("a", "a"), ("s0",), {}, {}, ()), "duplicate action names"),
        ((1, ("a",), ("s0", "s0"), {}, {}, ()), "duplicate state names"),
        ((1, ("a",), ("s0",), {"s1": {}}, {}, ()), "outcome entry for unknown state 's1'"),
        (
            (1, ("a",), ("s0",), {"s1": {("a",): frozenset({"s0"})}}, {}, ()),
            "outcome entry for unknown state 's1'",
        ),
        (
            (1, ("a",), ("s0",), {"s0": {("a",): frozenset({"s9"})}}, {}, ()),
            "unknown outcome state 's9' at state 's0'",
        ),
        (
            (1, ("a",), ("s0",), {"s0": {("b",): frozenset({"s0"})}}, {}, ()),
            "unknown action 'b' at state 's0'",
        ),
        (
            (1, ("a",), ("s0",), {"s0": {("a", "a"): frozenset({"s0"})}}, {}, ()),
            re.escape("profile ('a', 'a') at state 's0' must list one action per agent"),
        ),
        ((1, ("a",), ("s0",), {}, {"s9": frozenset({"p"})}, ()), "labels for unknown state 's9'"),
    ]
    for args, message in cases:
        with pytest.raises(ModelError, match=message):
            Model(*args)
