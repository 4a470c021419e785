import gc
import random
import weakref

import pytest

import helpers
from cglogic import mcheck
from cglogic import (
    ALL_LOGICS,
    FrameProperties,
    available_actions,
    enables,
    ensures,
    frame_properties,
    outcome,
    sat_states,
    satisfies,
    valid_on_model,
    validate_model,
)
from cglogic.axioms import a_cea, a_naaa, a_sia, system_instances
from cglogic.logics import D, E, I, S
from cglogic.models import Model, ModelError, coalitions
from cglogic.syntax import And, Atom, BOT, Coal, Not, TOP, parse, random_formula, render

P = Atom("p")


def test_satisfies_examples():
    loop = helpers.loop_model(labels=("p",))
    assert satisfies(loop, "s0", Coal(frozenset(), P))

    empty = helpers.empty_table_model(agents=2, actions=("x", "y"))
    for c in coalitions(2):
        assert not satisfies(empty, "s0", Coal(c, TOP))

    branching = helpers.branching_profile_model()
    grand = frozenset({0, 1})
    # the only available profile at s has outcome {t, u} with p only at t
    assert not satisfies(branching, "s", Coal(grand, P))
    assert satisfies(branching, "s", Not(Coal(grand, Not(P))))


def test_unlabeled_atoms_false():
    loop = helpers.loop_model(labels=())
    assert not satisfies(loop, "s0", P)
    assert satisfies(loop, "s0", Not(P))


def test_ensures_enables():
    loop = helpers.loop_model(labels=("p",))
    nobody = ()
    assert ensures(loop, "s0", frozenset(), nobody, P)

    empty = helpers.empty_table_model()
    assert ensures(empty, "s0", frozenset(), nobody, BOT)  # vacuous on empty outcome
    assert not enables(empty, "s0", frozenset(), nobody, TOP)

    fork = helpers.two_agent_fork()
    both_x = ("x",)
    assert not ensures(fork, "s", {0}, both_x, P)  # u lacks p
    assert enables(fork, "s", {0}, both_x, P)  # t has p

    bare = helpers.loop_model(labels=())
    assert not enables(bare, "s0", frozenset(), nobody, P)


_FAR = Coal(frozenset({1}), P)  # names agent 1, which a one-agent model lacks
_UNKNOWN_STATE = (ModelError, "unknown state 'nowhere'")
_UNHASHABLE_STATE = (ModelError, "unknown state ['s0']")
_MISSING_AGENT = (ValueError, "formula mentions agent 1; model has 1 agent(s)")
_JA_LENGTH = (ValueError, "joint action must list one action per coalition member")
_OUT_OF_RANGE = (ModelError, "coalition [1] out of range for 1 agent(s)")
_UNKNOWN_ACTION = (ModelError, "unknown action 'zz'")


# Each bad call of a public check on a one-state, one-agent loop model: the
# exact exception type and message, and which is reported when several
# arguments are bad (for enables/ensures the coalition, then the joint
# action, then the state, then the formula).
_BAD_CALLS = {
    "satisfies-unknown-state": (satisfies, ("nowhere", P), _UNKNOWN_STATE),
    "satisfies-unhashable-state": (satisfies, (["s0"], P), _UNHASHABLE_STATE),
    "satisfies-missing-agent": (satisfies, ("s0", _FAR), _MISSING_AGENT),
    "satisfies-state-checked-first": (satisfies, ("nowhere", _FAR), _UNKNOWN_STATE),
}
for _check in (enables, ensures):
    _name = _check.__name__
    _BAD_CALLS.update({
        f"{_name}-unknown-state": (_check, ("nowhere", (), (), P), _UNKNOWN_STATE),
        f"{_name}-unknown-state-listed-profile": (_check, ("nowhere", {0}, ("a",), P), _UNKNOWN_STATE),
        f"{_name}-unhashable-state": (_check, (["s0"], {0}, ("a",), P), _UNHASHABLE_STATE),
        f"{_name}-unknown-action": (_check, ("s0", {0}, ("zz",), P), _UNKNOWN_ACTION),
        f"{_name}-joint-action-too-long": (_check, ("s0", (), ("a",), P), _JA_LENGTH),
        f"{_name}-joint-action-too-short": (_check, ("s0", {0}, (), P), _JA_LENGTH),
        f"{_name}-coalition-out-of-range": (_check, ("s0", {1}, ("a",), P), _OUT_OF_RANGE),
        f"{_name}-coalition-checked-first": (_check, ("nowhere", {1}, ("zz",), _FAR), _OUT_OF_RANGE),
        f"{_name}-missing-agent": (_check, ("s0", {0}, ("a",), _FAR), _MISSING_AGENT),
    })


# Coalitions whose members are not agent numbers: a string, an unhashable
# list, and a bool, which Python would count as the int 1.
for _name, _coalition in {"str": {"0"}, "unhashable": [[0]], "bool": [True]}.items():
    _error = (ModelError, f"coalition {_coalition!r} must be a set of agent numbers (ints)")
    _BAD_CALLS.update({
        f"available_actions-{_name}-member": (available_actions, ("s0", _coalition), _error),
        f"outcome-{_name}-member": (outcome, ("s0", _coalition, ("a",)), _error),
        f"enables-{_name}-member": (enables, ("s0", _coalition, ("a",), P), _error),
        f"ensures-{_name}-member": (ensures, ("s0", _coalition, ("a",), P), _error),
    })


@pytest.mark.parametrize("check,args,error", _BAD_CALLS.values(), ids=_BAD_CALLS.keys())
def test_checks_raise_the_documented_errors(check, args, error):
    kind, message = error
    with pytest.raises(ValueError) as caught:
        check(helpers.loop_model(), *args)
    assert type(caught.value) is kind and str(caught.value) == message


def test_a_bool_is_not_an_agent():
    # True == 1, so at two agents [True] once passed as agent 1.
    fork = helpers.two_agent_fork()
    for call in (
        lambda c: available_actions(fork, "s", c),
        lambda c: outcome(fork, "s", c, ("x",)),
        lambda c: enables(fork, "s", c, ("x",), P),
    ):
        assert call([1]) == call({1})
        with pytest.raises(ModelError, match="must be a set of agent numbers"):
            call([True])
        with pytest.raises(ModelError, match="must be a set of agent numbers"):
            call({0, True})


def test_checks_on_an_empty_outcome_skip_the_formula():
    # With no outcome, enables is false and ensures vacuously true before the
    # formula is looked at, so a formula naming a missing agent is not
    # reported there.
    empty = helpers.empty_table_model()
    assert not enables(empty, "s0", {0}, ("a",), _FAR)
    assert ensures(empty, "s0", {0}, ("a",), _FAR)


def test_valid_on_model_examples():
    for x in ALL_LOGICS:
        m = helpers.random_x_model(x, 3)
        grand = frozenset(range(m.agents))
        assert valid_on_model(m, Not(Coal(grand, BOT)))

    serial = helpers.random_x_model(S, 5)
    assert valid_on_model(serial, Coal(frozenset(), TOP))

    empty = helpers.empty_table_model()
    assert not valid_on_model(empty, Coal(frozenset(), TOP))


def test_coalition_monotonicity_sampled():
    # <C>f implies <D>f for C subset of D, on every model
    rng = random.Random(11)
    for seed in range(30):
        m = helpers.random_x_model(E, seed, max_agents=2)
        f = random_formula(rng, 1, m.agents)
        coals = list(coalitions(m.agents))
        for c in coals:
            for d in coals:
                if c <= d:
                    small = sat_states(m, Coal(c, f))
                    assert small <= sat_states(m, Coal(d, f))


def test_diamond_matches_ensuring_action():
    rng = random.Random(13)
    for seed in range(30):
        m = helpers.random_x_model(E, seed, max_agents=2)
        f = random_formula(rng, 1, m.agents)
        for c in coalitions(m.agents):
            for s in m.states:
                semantic = satisfies(m, s, Coal(c, f))
                witnessed = any(
                    ensures(m, s, c, ja, f) for ja in available_actions(m, s, c)
                )
                assert semantic == witnessed


def test_axiom_soundness_sampled():
    for x in ALL_LOGICS:
        for seed in range(25):
            m = helpers.random_x_model(x, seed)
            rng = random.Random(seed)
            for name, instance in system_instances(x, m.agents, rng):
                assert valid_on_model(m, instance), (x.name, name, seed)


def test_derived_formulas_on_general_models():
    # hold on every model, no frame assumptions needed
    rng = random.Random(17)
    for seed in range(25):
        m = helpers.random_x_model(E, seed, max_agents=2)
        phi = random_formula(rng, 1, m.agents)
        psi = random_formula(rng, 1, m.agents)
        for c in coalitions(m.agents):
            assert valid_on_model(m, a_cea(c, phi))
            assert valid_on_model(m, a_sia(c, phi, psi))
            assert valid_on_model(m, a_naaa(c))


def test_box_dual_reading():
    # [C]f holds iff every available joint action enables f
    rng = random.Random(19)
    for seed in range(20):
        m = helpers.random_x_model(E, seed, max_agents=2)
        f = random_formula(rng, 1, m.agents)
        for c in coalitions(m.agents):
            for s in m.states:
                box = satisfies(m, s, Not(Coal(c, Not(f))))
                pointwise = all(
                    enables(m, s, c, ja, f) for ja in available_actions(m, s, c)
                )
                assert box == pointwise


def test_sat_states_releases_the_model_without_cyclic_gc():
    # Large models are loaded per query; evaluation must not leave them in a
    # reference cycle that only the cyclic collector can free.
    # The same holds once several results are kept in the model's cache.
    m = helpers.two_agent_fork()
    alive = weakref.ref(m)
    gc.disable()
    try:
        assert sat_states(m, Coal(frozenset({0}), Not(P))) == {"u"}
        del m
        assert alive() is None

        m = helpers.two_agent_fork()
        alive = weakref.ref(m)
        for f in (P, Not(P), Coal(frozenset({0}), P), Coal(frozenset({0, 1}), And(P, TOP))):
            sat_states(m, f)
        assert len(m.mask_memo) == 4
        del m
        assert alive() is None
    finally:
        gc.enable()


def test_formulas_on_one_model_share_their_coalition_nodes(monkeypatch):
    # A formula evaluated after another on the same model evaluates only the
    # <C> nodes the first did not have, and both answers equal evaluations
    # on fresh copies of the model.
    able = mcheck._able
    calls = []

    def counting(m, coalition, bad):
        calls.append(coalition)
        return able(m, coalition, bad)

    monkeypatch.setattr(mcheck, "_able", counting)
    q = Atom("q")
    inner = Coal(frozenset({0}), P)
    designed = (
        And(inner, Not(Coal(frozenset(), inner))),
        Not(And(Not(Coal(frozenset(), inner)), Not(Coal(frozenset({0}), q)))),
    )
    shared_seen = 0
    for seed in range(300):
        rng = random.Random(seed)
        agents = helpers.perturbed_model(seed).agents
        first = random_formula(rng, 2, agents, ("p", "q"))
        shared = sorted(helpers.coal_nodes(first), key=render) or [inner]
        second = And(rng.choice(shared), random_formula(rng, 1, agents, ("p", "q")))
        for f, g in (designed, (first, second)):
            m = helpers.perturbed_model(seed)
            answers = []
            old = helpers.coal_nodes(f)
            for h, new in ((f, old), (g, helpers.coal_nodes(g) - old)):
                calls.clear()
                answers.append(sat_states(m, h))
                assert len(calls) == len(new), (seed, render(h))
            shared_seen += not old.isdisjoint(helpers.coal_nodes(g))
            for h, answer in zip((f, g), answers):
                fresh = Model(*helpers.perturbed_parts(seed))
                assert answer == sat_states(fresh, h), (seed, render(h))
    assert shared_seen > 400


def test_cached_sat_states_equal_a_fresh_evaluation():
    # A repeat query with a structurally equal formula, re-parsed into new
    # objects, is answered from the kept mask, and every answer equals an
    # evaluation on an uncached copy of the model, whose mask is kept in the
    # copy's own memo.
    for seed in range(500):
        m = helpers.perturbed_model(seed)
        rng = random.Random(seed)
        formulas = [random_formula(rng, 2, m.agents, ("p", "q")) for _ in range(3)]
        first = [sat_states(m, f) for f in formulas]
        for f, answer in zip(reversed(formulas), reversed(first)):
            again = parse(render(f), m.agents)
            assert again == f and again in m.mask_memo
            assert sat_states(m, again) == answer
            uncached = Model(m.agents, m.actions, m.states, m.outcomes, m.labels, m.atoms)
            assert answer == sat_states(uncached, f), (seed, render(f))
            assert uncached.names(uncached.mask_memo[f]) == answer


def test_agent_check_survives_cached_formulas():
    m = helpers.loop_model(agents=1)
    assert sat_states(m, P) == {"s0"}
    assert sat_states(m, Coal({0}, P)) == {"s0"}
    for _ in range(2):
        with pytest.raises(ValueError, match="agent 1"):
            sat_states(m, Coal({1}, P))
    assert Coal({1}, P) not in m.mask_memo


def test_mask_evaluation_and_frame_checks_match_the_string_form_oracle():
    # The oracle reads the tables the model was built from, not its index
    # form, so a wrong state bit or a wrong projection shows as a difference.
    coalitions_seen = set()
    states_without_profiles = 0
    failures = {"serial": 0, "independent": 0, "deterministic": 0}
    for seed in range(500):
        parts = helpers.perturbed_parts(seed)
        m = Model(*parts)
        grand = m.full_coalition()
        rng = random.Random(seed)
        formulas = [random_formula(rng, 2, m.agents, ("p", "q", "r")) for _ in range(3)]
        formulas += [Coal(frozenset(), formulas[0]), Coal(grand, Not(formulas[1]))]
        for f in formulas:
            assert sat_states(m, f) == helpers.oracle_sat_states(parts, f), (seed, render(f))
        for c in _coalitions_in(formulas):
            of_profile, joint = m.projection(c)
            apart = len(joint) == len(of_profile)
            coalitions_seen.add((len(c) == 0, len(c) == m.agents, apart))
        states_without_profiles += sum(not m.entries(s) for s in m.states)

        expected = helpers.oracle_violations(parts)
        assert frame_properties(m) == FrameProperties(
            *(expected[prop] is None for prop in ("serial", "independent", "deterministic"))
        )
        for logic, prop in ((S, "serial"), (I, "independent"), (D, "deterministic")):
            got = validate_model(m, logic).violation
            assert got == expected[prop], (seed, prop)
            if got is not None:
                assert got.describe() == expected[prop].describe()
                failures[prop] += 1
    # the empty, the grand and some other coalition, the last both with a
    # projection that keeps the profiles apart and with one that merges
    # some (the two ways a <C> node is decided), unlisted states, and
    # failures of every frame property
    seen = {(empty, grand) for empty, grand, _ in coalitions_seen}
    assert seen >= {(True, False), (False, True), (False, False)}
    assert {(False, False, True), (False, False, False)} <= coalitions_seen
    assert states_without_profiles >= 50
    assert min(failures.values()) >= 50, failures


def _coalitions_in(formulas):
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if isinstance(node, Coal):
            yield node.coalition
        for name in ("child", "left", "right"):
            if hasattr(node, name):
                stack.append(getattr(node, name))
