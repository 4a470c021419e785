import json
import random

import pytest

import helpers
from cglogic import ALL_LOGICS
from cglogic import mcheck, synth
from cglogic.decide import is_neat, is_satisfiable, validity_oracle
from cglogic.logics import D, E, I, LogicId, S, SD, SID
from cglogic.mcheck import ensures, satisfies
from cglogic.models import Model, available_actions, coalitions, save_model, validate_model
from cglogic.normalform import (
    Literal,
    StandardConjunction,
    negate,
    to_standard_disjunctions,
)
from cglogic.synth import (
    Blueprint,
    RealizationError,
    _verify_realization,
    build_blueprint,
    check_regular,
    impeach,
    neg_action,
    pos_action,
    realize,
    support,
    synthesize,
)
from cglogic.syntax import (
    And,
    Atom,
    BOT,
    Coal,
    Not,
    Or,
    TOP,
    big_and,
    modal_depth,
    parse,
    random_formula,
    render,
)

P, Q = Atom("p"), Atom("q")

# negatives of a clause over 2 agents: index 0 has the empty coalition
NEGATIVES = ((frozenset(), TOP), (frozenset({0}), P), (frozenset({1}), Q))
AG2 = frozenset({0, 1})


def test_support_examples():
    # all agents play the action of negative index 1
    everyone_n1 = (neg_action(1), neg_action(1))
    assert support(NEGATIVES, AG2, everyone_n1) == {0, 1}
    # all agents play the positive index 0 action: only empty-coalition indices
    everyone_p0 = (pos_action(0), pos_action(0))
    assert support(NEGATIVES, AG2, everyone_p0) == {0}


def test_support_restriction_monotone():
    rng = random.Random(2)
    base = [neg_action(i) for i in range(len(NEGATIVES))] + [pos_action(j) for j in range(2)]
    for _ in range(150):
        full = tuple(rng.choice(base) for _ in range(2))
        for c in coalitions(2):
            restricted = helpers.restrict(AG2, full, c)
            assert support(NEGATIVES, c, restricted) <= support(NEGATIVES, AG2, full)


def test_support_claim_cover_and_neatness():
    # whatever the joint action, the supported coalitions sit inside the
    # acting coalition and are pairwise disjoint
    rng = random.Random(4)
    base = [neg_action(i) for i in range(len(NEGATIVES))] + [pos_action(0)]
    for _ in range(150):
        for c in coalitions(2):
            ja = tuple(rng.choice(base) for a in sorted(c))
            supp = support(NEGATIVES, c, ja)
            cover = frozenset().union(*(NEGATIVES[i][0] for i in supp)) if supp else frozenset()
            assert cover <= c
            assert is_neat(supp, NEGATIVES, LogicId.from_string("SI"))
            assert is_neat(supp, NEGATIVES, SID)


def test_support_nonempty_when_negatives_nonempty():
    rng = random.Random(6)
    base = [neg_action(i) for i in range(len(NEGATIVES))] + [pos_action(0), pos_action(1)]
    for _ in range(100):
        full = tuple(rng.choice(base) for _ in range(2))
        assert support(NEGATIVES, AG2, full) != frozenset()


def test_impeach_examples():
    assert impeach((neg_action(1), neg_action(2)), 3) == 0
    assert impeach((pos_action(1), pos_action(2)), 3) == 0
    assert impeach((pos_action(2), neg_action(0)), 3) == 2
    with pytest.raises(ValueError):
        impeach((), 0)


def spec_conjunction():
    # <>true & <0>p & ~<AG>false & ~<AG>~p over one agent
    ag = frozenset({0})
    return StandardConjunction(
        1,
        frozenset(),
        ((frozenset(), TOP), (ag, P)),
        ((ag, BOT), (ag, Not(P))),
    )


def test_build_blueprint_hand_expanded():
    bp = build_blueprint(spec_conjunction(), E)
    assert bp.base_actions == ("n0", "n1", "p0", "p1")
    listed = bp.listing[(neg_action(1),)]
    expected = {
        big_and([TOP, P, Not(BOT)]),
        big_and([TOP, P, Not(Not(P))]),
    }
    assert listed == expected
    # positive-action profiles support only the empty-coalition index
    assert bp.listing[(pos_action(0),)] == {
        big_and([TOP, Not(BOT)]),
        big_and([TOP, Not(Not(P))]),
    }


def test_build_blueprint_deterministic_listings_are_singletons():
    for x in (D, SD, LogicId.from_string("ID"), SID):
        bp = build_blueprint(spec_conjunction(), x)
        for formulas in bp.listing.values():
            assert len(formulas) == 1


def test_blueprint_listing_nonempty_iff_support_neat():
    sc = spec_conjunction()
    for x in ALL_LOGICS:
        bp = build_blueprint(sc, x)
        for action in bp.base_actions:
            profile = (action,)
            supp = support(sc.negatives, frozenset({0}), profile)
            assert (profile in bp.listing) == is_neat(supp, sc.negatives, x)


def test_coalition_table_on_blueprint_listing():
    bp = build_blueprint(spec_conjunction(), E)
    # the empty coalition's one joint action derives every listed formula
    assert helpers.coalition_table(bp.listing, []) == {(): set().union(*bp.listing.values())}
    # one agent: the grand coalition's table is the listing itself
    assert helpers.coalition_table(bp.listing, [0]) == bp.listing
    assert set(helpers.coalition_table(bp.listing, [0])) == {(a,) for a in bp.base_actions}


def test_check_regular():
    sc = spec_conjunction()
    for x in ALL_LOGICS:
        bp = build_blueprint(sc, x)
        sat = lambda f: is_satisfiable(f, x, 1)
        assert check_regular(bp, x, sat)

    # an unsatisfiable listed formula breaks condition 1
    broken = Blueprint(1, ("n0",), {("n0",): frozenset({BOT})})
    assert not check_regular(broken, E, lambda f: is_satisfiable(f, E, 1))

    # an empty listing breaks seriality but nothing else
    empty = Blueprint(1, ("n0",), {})
    assert not check_regular(empty, S, lambda f: True)
    assert check_regular(empty, E, lambda f: True)


def test_realize_degenerate():
    empty = Blueprint(1, ("n0",), {})
    pointed = realize(empty, frozenset({Literal("p")}), None, E)
    m = pointed.model
    assert m.states == (pointed.state,)
    assert m.labels[pointed.state] == {"p"}
    for c in coalitions(1):
        assert available_actions(m, pointed.state, c) == set()
    assert satisfies(m, pointed.state, P)


def test_realize_single_submodel():
    bp = Blueprint(1, ("n0",), {("n0",): frozenset({P})})

    def provider(f):
        assert f == P
        return synthesize(P, E, 1)

    pointed = realize(bp, frozenset(), provider, E)
    m = pointed.model
    [target] = m.entries(pointed.state)[("n0",)]
    assert satisfies(m, target, P)
    assert available_actions(m, pointed.state, frozenset({0})) == {("n0",)}


def test_realize_rejects_bad_gamma():
    empty = Blueprint(1, ("n0",), {})
    with pytest.raises(ValueError, match="complementary"):
        realize(empty, frozenset({Literal("p"), Literal("p", False)}), None, E)


def test_realize_availability_matches_performable():
    f = parse("<0>p & <1>q & ~<0,1>(p & q)", 2)
    for x in (E, S, D, SD):
        assert is_satisfiable(f, x, 2)
        pointed = synthesize(f, x, 2)
        # recover the blueprint of the chosen clause and compare exactly
        rec = validity_oracle(x, 2)
        for clause in to_standard_disjunctions(Not(f), 2):
            from cglogic.decide import reduction_witness

            if reduction_witness(clause, x, rec) is None:
                bp = build_blueprint(negate(clause), x)
                for c in coalitions(2):
                    assert available_actions(pointed.model, pointed.state, c) == set(
                        helpers.coalition_table(bp.listing, sorted(c))
                    )
                break


def test_verify_realization_rejects_changed_root_availability():
    bp = Blueprint(2, ("n0", "n1"), {("n0", "n0"): {P}, ("n1", "n1"): {Not(P)}})
    pointed = realize(bp, frozenset(), lambda f: synthesize(f, E, 2), E)
    m = pointed.model
    _verify_realization(m, bp, frozenset(), [], E)
    root = m.entries(pointed.state)
    removed = {k: v for k, v in root.items() if k != ("n1", "n1")}
    # every single agent's projection stays the same; only the grand coalition gains
    added = {**root, ("n0", "n1"): root[("n0", "n0")]}
    for entries in (removed, added):
        outcomes = {**m.outcomes, pointed.state: entries}
        tampered = Model(m.agents, m.actions, m.states, outcomes, m.labels, m.atoms)
        with pytest.raises(RealizationError, match="availability at the root differs"):
            _verify_realization(tampered, bp, frozenset(), [], E)


def test_verification_evaluates_each_listed_formula_once(monkeypatch):
    # One formula listed under many profiles: the realization checks ask
    # about it once per glued witness, but it is evaluated over the glued
    # model once.  The provider hands out a ready model, so every evaluation
    # counted here comes from the verification.
    f = parse("<0>p & ~<0>q", 1)
    pointed = synthesize(f, E, 1)
    evaluate = mcheck._eval_at
    evaluated = []

    def counting(m, everything, memo, node):
        if node is f:
            evaluated.append(m)
        return evaluate(m, everything, memo, node)

    def evaluations(profiles):
        base = tuple(neg_action(i) for i in range(profiles))
        bp = Blueprint(1, base, {(a,): frozenset({f}) for a in base})
        evaluated.clear()
        monkeypatch.setattr(mcheck, "_eval_at", counting)
        try:
            realize(bp, frozenset(), lambda chi: pointed, E)
        finally:
            monkeypatch.setattr(mcheck, "_eval_at", evaluate)
        return len(evaluated)

    assert evaluations(2) == evaluations(12) == 1


def negated_fan(k):
    """~(fan-k): the conjunction of <{i mod 3}>x_i over i < k, and not
    <0,1,2>(x_0 & ... & x_{k-1})."""
    xs = [Atom(f"x{i}") for i in range(k)]
    abilities = big_and([Coal(frozenset({i % 3}), x) for i, x in enumerate(xs)])
    return And(abilities, Not(Coal(frozenset({0, 1, 2}), big_and(xs))))


def test_realize_glues_what_the_renaming_reference_glues(monkeypatch, tmp_path):
    # Every realize call of a synthesis, at every recursion level, is checked
    # against the model that renaming each submodel's string view and
    # rebuilding the whole table with Model(...) gives, and so are the bytes
    # its file gets.
    path = tmp_path / "m.json"
    glued = []
    real = synth.realize

    def checked(bp, gamma, provider, logic):
        pointed = real(bp, gamma, provider, logic)
        reference = helpers.reference_glue(bp, gamma, provider)
        assert pointed.model == reference
        save_model(pointed.model, path, pointed=pointed.state)
        text = json.dumps(helpers.reference_doc(reference, pointed.state), indent=2) + "\n"
        assert path.read_bytes() == text.encode("utf-8")
        glued.append(len(reference.states))
        return pointed

    monkeypatch.setattr(synth, "realize", checked)
    for index, x in enumerate(ALL_LOGICS):
        # the first draws of criterion 5's pool for this logic
        rng = random.Random(303 + index)
        for _ in range(25):
            synthesize(random_formula(rng, 2, 2, ("p", "q")), x, 2)
    draws = len(glued)
    for x in (E, SID):
        for k in (3, 4, 5):
            assert (synthesize(negated_fan(k), x, 3) is None) == (x == SID and k == 3)
    assert draws >= 100 and len(glued) > draws and max(glued) > 500


def test_synthesis_and_writing_never_derive_the_string_view(monkeypatch, tmp_path):
    # Glued models are checked and written from the index form alone.
    class Refused:
        def __get__(self, model, owner=None):
            raise AssertionError("string view derived")

    monkeypatch.setattr(Model, "outcomes", Refused())
    monkeypatch.setattr(Model, "labels", Refused())
    rng = random.Random(54)
    formulas = [(negated_fan(k), 3) for k in (3, 4)]
    formulas += [(random_formula(rng, 2, 2, ("p", "q")), 2) for _ in range(20)]
    for x in ALL_LOGICS:
        for f, agents in formulas:
            pointed = synthesize(f, x, agents)
            if pointed is not None:
                save_model(pointed.model, tmp_path / "m.json", pointed=pointed.state)


def test_synthesize_base_case():
    pointed = synthesize(P, SID, 2)
    m = pointed.model
    assert len(m.states) == 1
    assert m.labels[pointed.state] == {"p"}
    assert validate_model(m, SID).passed
    assert synthesize(And(P, Not(P)), E, 1) is None


def test_synthesize_two_abilities():
    f = parse("<0>p & <0>~p", 1)
    pointed = synthesize(f, E, 1)
    m = pointed.model
    acts = available_actions(m, pointed.state, frozenset({0}))
    assert len(acts) >= 2
    assert any(ensures(m, pointed.state, {0}, ja, P) for ja in acts)
    assert any(ensures(m, pointed.state, {0}, ja, Not(P)) for ja in acts)
    assert satisfies(m, pointed.state, f)


def test_synthesize_remark_countermodel():
    f = parse("~(~<>~p -> <*>p)", 1)
    pointed = synthesize(f, D, 1)
    from cglogic.models import frame_properties

    props = frame_properties(pointed.model)
    assert props.deterministic and not props.serial
    assert validate_model(pointed.model, D).passed
    assert satisfies(pointed.model, pointed.state, f)


def test_synthesize_none_iff_unsatisfiable():
    rng = random.Random(51)
    for _ in range(60):
        f = random_formula(rng, 2, 2)
        x = rng.choice(ALL_LOGICS)
        produced = synthesize(f, x, 2)
        assert (produced is None) == (not is_satisfiable(f, x, 2))


def test_synthesize_end_to_end_loop():
    rng = random.Random(53)
    produced = 0
    for _ in range(40):
        for x in ALL_LOGICS:
            f = random_formula(rng, 2, 2, ("p", "q"))
            pointed = synthesize(f, x, 2)
            if pointed is None:
                continue
            produced += 1
            assert validate_model(pointed.model, x).passed, (x.name, render(f))
            assert satisfies(pointed.model, pointed.state, f), (x.name, render(f))
    assert produced > 100


def test_synthesized_depth_zero_listing_models():
    # deeper goals recurse through strictly shallower listed formulas
    f = parse("<0><1>p", 2)
    for x in ALL_LOGICS:
        pointed = synthesize(f, x, 2)
        assert pointed is not None
        assert satisfies(pointed.model, pointed.state, f)
        assert modal_depth(f) == 2
