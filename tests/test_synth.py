import gc
import json
import random
import re
import weakref

import pytest

import helpers
from cglogic import ALL_LOGICS
from cglogic import mcheck, synth
from cglogic.decide import is_neat, is_satisfiable, validity_oracle
from cglogic.logics import D, E, I, LogicId, S, SD, SID
from cglogic.mcheck import ensures, satisfies
from cglogic.models import Model, available_actions, coalitions, save_model, validate_model
from cglogic.normalform import StandardDisjunction, to_standard_disjunctions
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
    # base-action numbers 0..2 stand for antecedent indices 0..2, 3 and up
    # for consequent indices
    # all agents play the action of negative index 1
    everyone_n1 = (1, 1)
    assert support(NEGATIVES, AG2, everyone_n1) == {0, 1}
    # all agents play the positive index 0 action: only empty-coalition indices
    everyone_p0 = (len(NEGATIVES), len(NEGATIVES))
    assert support(NEGATIVES, AG2, everyone_p0) == {0}


def test_support_restriction_monotone():
    rng = random.Random(2)
    base = range(len(NEGATIVES) + 2)
    for _ in range(150):
        full = tuple(rng.choice(base) for _ in range(2))
        for c in coalitions(2):
            restricted = helpers.restrict(AG2, full, c)
            assert support(NEGATIVES, c, restricted) <= support(NEGATIVES, AG2, full)


def test_support_claim_cover_and_neatness():
    # whatever the joint action, the supported coalitions sit inside the
    # acting coalition and are pairwise disjoint
    rng = random.Random(4)
    base = range(len(NEGATIVES) + 1)
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
    base = range(len(NEGATIVES) + 2)
    for _ in range(100):
        full = tuple(rng.choice(base) for _ in range(2))
        assert support(NEGATIVES, AG2, full) != frozenset()


def test_impeach_examples():
    # three antecedent indices: numbers 3, 4, 5 are consequent indices 0, 1, 2
    assert impeach((1, 2), 3, 3) == 0
    assert impeach((4, 5), 3, 3) == 0
    assert impeach((5, 0), 3, 3) == 2
    with pytest.raises(ValueError):
        impeach((), 0, 0)
    with pytest.raises(ValueError):
        impeach((), 3, 0)


def spec_clause():
    # <>true & <0>p -> <AG>false | <AG>~p over one agent; its blueprint
    # realizes the negation <>true & <0>p & ~<AG>false & ~<AG>~p
    ag = frozenset({0})
    return StandardDisjunction(
        1,
        frozenset(),
        ((frozenset(), TOP), (ag, P)),
        ((ag, BOT), (ag, Not(P))),
    )


def test_build_blueprint_hand_expanded():
    bp = build_blueprint(spec_clause(), E)
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
        bp = build_blueprint(spec_clause(), x)
        for formulas in bp.listing.values():
            assert len(formulas) == 1


def test_blueprint_listing_nonempty_iff_support_neat():
    clause = spec_clause()
    for x in ALL_LOGICS:
        bp = build_blueprint(clause, x)
        for number, action in enumerate(bp.base_actions):
            supp = support(clause.negatives, frozenset({0}), (number,))
            assert ((action,) in bp.listing) == is_neat(supp, clause.negatives, x)


def _wide_clauses():
    # F over one agent and G over two, the formulas CI writes models for:
    # their negations' clauses have 14 and 15 base actions, with two-digit
    # names up to n11 and p12
    xs = [f"x{i}" for i in range(11)]
    abilities = " & ".join(f"<0>{x}" for x in xs)
    f = parse(f"~(({abilities}) -> <0>({' & '.join(xs)}))", 1)
    inabilities = " & ".join(f"~<0>q{i}" for i in range(11))
    g = parse(f"<0>p & {inabilities} & ~<0,1>r", 2)
    return to_standard_disjunctions(Not(f), 1) + to_standard_disjunctions(Not(g), 2)


def test_build_blueprint_matches_the_name_based_reference():
    # Enumerating profiles as base-action numbers and building one listing
    # per support (and impeached index) must give the blueprint that
    # enumerating base-action names and building every profile's listing
    # gives, past ten base actions too.
    wide = _wide_clauses()
    assert sorted(len(c.negatives) + len(c.positives) for c in wide) == [14, 15]
    clauses = list(wide)
    rng = random.Random(16)
    for agents in (1, 2, 3):
        for _ in range(10):
            # a conjunction of draws, so the negation's clauses are wider
            f = big_and([random_formula(rng, 2, agents, ("p", "q")) for _ in range(3)])
            if modal_depth(f) > 0:
                clauses += to_standard_disjunctions(Not(f), agents)
    assert len(clauses) >= 60
    for clause in clauses:
        for x in ALL_LOGICS:
            assert build_blueprint(clause, x) == helpers.reference_blueprint(clause, x)
    names = {a for c in wide for a in build_blueprint(c, SID).base_actions}
    assert {"n10", "n11", "p10", "p12"} <= names


def test_coalition_table_on_blueprint_listing():
    bp = build_blueprint(spec_clause(), E)
    # the empty coalition's one joint action derives every listed formula
    assert helpers.coalition_table(bp.listing, []) == {(): set().union(*bp.listing.values())}
    # one agent: the grand coalition's table is the listing itself
    assert helpers.coalition_table(bp.listing, [0]) == bp.listing
    assert set(helpers.coalition_table(bp.listing, [0])) == {(a,) for a in bp.base_actions}


def test_check_regular():
    clause = spec_clause()
    for x in ALL_LOGICS:
        bp = build_blueprint(clause, x)
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
    pointed = realize(empty, frozenset({(P, True)}), None, E)
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
    with pytest.raises(ValueError, match="^gamma contains complementary pair on 'p'$"):
        realize(empty, frozenset({(P, True), (P, False)}), None, E)
    for bad in (P, ("p", True), (P, "yes")):
        with pytest.raises(ValueError, match="only propositional literals"):
            realize(empty, frozenset({bad}), None, E)


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
                bp = build_blueprint(clause, x)
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


@pytest.mark.parametrize(
    "breach,message",
    [
        ("lost-formula", "glued submodel lost its formula 'p'"),
        ("not-enabled", "profile ('n0', 'n0') fails to enable 'p'"),
        ("not-ensured", "profile ('n0', 'n0') fails to ensure its listed disjunction"),
    ],
    ids=["lost-formula", "not-enabled", "not-ensured"],
)
def test_verify_realization_rejects_a_broken_glue(breach, message):
    # The realized model passes; a copy rebuilt with one breach of the
    # realization lemma fails with that breach's message: p's witness root
    # loses p, p's profile leads to the ~p witness instead, or to both.  The
    # root lists the same profiles, so availability still matches.
    bp = Blueprint(2, ("n0", "n1"), {("n0", "n0"): {P}, ("n1", "n1"): {Not(P)}})
    pointed = realize(bp, frozenset(), lambda f: synthesize(f, E, 2), E)
    m = pointed.model
    root = m.entries(pointed.state)
    witnesses = [(profile, f, *root[profile]) for profile, (f,) in bp.listing.items()]
    _verify_realization(m, bp, frozenset(), witnesses, E)
    (_, _, p_root), (_, _, not_p_root) = witnesses
    outcomes, labels = dict(m.outcomes), dict(m.labels)
    if breach == "lost-formula":
        labels[p_root] = labels[p_root] - {"p"}
    elif breach == "not-enabled":
        outcomes[pointed.state] = {**root, ("n0", "n0"): frozenset({not_p_root})}
    else:
        outcomes[pointed.state] = {**root, ("n0", "n0"): frozenset({p_root, not_p_root})}
    tampered = Model(m.agents, m.actions, m.states, outcomes, labels, m.atoms)
    with pytest.raises(RealizationError, match=re.escape(message)):
        _verify_realization(tampered, bp, frozenset(), witnesses, E)


def test_verify_realization_rejects_a_root_literal_it_lacks():
    # The root is labeled p only, so ~p and q are literals it lacks.
    empty = Blueprint(1, ("n0",), {})
    m = realize(empty, frozenset({(P, True)}), None, E).model
    _verify_realization(m, empty, frozenset({(P, True), (Q, False)}), [], E)
    for literal, text in (((P, False), "~p"), ((Q, True), "q")):
        with pytest.raises(RealizationError, match=f"^root does not satisfy literal '{text}'$"):
            _verify_realization(m, empty, frozenset({literal}), [], E)


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


def _reference_cases():
    """The first draws of criterion 5's pool in every logic, and the negated
    fans k = 3, 4, 5 for E and SID."""
    cases = []
    for index, x in enumerate(ALL_LOGICS):
        rng = random.Random(303 + index)
        cases += [(random_formula(rng, 2, 2, ("p", "q")), x, 2) for _ in range(25)]
    cases += [(negated_fan(k), x, 3) for x in (E, SID) for k in (3, 4, 5)]
    return cases


def test_synthesize_matches_the_per_level_reference(tmp_path):
    # One oracle and one memo per query must give the model, the pointed
    # state and the file that a fresh oracle and cache per level give.
    got_path, want_path = tmp_path / "got.json", tmp_path / "want.json"
    produced = 0
    for f, x, agents in _reference_cases():
        got = synthesize(f, x, agents)
        want = helpers.reference_synthesize(f, x, agents)
        assert (got is None) == (want is None), (x.name, render(f))
        if got is None:
            continue
        produced += 1
        assert got.model == want.model and got.state == want.state, (x.name, render(f))
        save_model(got.model, got_path, pointed=got.state)
        save_model(want.model, want_path, pointed=want.state)
        assert got_path.read_bytes() == want_path.read_bytes(), (x.name, render(f))
    assert produced >= 100


def test_synthesize_builds_one_validity_oracle_per_query(monkeypatch):
    from cglogic import decide

    built = {"synth": 0, "reference": 0}

    def counting(key, real):
        def oracle(*args, **kwargs):
            built[key] += 1
            return real(*args, **kwargs)

        return oracle

    monkeypatch.setattr(synth, "validity_oracle", counting("synth", synth.validity_oracle))
    monkeypatch.setattr(decide, "validity_oracle", counting("reference", decide.validity_oracle))
    several = 0
    for f, x, agents in _reference_cases():
        before = dict(built)
        synthesize(f, x, agents)
        assert built["synth"] == before["synth"] + 1, (x.name, render(f))
        helpers.reference_synthesize(f, x, agents)
        several += built["reference"] - before["reference"] > 1
    # the per-level reference builds several oracles for most deep queries
    assert several >= 50


def test_synthesis_releases_its_models_without_cyclic_gc(monkeypatch):
    # The memo shared by a query's levels must not sit in a reference cycle:
    # every glued model, at every level, is freed when the query drops it.
    glued = []
    real = synth.realize

    def watched(bp, gamma, provider, logic):
        pointed = real(bp, gamma, provider, logic)
        glued.append(weakref.ref(pointed.model))
        return pointed

    monkeypatch.setattr(synth, "realize", watched)
    gc.disable()
    try:
        assert synthesize(parse("<0><1>p & <1>~<0>q & ~<0,1>p", 2), E, 2) is not None
        assert len(glued) > 2 and all(alive() is None for alive in glued)
    finally:
        gc.enable()
