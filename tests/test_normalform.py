import random

import pytest

import helpers
from cglogic import ALL_LOGICS, normalform
from cglogic.logics import E
from cglogic.normalform import (
    ClauseCapError,
    StandardDisjunction,
    basic_positive_indices,
    sd_to_formula,
    to_standard_disjunctions,
)
from cglogic.syntax import (
    And,
    Atom,
    BOT,
    Coal,
    Iff,
    Implies,
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
AG2 = frozenset({0, 1})
EMPTY = frozenset()


def conjunction_of(clauses):
    return big_and([sd_to_formula(sd) for sd in clauses])


def test_diamond_ag_p():
    [sd] = to_standard_disjunctions(Coal(AG2, P), 2)
    assert sd.gamma == frozenset()
    assert sd.negatives == ()
    assert sd.positives == ((AG2, BOT), (AG2, P))
    # semantic oracle: the clause matches the source formula on random models
    for seed in range(40):
        m = helpers.random_x_model(E, seed, agents=2)
        assert helpers.equivalent_on(m, Coal(AG2, P), sd_to_formula(sd))


def test_negated_modality():
    [sd] = to_standard_disjunctions(Not(Coal({0}, Q)), 2)
    assert sd.gamma == frozenset()
    assert sd.negatives == ((EMPTY, TOP), (frozenset({0}), Q))
    assert sd.positives == ((AG2, BOT),)
    for seed in range(40):
        m = helpers.random_x_model(E, seed, agents=2)
        assert helpers.equivalent_on(m, Not(Coal({0}, Q)), sd_to_formula(sd))


def test_conjunction_splits():
    clauses = to_standard_disjunctions(And(P, Coal(AG2, Q)), 2)
    assert len(clauses) == 2
    first, second = clauses
    assert first.gamma == frozenset({(P, True)})
    assert first.positives == ((AG2, BOT),)
    assert second.gamma == frozenset()
    assert second.positives == ((AG2, BOT), (AG2, Q))
    for seed in range(40):
        m = helpers.random_x_model(E, seed, agents=2)
        assert helpers.equivalent_on(m, And(P, Coal(AG2, Q)), conjunction_of(clauses))


def test_depth_zero_rejected():
    with pytest.raises(ValueError, match="modal depth"):
        to_standard_disjunctions(And(P, Q), 2)


def test_clause_cap():
    blowup = " | ".join(f"(x{i} & y{i})" for i in range(18)) + " | <0>z"
    f = parse(blowup, 1)
    with pytest.raises(ClauseCapError):
        to_standard_disjunctions(f, 1)  # CLAUSE_CAP of 100000 < 2**18

    small = parse("(x0 & y0) | (x1 & y1) | (x2 & y2) | (x3 & y3) | <0>z", 1)
    with pytest.raises(ClauseCapError, match=r"^CNF distribution needs 16 clauses \(cap 10\)$"):
        normalform._cnf(small, 10)
    assert len(to_standard_disjunctions(small, 1)) == 2**4


def test_complementary_gamma_kept():
    clauses = to_standard_disjunctions(Or(Coal({0}, P), Or(P, Not(P))), 1)
    assert len(clauses) == 1
    gamma = clauses[0].gamma
    assert (P, True) in gamma and (P, False) in gamma


def test_truth_literal_keeps_depth_and_equivalence():
    f = Or(Coal({0}, Coal({0}, P)), TOP)  # depth 2 but equivalent to truth
    clauses = to_standard_disjunctions(f, 1)
    assert max(modal_depth(sd_to_formula(sd)) for sd in clauses) == 2
    for seed in range(25):
        m = helpers.random_x_model(E, seed, agents=1)
        assert helpers.equivalent_on(m, f, conjunction_of(clauses))


def test_sd_to_formula_reading():
    [sd] = to_standard_disjunctions(Coal(AG2, P), 2)
    expected = Or(BOT, Implies(TOP, Or(Coal(AG2, BOT), Coal(AG2, P))))
    assert sd_to_formula(sd) == expected

    sd2 = StandardDisjunction(
        2, frozenset({(P, True), (Q, False)}), (), ((AG2, BOT),)
    )
    expected2 = Or(Or(P, Not(Q)), Implies(TOP, Coal(AG2, BOT)))
    assert sd_to_formula(sd2) == expected2


def test_round_trip_on_models():
    [sd] = to_standard_disjunctions(Coal(AG2, P), 2)
    again = to_standard_disjunctions(sd_to_formula(sd), 2)
    for seed in range(25):
        m = helpers.random_x_model(E, seed, agents=2)
        assert helpers.equivalent_on(m, sd_to_formula(sd), conjunction_of(again))


def test_basic_positive_indices():
    sd = StandardDisjunction(2, frozenset(), (), ((AG2, BOT),))
    assert basic_positive_indices(sd) == {0}
    sd2 = StandardDisjunction(2, frozenset(), (), ((AG2, BOT), (AG2, P), (frozenset({1}), Q)))
    assert basic_positive_indices(sd2) == {0, 1}
    sd3 = StandardDisjunction(2, frozenset(), (), ((AG2, BOT), (EMPTY, P)))
    assert basic_positive_indices(sd3) == {0}


def test_invariant_enforcement():
    with pytest.raises(ValueError, match="index 0"):
        StandardDisjunction(2, frozenset(), (), ((AG2, P),))
    with pytest.raises(ValueError, match="index 0"):
        StandardDisjunction(2, frozenset(), (), ())
    with pytest.raises(ValueError, match="<>true"):
        StandardDisjunction(2, frozenset(), ((frozenset({0}), P),), ((AG2, BOT),))
    for bad in (P, ("p", True), (P, 1), (Not(P), True), (P, True, True)):
        with pytest.raises(ValueError, match="only propositional literals"):
            StandardDisjunction(2, frozenset({bad}), (), ((AG2, BOT),))
    with pytest.raises(ValueError, match="index 0"):
        StandardDisjunction(1, frozenset(), (), ((AG2, BOT),))
    with pytest.raises(ValueError, match="out of range"):
        StandardDisjunction(1, frozenset(), (), ((frozenset({0}), BOT), (AG2, P)))


def test_random_equivalence_and_depth():
    rng = random.Random(23)
    pools = {x: helpers.model_pool(x, 6, agents=2, max_states=4) for x in ALL_LOGICS}
    checked = 0
    while checked < 120:
        f = random_formula(rng, rng.randint(1, 3), 2, ("p", "q", "r"))
        if modal_depth(f) < 1:
            continue
        checked += 1
        clauses = to_standard_disjunctions(f, 2)
        assert max(modal_depth(sd_to_formula(sd)) for sd in clauses) == modal_depth(f), render(f)
        whole = conjunction_of(clauses)
        for x in ALL_LOGICS:
            for m in pools[x]:
                assert helpers.equivalent_on(m, f, whole), (x.name, render(f))


def _clauses_or_message(cnf, *args):
    try:
        return cnf(*args)
    except ClauseCapError as error:
        return str(error)


def _tagged_cnf(f, cap):
    return helpers.tagged(normalform._cnf(f, cap))


def _shared_formulas(rng, count):
    # Iff puts both sides under both polarities, and the variants nest one
    # shared subformula at several places, inside and outside <C>.
    for _ in range(count):
        f = random_formula(rng, rng.randint(1, 2), 2, ("p", "q", "r"))
        g = random_formula(rng, rng.randint(0, 2), 2, ("p", "q"))
        yield Iff(f, g)
        yield Iff(f, Coal({rng.randrange(2)}, Iff(g, f)))
        yield And(Iff(f, g), Or(g, Not(f)))
        yield Iff(Iff(f, g), Iff(g, f))


def _top_formulas(rng, count):
    # Truth and falsity literals beside modal ones: a clause holding a truth
    # literal gets <>true in both families.
    for _ in range(count):
        f = random_formula(rng, rng.randint(1, 2), 2, ("p", "q"))
        g = random_formula(rng, rng.randint(0, 2), 2, ("p",))
        c = frozenset({rng.randrange(2)})
        yield Or(Coal(c, f), TOP)
        yield Or(Coal(c, f), Or(g, BOT))
        yield And(Or(f, TOP), Or(Not(Coal(c, g)), Not(TOP)))
        yield Implies(And(TOP, Coal(c, g)), Or(f, Coal(c, TOP)))


def _reference_formulas():
    # The criterion-7 generator, Iff-shared formulas and formulas with truth
    # and falsity literals.
    rng = random.Random(505)
    formulas = []
    while len(formulas) < 500:
        f = random_formula(rng, rng.randint(1, 3), 2, ("p", "q"))
        if modal_depth(f) >= 1:
            formulas.append(f)
    formulas += _shared_formulas(random.Random(17), 150)
    formulas += _top_formulas(random.Random(29), 100)
    return formulas


def test_distribution_matches_recursive_reference():
    # The same clauses in the same order, and at small caps the same
    # ClauseCapError message.
    messages = 0
    for f in _reference_formulas():
        for cap in (3, 12, 100_000):
            got = _clauses_or_message(_tagged_cnf, f, cap)
            expected = _clauses_or_message(helpers.reference_cnf, helpers.reference_nnf(f), cap)
            assert got == expected, (render(f), cap)
            messages += isinstance(got, str)
    assert messages > 100


def test_clause_order_matches_string_tagged_reading():
    # Clause literals are skeleton leaves; the clauses, and the members of
    # each family, come out in the order of the string-tagged reading.
    saw_top = 0
    for f in filter(lambda f: modal_depth(f) >= 1, _reference_formulas()):
        expected = helpers.reference_standard_disjunctions(f, 2)
        assert to_standard_disjunctions(f, 2) == expected, render(f)
        saw_top += any((EMPTY, TOP) in sd.positives for sd in expected)
    assert saw_top > 100


def test_gamma_reads_as_name_keyed_literals():
    # gamma is a set of (Atom, polarity) pairs, iterated in hash order; its
    # reading sorts the literals by atom name, positive first, as the
    # name-keyed literals did.
    several = 0
    for f in filter(lambda f: modal_depth(f) >= 1, _reference_formulas()):
        for sd in to_standard_disjunctions(f, 2):
            expected = render(helpers.reference_sd_formula(sd))
            assert render(sd_to_formula(sd)) == expected, render(f)
            several += len(sd.gamma) >= 2
    assert several > 2000


def _fan(k):
    # <0>x0 & <1>x1 & <2>x2 & <0>x3 & ... -> <0,1,2>(x0 & ... & x{k-1})
    xs = [Atom(f"x{i}") for i in range(k)]
    return Implies(big_and(Coal({i % 3}, x) for i, x in enumerate(xs)), Coal({0, 1, 2}, big_and(xs)))


def test_built_clauses_equal_checked_clauses_in_render_order():
    # Clauses are built without the constructor's checks: each must equal
    # the clause the constructor makes from its fields, and each family,
    # apart from its pinned members, must list its <C> literals in the order
    # of their rendering.
    rng = random.Random(2209)
    cases = [(_fan(k), 3) for k in range(2, 12)]
    for agents in (1, 2, 3):
        while len(cases) < 10 + 300 * agents:
            f = random_formula(rng, rng.randint(1, 3), agents, ("p", "q", "r"), size=16)
            if modal_depth(f) >= 1:
                cases.append((f, agents))
    ordered = 0
    for f, agents in cases:
        pinned = {(frozenset(range(agents)), BOT), (EMPTY, TOP)}
        for sd in to_standard_disjunctions(f, agents):
            assert sd == StandardDisjunction(sd.agents, sd.gamma, sd.negatives, sd.positives)
            for family in (sd.negatives, sd.positives):
                texts = [render(Coal(c, g)) for c, g in family if (c, g) not in pinned]
                assert texts == sorted(texts), render(f)
                ordered += len(texts) >= 2
    assert ordered >= 30


def test_coalition_out_of_range_is_refused():
    # Only the families' coalitions are checked; one inside a <C> leaf is the
    # caller's to check, as decide.check_agents does.
    with pytest.raises(ValueError, match=r"coalition \[0, 2\] out of range for 2 agent\(s\)"):
        to_standard_disjunctions(Or(Coal({1}, P), Coal({0, 2}, Q)), 2)
    [sd] = to_standard_disjunctions(Coal({0}, Coal({2}, P)), 2)
    assert sd.positives[1] == (frozenset({0}), Coal({2}, P))
