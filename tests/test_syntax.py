import copy
import gc
import pickle
import random
import sys
import threading

import pytest

import helpers
from cglogic import syntax
from cglogic.syntax import (
    And,
    Atom,
    BOT,
    Box,
    Coal,
    Implies,
    Not,
    Or,
    ParseError,
    TOP,
    Top,
    atoms_of,
    big_and,
    big_or,
    max_agent,
    modal_depth,
    parse,
    random_formula,
    render,
)

P, Q = Atom("p"), Atom("q")


def test_parse_examples():
    assert parse("p & ~q", 2) == And(P, Not(Q))
    assert parse("<1> p", 2) == Coal(frozenset({1}), P)
    assert parse("[ ] p", 2) == Not(Coal(frozenset(), Not(P)))


def test_parse_sugar():
    assert parse("false", 1) == BOT
    assert parse("true", 1) == TOP
    assert parse("p | q", 1) == Or(P, Q)
    assert parse("p -> q", 1) == Implies(P, Q)
    assert parse("<*> p", 3) == Coal(frozenset({0, 1, 2}), P)
    assert parse("[0,2] p", 3) == Box({0, 2}, P)


def test_precedence():
    assert parse("~p & q", 1) == And(Not(P), Q)
    assert parse("p | q & r", 1) == Or(P, And(Q, Atom("r")))
    assert parse("p -> q -> r", 1) == Implies(P, Implies(Q, Atom("r")))
    assert parse("p & q -> r", 1) == Implies(And(P, Q), Atom("r"))
    assert parse("<0>p & q", 1) == And(Coal({0}, P), Q)
    assert parse("<0>(p & q)", 1) == Coal({0}, And(P, Q))


@pytest.mark.parametrize(
    "text,position_hint",
    [
        ("p &", None),
        ("(p & q", None),
        ("p q", 2),
        ("<0,> p", None),
        ("?", 0),
        ("", 0),
        ("<0> ", None),
    ],
)
def test_parse_errors(text, position_hint):
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    if position_hint is not None:
        assert err.value.position == position_hint


def test_agent_range_error():
    with pytest.raises(ParseError, match="agent index 2 out of range"):
        parse("<2> p", 2)
    parse("<1> p", 2)  # in range is fine
    with pytest.raises(ValueError):
        parse("p", 0)


def test_render_examples():
    assert render(Coal({0, 1}, P)) == "<0,1> p"
    assert render(BOT) == "false"
    assert render(And(P, Q)) == "(p & q)"
    assert render(Coal(frozenset(), P)) == "<> p"
    assert render(Not(And(P, Not(Q)))) == "~(p & ~q)"


def test_modal_depth_examples():
    assert modal_depth(P) == 0
    assert modal_depth(Coal({1}, P)) == 1
    assert modal_depth(Coal(frozenset(), Implies(P, Coal({0, 1}, Q)))) == 2


def test_depth_laws():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, 2, 2)
        g = random_formula(rng, 2, 2)
        assert modal_depth(Not(f)) == modal_depth(f)
        assert modal_depth(And(f, g)) == max(modal_depth(f), modal_depth(g))


def test_round_trip_random():
    rng = random.Random(1)
    for _ in range(300):
        f = random_formula(rng, 3, 3, ("p", "q", "r"))
        assert parse(render(f), 3) is f


def test_round_trip_keyword_sugar():
    # ~true is printed as false and must come back structurally identical
    f = Not(Coal({0}, Not(TOP)))
    assert render(f) == "~<0> false"
    assert parse(render(f), 1) == f


def test_measures():
    f = parse("<1>(p & ~q) -> <0,2>r", 3)
    assert atoms_of(f) == {"p", "q", "r"}
    assert max_agent(f) == 2
    assert max_agent(P) == -1


def test_big_connectives():
    assert big_and([]) == TOP
    assert big_or([]) == BOT
    assert big_and([P]) == P
    assert big_and([P, Q, TOP]) == And(And(P, Q), TOP)
    assert big_or([P, Q]) == Or(P, Q)


def test_equal_constructions_are_one_node():
    built = Implies(Coal([1, 0], And(P, Not(Q))), Box({1}, Atom("r")))
    parsed = parse("<0,1>(p & ~q) -> [1] r", 2)
    assert built is parsed and hash(built) == hash(parsed)
    rng_a, rng_b = random.Random(9), random.Random(9)
    for _ in range(100):
        f, g = random_formula(rng_a, 3, 3), random_formula(rng_b, 3, 3)
        assert f is g and hash(f) == hash(g)
    assert Top() is TOP and Not(Top()) is BOT
    assert And(P, Q) is not And(Q, P)


def test_copies_and_pickles_return_the_node():
    rng = random.Random(4)
    for f in [TOP, BOT, P] + [random_formula(rng, 3, 3) for _ in range(50)]:
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert repr(Coal({0}, P)) == "Coal(coalition=frozenset({0}), child=Atom(name='p'))"


def test_nodes_are_immutable():
    f = Coal({0}, Not(P))
    for name in ("child", "coalition", "depth", "agent_bound", "fresh"):
        with pytest.raises(AttributeError):
            setattr(f, name, P)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.child is Not(P) and modal_depth(f) == 1
    with pytest.raises(TypeError, match="not a formula"):
        Not("p")


def test_intern_table_lets_dropped_nodes_go():
    gc.collect()
    before = len(syntax._TABLE)
    built = [And(Atom(f"x{i}"), Coal({i % 3}, Atom(f"y{i}"))) for i in range(100_000)]
    assert len(syntax._TABLE) >= before + 100_000
    del built
    gc.collect()
    assert len(syntax._TABLE) == before


def test_stored_measures_match_recursive_reference():
    rng = random.Random(12)
    for _ in range(500):
        f = random_formula(rng, 4, 4, ("p", "q", "r"), size=16)
        assert modal_depth(f) == helpers.reference_modal_depth(f)
        assert max_agent(f) == helpers.reference_max_agent(f)


def test_threads_building_the_same_formulas_share_nodes():
    # More threads than cores build the same formulas with a short switch
    # interval; a lost race would leave two nodes for one structure.
    def build(slot):
        rng = random.Random(3)
        results[slot] = [random_formula(rng, 3, 3, ("p", "q", "r"), size=16) for _ in range(1500)]

    results = [None] * 6
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    for other in results[1:]:
        assert all(f is g for f, g in zip(results[0], other))
