import collections
import copy
import gc
import pickle
import random
import re
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
    skeleton,
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


# Token pieces for random parser input: connectives, prefixes, malformed
# coalitions, unbalanced parentheses, an out-of-range agent (of 2), white
# space other than a blank (NBSP is white space to the tokenizer) and stray
# characters; pieces joined without spaces may fuse ("-" ">" is "->").
_PIECES = (
    "p", "q", "x1", "true", "false", "~", "&", "|", "->", "-", "(", ")", "<", ">",
    "[", "]", ",", "*", "0", "1", "2", "<0>", "[1]", "<*>", "?", " ",
    "\t", "\n", "\u00a0", "\u00e9", "\x00",
)


def _infix(rng, depth):
    """Random infix text that chains "&", "|" and "->" without parentheses
    and parenthesizes some operands."""
    parts = []
    for k in range(rng.randint(1, 4)):
        if k:
            parts.append(rng.choice(("&", "|", "->")))
        if depth and rng.random() < 0.3:
            parts.append("(" + _infix(rng, depth - 1) + ")")
        else:
            parts.append(rng.choice(("p", "q", "~p", "<0>q", "[1]~p", "<*>(p)", "true", "false")))
    return " ".join(parts)


def _parsed(parser, text, *agents):
    try:
        return parser(text, *agents)
    except ParseError as error:
        return str(error), error.position


def test_parse_matches_recursive_reference():
    # The loop against the recursive-descent parser it replaced, and the
    # one-scan tokenizer against the per-position one: the same interned
    # node and tokens, or the same error text and position.  A third of the
    # inputs are random piece strings; the others are rendered random
    # formulas or random infix chains, with up to two pieces deleted,
    # inserted or replaced.
    rng = random.Random(14)
    kinds = collections.Counter()
    for n in range(21_000):
        if n % 3 == 0:
            pieces = [rng.choice(_PIECES) for _ in range(rng.randint(0, 12))]
        else:
            text = render(random_formula(rng, 2, 2, ("p", "q"))) if n % 3 == 1 else _infix(rng, 2)
            pieces = re.findall(r"->|\w+|\S", text)
            for _ in range(rng.randint(0, 2)):
                at = rng.randrange(len(pieces) + 1)
                pieces[at : at + rng.randint(0, 1)] = rng.sample(_PIECES, rng.randint(0, 1))
        text = rng.choice(("", " ")).join(pieces)
        assert _parsed(syntax._tokenize, text) == _parsed(helpers.reference_tokenize, text), text
        got, expected = _parsed(parse, text, 2), _parsed(helpers.reference_parse, text, 2)
        if type(expected) is tuple:
            assert got == expected, text
            kind = re.match(r"unexpected \w+|expected (a formula|an agent index|'.')|agent index", got[0])
            kinds[kind.group()] += 1
        else:
            assert got is expected, text
            kinds["formula"] += 1
    assert set(kinds) == {
        "formula",
        "unexpected character",
        "unexpected trailing",
        "expected a formula",
        "expected an agent index",
        "agent index",
        "expected ')'",
        "expected '>'",
        "expected ']'",
    }, kinds
    assert min(kinds.values()) >= 20, kinds


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


@pytest.mark.parametrize("coalition", [{-1}, {True}, {"a"}, {1.0}, {0, -2}], ids=repr)
def test_coalition_members_must_be_agent_numbers(coalition):
    # Agent -1 would index the last agent, and {True} would find the {1} node.
    with pytest.raises(ValueError, match="not an agent number"):
        Coal(coalition, P)
    assert Coal(frozenset(), P).coalition == frozenset()
    assert Coal({1}, P).coalition == frozenset({1})


@pytest.mark.parametrize("name", [5, "true", "false", "p q", "", "1p", "p-q", "p\n", None], ids=repr)
def test_atom_names_must_read_back(name):
    # render(f) must parse back to f: Atom("true") printed as the constant.
    with pytest.raises(ValueError, match="not an identifier"):
        Atom(name)
    assert parse(render(Atom("_p1")), 1) is Atom("_p1")


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


def test_a_dead_entry_is_replaced_by_the_new_node():
    # A dead entry still in the table, as when a node has died but its
    # callback has not yet run, is removed and replaced by the node built
    # under its key; the new entry goes again when that node dies.
    left, right = Atom("dead_left"), Atom("dead_right")
    key = ("And", id(left), id(right))
    assert key not in syntax._TABLE
    referent = syntax._Gone()
    syntax._TABLE[key] = entry = syntax._Entry(referent)
    entry.key = key
    del referent
    assert entry() is None
    f = And(left, right)
    assert type(f) is And and f.left is left and f.right is right
    assert syntax._TABLE[key]() is f
    assert And(left, right) is f
    del f
    gc.collect()
    assert key not in syntax._TABLE


def test_stored_measures_match_recursive_reference():
    rng = random.Random(12)
    for _ in range(500):
        f = random_formula(rng, 4, 4, ("p", "q", "r"), size=16)
        assert modal_depth(f) == helpers.reference_modal_depth(f)
        assert max_agent(f) == helpers.reference_max_agent(f)


def test_atoms_match_recursive_reference_and_skeleton_is_kept():
    rng = random.Random(13)
    for _ in range(500):
        f = random_formula(rng, 4, 4, ("p", "q", "r", "s"), size=16)
        assert atoms_of(f) == helpers.reference_atoms_of(f)
        # An atom or <C> root is its own only leaf; its program is built on
        # each call, because keeping it on the node would make a cycle.
        if isinstance(f, (Atom, Coal)):
            assert skeleton(f) == ((f,), (), 1)
        else:
            assert skeleton(f) is skeleton(f)


def test_skeleton_program():
    f = parse("(p & <0> q) & ~(p & <0> q)", 1)
    leaves, steps, root = skeleton(f)
    assert leaves == (P, Coal({0}, Q))
    assert steps == ((1, 2), (3, -1), (3, 4))
    assert root == 5
    assert skeleton(TOP) == ((), (), 0)
    assert skeleton(BOT) == ((), ((0, -1),), 1)
    assert skeleton(P) == ((P,), (), 1)
    with pytest.raises(TypeError, match="not a formula"):
        skeleton("p")


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
