"""Formula language: AST, text grammar, parser, printer and structural measures.

The AST has exactly five constructors (truth, atoms, negation, conjunction,
coalition modality).  Everything else -- falsity, disjunction, implication,
the dual box modality -- is sugar built from those five, so structural
equality is equality of desugared trees.

Nodes are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): every construction goes through one intern table, so
structurally equal formulas are the same object and ``==`` is identity.  The
table holds nodes weakly and forgets a node once nothing else refers to it.
It takes no lock: a new node is entered by one atomic ``setdefault`` of its
weak entry, so threads that build the same formula at once agree on one node.
A node is immutable and stores, from its construction, its hash (computed
from its children's stored hashes), its modal depth (``depth``) and its agent
bound (``agent_bound``: the largest agent index in any coalition, -1 when
none), so hashing, :func:`modal_depth` and :func:`max_agent` read a field.
:func:`render` keeps the text it printed on the node.  Copies and pickle
round trips return the interned node.

:func:`skeleton` compiles a formula's propositional skeleton, with atoms and
``<C>`` nodes as opaque leaves, into a straight-line program kept on the
node.  The truth table, the normal form, model checking and :func:`atoms_of`
all run it, and reach below a ``<C>`` leaf only by running its child's.

:func:`parse` reads the tokens of one ``finditer`` scan in one loop with an
explicit stack.  Binary connectives are a table of levels, reduced as in
shunting-yard, and each open parenthesis is a frame, so no nesting is
bounded by the recursion limit.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref

from .models import check_count


class ParseError(ValueError):
    """Malformed formula text; ``position`` is a 0-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class; concrete nodes are Top, Atom, Not, And and Coal."""

    __slots__ = ("depth", "agent_bound", "_hash", "_text", "_skeleton", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _slot_writers(cls) -> list:
    # Nodes refuse attribute assignment, so construction writes a slot
    # through its descriptor, which takes half the time of
    # object.__setattr__.
    return [cls.__dict__[name].__set__ for name in cls.__slots__ if name != "__weakref__"]


_set_depth, _set_agent_bound, _set_hash, _set_text, _set_skeleton = _slot_writers(Formula)


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    # Deletes the key only while its entry is dead, in one step, so a live
    # entry that replaced this one stays.
    _remove_dead_weakref(_TABLE, entry.key)


class _Gone:
    pass


# Intern table: key -> weak reference to the node.  A key is the
# constructor's name and fields, children by id; a child's id stays valid
# while the node holding it is alive, and the entry goes when that node
# does.  ``_TABLE.get(key, _MISSING)()`` is the node or None: _MISSING is a
# dead reference, like the entry of a dropped node.  There is no lock: only
# complete nodes are entered, and each entering is one atomic
# ``_TABLE.setdefault(key, entry)``, whose argument is the new node's entry,
# so threads that race on one key all get the node of the entry it returns.
_TABLE: dict[tuple, _Entry] = {}
_MISSING = weakref.ref(_Gone())


def _node(cls, depth: int, agent_bound: int, hash_value: int):
    node = object.__new__(cls)
    _set_depth(node, depth)
    _set_agent_bound(node, agent_bound)
    _set_hash(node, hash_value)
    _set_text(node, None)
    _set_skeleton(node, None)
    return node


def _intern(key: tuple, node):
    """Enter the new node under key, or return the node another thread
    entered there first."""
    entry = _Entry(node, _forget)
    entry.key = key
    while True:
        found = _TABLE.setdefault(key, entry)
        if found is entry:
            return node
        live = found()
        if live is not None:
            return live
        # A dead entry whose callback has not yet run: remove it, unless
        # another thread has already replaced it, and try again.
        _remove_dead_weakref(_TABLE, key)


def _not_a_formula(*values) -> TypeError:
    bad = next(value for value in values if not isinstance(value, Formula))
    return TypeError(f"not a formula: {bad!r}")


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        key = ("Top",)
        return _TABLE.get(key, _MISSING)() or _intern(key, _node(cls, 0, -1, hash(key)))


class Atom(Formula):
    """An atom; its name is an identifier of the text grammar other than a keyword."""

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = ("Atom", name)
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            # An ASCII identifier is exactly a match of the tokenizer's ident pattern.
            readable = isinstance(name, str) and name.isascii() and name.isidentifier()
            if not readable or name in _KEYWORDS:
                raise ValueError(f"atom name {name!r} is not an identifier")
            node = _node(cls, 0, -1, hash(key))
            _set_name(node, name)
            node = _intern(key, node)
        return node


class Not(Formula):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __new__(cls, child: Formula):
        key = ("Not", id(child))
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            try:
                node = _node(cls, child.depth, child.agent_bound, hash(("Not", child._hash)))
            except AttributeError:
                raise _not_a_formula(child) from None
            _set_not_child(node, child)
            node = _intern(key, node)
        return node


class And(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = ("And", id(left), id(right))
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            try:
                node = _node(
                    cls,
                    max(left.depth, right.depth),
                    max(left.agent_bound, right.agent_bound),
                    hash(("And", left._hash, right._hash)),
                )
            except AttributeError:
                raise _not_a_formula(left, right) from None
            _set_left(node, left)
            _set_right(node, right)
            node = _intern(key, node)
        return node


class Coal(Formula):
    """``<C> child``: some available joint action of coalition C ensures child.

    C is a set of agent numbers: ints (not bools) >= 0.  They are checked
    before the intern lookup, as ``frozenset({True}) == frozenset({1})``.
    """

    __slots__ = ("coalition", "child")
    __match_args__ = ("coalition", "child")

    def __new__(cls, coalition, child: Formula):
        coalition = frozenset(coalition)
        for member in coalition:
            if type(member) is not int or member < 0:
                raise ValueError(f"coalition member {member!r} is not an agent number")
        key = ("Coal", coalition, id(child))
        node = _TABLE.get(key, _MISSING)()
        if node is None:
            try:
                node = _node(
                    cls,
                    1 + child.depth,
                    max(max(coalition, default=-1), child.agent_bound),
                    hash(("Coal", coalition, child._hash)),
                )
            except AttributeError:
                raise _not_a_formula(child) from None
            _set_coalition(node, coalition)
            _set_coal_child(node, child)
            node = _intern(key, node)
        return node


(_set_name,) = _slot_writers(Atom)
(_set_not_child,) = _slot_writers(Not)
_set_left, _set_right = _slot_writers(And)
_set_coalition, _set_coal_child = _slot_writers(Coal)

TOP = Top()
BOT = Not(TOP)


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def Box(coalition, child: Formula) -> Formula:
    """``[C] child``: every available joint action of C enables child."""
    return Not(Coal(frozenset(coalition), Not(child)))


def big_and(parts) -> Formula:
    """Left-folded conjunction; empty input is truth."""
    parts = list(parts)
    if not parts:
        return TOP
    result = parts[0]
    for part in parts[1:]:
        result = And(result, part)
    return result


def big_or(parts) -> Formula:
    """Left-folded disjunction; empty input is falsity."""
    parts = list(parts)
    if not parts:
        return BOT
    result = parts[0]
    for part in parts[1:]:
        result = Or(result, part)
    return result


def modal_depth(f: Formula) -> int:
    return f.depth


def skeleton(f: Formula):
    """f's propositional skeleton as a straight-line program.

    Atoms and ``<C>`` nodes are opaque leaves, listed in order of first
    occurrence from the left.  Slot 0 holds truth, slots 1..L the leaves, and
    step k computes slot L+1+k: ``(a, -1)`` negates slot a, ``(a, b)`` is the
    conjunction of slots a and b.  Every distinct node gets one slot, children
    before parents.  Returns the leaves, the steps and f's slot, and keeps
    them on f.
    """
    kind = type(f)
    if kind is Atom or kind is Coal:
        return (f,), (), 1  # not kept: f would refer to itself
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    if f._skeleton is not None:
        return f._skeleton
    # slot: id -> slot number of TOP and each leaf, and, once numbered, of
    # each Not and And node, which the walk first marks with None.
    slot = {id(TOP): 0}
    leaves = []
    order = []  # distinct Not and And nodes, children before parents
    stack = [f]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is None:  # the node under the marker has its children done
            order.append(pop())
            continue
        key = id(node)
        if key in slot:
            continue
        kind = type(node)
        if kind is Not:
            slot[key] = None
            push((node, None, node.child))
        elif kind is And:
            slot[key] = None
            push((node, None, node.right, node.left))
        else:
            leaves.append(node)
            slot[key] = len(leaves)
    steps = []
    for number, node in enumerate(order, len(leaves) + 1):
        slot[id(node)] = number
        if type(node) is Not:
            steps.append((slot[id(node.child)], -1))
        else:
            steps.append((slot[id(node.left)], slot[id(node.right)]))
    program = (tuple(leaves), tuple(steps), slot[id(f)])
    _set_skeleton(f, program)
    return program


def atoms_of(f: Formula) -> frozenset[str]:
    names = set()
    stack = [f]
    while stack:
        for leaf in skeleton(stack.pop())[0]:
            if type(leaf) is Atom:
                names.add(leaf.name)
            else:
                stack.append(leaf.child)
    return frozenset(names)


def max_agent(f: Formula) -> int:
    """Largest agent index mentioned in any coalition, or -1 when none."""
    return f.agent_bound


_KEYWORDS = {"true", "false"}

# Leading white space is part of each match, and every other character
# starts one (``bad`` catches the rest), so the matches of one scan cover the
# text up to any trailing white space.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<arrow>->)
    | (?P<punct>[~&|<>\[\](),*])
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of text, then ``("eof", "", len)``.

    One ``finditer`` scan; white space separates tokens and is dropped.  The
    first character no token starts with raises ParseError at its position.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", match.start(kind))
        if kind == "ident" and value in _KEYWORDS:
            kind = value
        tokens.append((kind, value, match.end() - len(value)))
    tokens.append(("eof", "", len(text)))
    return tokens


# Binary connectives: token -> (level, reduces, build).  A higher level binds
# tighter.  The token after an operand first reduces the pending connectives
# whose level is at least ``reduces``: "|" and "&" reduce their own level and
# so group left, "->" leaves its own level pending and so groups right, and
# any other token, as (0, 1, None), reduces them all.
_CONNECTIVES = {"->": (1, 2, Implies), "|": (2, 2, Or), "&": (3, 3, And)}


def _coalition(tokens, i: int, opener: str, agents: int) -> tuple[frozenset[int], int]:
    """Read the coalition that follows ``opener`` ("<" or "[") from tokens[i];
    return it and the index after its closer."""
    closer = ">" if opener == "<" else "]"
    members = []
    if tokens[i][1] == "*":
        members = range(agents)
        i += 1
    elif tokens[i][1] != closer:
        while True:
            kind, value, pos = tokens[i]
            if kind != "num":
                raise ParseError(f"expected an agent index, found {value or 'end of input'!r}", pos)
            member = int(value)
            if member >= agents:
                raise ParseError(f"agent index {member} out of range for {agents} agent(s)", pos)
            members.append(member)
            i += 1
            if tokens[i][1] != ",":
                break
            i += 1
    kind, value, pos = tokens[i]
    if value != closer:
        raise ParseError(f"expected {closer!r}, found {value or 'end of input'!r}", pos)
    return frozenset(members), i + 1


def parse(text: str, agents: int) -> Formula:
    """Parse formula text over the given number of agents.

    ``[C] f`` desugars to ``~<C>~f``, ``false`` to ``~true`` and ``<*>`` to
    the full coalition.  Raises ParseError with a position on bad input or
    on an agent index that is out of range, ValueError when ``agents`` is not
    an int or is below 1, and ProfileCapError on too many agents.

    One loop reads the tokens.  An operand is a chain of prefixes (``~``,
    ``<C>``, ``[C]``) and then a constant, an atom or ``(``.  A prefix is
    kept as None for ``~`` and as its coalition for ``<C>``; ``[C]`` is kept
    as ``~<C>~``, the three prefixes it desugars to.  Each ``(`` pushes a
    frame of the prefixes waiting for it and the enclosing level's operands
    and pending connectives; its ``)`` pops the frame once the level is
    reduced.
    """
    check_count(agents, "agent")
    if agents < 1:
        raise ValueError("agents must be >= 1")
    tokens = _tokenize(text)
    frames = []  # (prefixes, operands, pending) of each enclosing level
    operands, pending = [], []
    i = 0
    while True:
        prefixes = []
        while True:
            kind, value, pos = tokens[i]
            i += 1
            if value == "~":
                prefixes.append(None)
            elif value == "<" or value == "[":
                coalition, i = _coalition(tokens, i, value, agents)
                prefixes += (coalition,) if value == "<" else (None, coalition, None)
            elif value == "(":
                frames.append((prefixes, operands, pending))
                prefixes, operands, pending = [], [], []
            else:
                break
        if kind == "ident":
            result = Atom(value)
        elif kind == "true":
            result = TOP
        elif kind == "false":
            result = BOT
        else:
            raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)
        while True:
            for coalition in reversed(prefixes):
                result = Not(result) if coalition is None else Coal(coalition, result)
            operands.append(result)
            kind, value, pos = tokens[i]
            i += 1
            level, bound, build = _CONNECTIVES.get(value, (0, 1, None))
            while pending and pending[-1][0] >= bound:
                _, join = pending.pop()
                right = operands.pop()
                operands[-1] = join(operands[-1], right)
            if build is not None:
                pending.append((level, build))
                break
            if value == ")" and frames:
                result = operands[0]
                prefixes, operands, pending = frames.pop()
            elif frames:
                raise ParseError(f"expected ')', found {value or 'end of input'!r}", pos)
            elif kind == "eof":
                return operands[0]
            else:
                raise ParseError(f"unexpected trailing input {value!r}", pos)


def _coalition_text(coalition: frozenset[int]) -> str:
    return ",".join(str(i) for i in sorted(coalition))


def render(f: Formula) -> str:
    """Print a formula so that ``parse(render(f), n)`` rebuilds f exactly.

    The text is kept on the node and reused wherever the node appears in a
    formula printed later.  Printing is iterative, so nesting depth is not
    bounded by the recursion limit.
    """
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    text = f._text
    if text is not None:
        return text
    pieces = []
    stack = [f]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            pieces.append(item)
        elif item._text is not None:
            pieces.append(item._text)
        elif kind is Not:
            if item.child is TOP:
                pieces.append("false")
            else:
                pieces.append("~")
                stack.append(item.child)
        elif kind is And:
            pieces.append("(")
            stack += (")", item.right, " & ", item.left)
        elif kind is Coal:
            pieces.append(f"<{_coalition_text(item.coalition)}> ")
            stack.append(item.child)
        elif kind is Atom:
            pieces.append(item.name)
        else:
            pieces.append("true")
    text = "".join(pieces)
    _set_text(f, text)
    return text


def random_coalition(rng, agents: int) -> frozenset[int]:
    """Coalition of ``agents`` agents drawn uniformly by one ``randrange``."""
    mask = rng.randrange(2 ** agents)
    return frozenset(i for i in range(agents) if mask >> i & 1)


def random_formula(rng, max_depth: int, agents: int, atoms=("p", "q"), size: int = 8) -> Formula:
    """Random formula with modal depth at most ``max_depth``.

    Deterministic in the state of ``rng``; ``size`` bounds the number of
    connectives so trees stay desk-sized.
    """
    budget = [size]

    def leaf() -> Formula:
        roll = rng.random()
        if roll < 0.8 and atoms:
            return Atom(rng.choice(atoms))
        if roll < 0.9:
            return TOP
        return BOT

    def gen(depth: int) -> Formula:
        budget[0] -= 1
        if budget[0] <= 0:
            return leaf()
        roll = rng.random()
        if depth > 0 and roll < 0.40:
            return Coal(random_coalition(rng, agents), gen(depth - 1))
        if roll < 0.55:
            return Not(gen(depth))
        if roll < 0.72:
            return And(gen(depth), gen(depth))
        if roll < 0.84:
            return Or(gen(depth), gen(depth))
        if roll < 0.92:
            return Implies(gen(depth), gen(depth))
        return leaf()

    return gen(max_depth)
