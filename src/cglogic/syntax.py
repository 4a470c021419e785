"""Formula language: AST, text grammar, parser, printer and structural measures.

The AST has exactly five constructors (truth, atoms, negation, conjunction,
coalition modality).  Everything else -- falsity, disjunction, implication,
the dual box modality -- is sugar built from those five, so structural
equality is equality of desugared trees.

Nodes are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): every construction goes through one intern table, so
structurally equal formulas are the same object and ``==`` is identity.  The
table holds nodes weakly and forgets a node once nothing else refers to it.
A node is immutable and stores, from its construction, its hash (computed
from its children's stored hashes), its modal depth (``depth``) and its agent
bound (``agent_bound``: the largest agent index in any coalition, -1 when
none), so hashing, :func:`modal_depth` and :func:`max_agent` read a field.
:func:`render` keeps the text it printed on the node.  Copies and pickle
round trips return the interned node.
"""

from __future__ import annotations

import functools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref


class ParseError(ValueError):
    """Malformed formula text; ``position`` is a 0-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class; concrete nodes are Top, Atom, Not, And and Coal."""

    __slots__ = ("depth", "agent_bound", "_hash", "_text", "__weakref__")
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


_set_depth, _set_agent_bound, _set_hash, _set_text = _slot_writers(Formula)


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
# dead reference, like the entry of a dropped node.  Look-ups need no lock,
# because only complete nodes are entered; entering takes ``_LOCK``, which is
# reentrant because a finalizer that runs meanwhile may build formulas.
_TABLE: dict[tuple, _Entry] = {}
_MISSING = weakref.ref(_Gone())
_LOCK = threading.RLock()


def _node(cls, depth: int, agent_bound: int, hash_value: int):
    node = object.__new__(cls)
    _set_depth(node, depth)
    _set_agent_bound(node, agent_bound)
    _set_hash(node, hash_value)
    _set_text(node, None)
    return node


def _intern(key: tuple, node):
    """Enter the new node under key, or return the node another thread
    entered there first."""
    with _LOCK:
        found = _TABLE.get(key, _MISSING)()
        if found is not None:
            return found
        entry = _TABLE[key] = _Entry(node, _forget)
        entry.key = key
    return node


def _not_a_formula(*values) -> TypeError:
    bad = next(value for value in values if not isinstance(value, Formula))
    return TypeError(f"not a formula: {bad!r}")


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        key = ("Top",)
        return _TABLE.get(key, _MISSING)() or _intern(key, _node(cls, 0, -1, hash(key)))


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = ("Atom", name)
        node = _TABLE.get(key, _MISSING)()
        if node is None:
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
    """``<C> child``: some available joint action of coalition C ensures child."""

    __slots__ = ("coalition", "child")
    __match_args__ = ("coalition", "child")

    def __new__(cls, coalition, child: Formula):
        coalition = frozenset(coalition)
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


def atoms_of(f: Formula) -> frozenset[str]:
    match f:
        case Top():
            return frozenset()
        case Atom(name):
            return frozenset({name})
        case Not(child):
            return atoms_of(child)
        case And(left, right):
            return atoms_of(left) | atoms_of(right)
        case Coal(_, child):
            return atoms_of(child)
    raise TypeError(f"not a formula: {f!r}")


def max_agent(f: Formula) -> int:
    """Largest agent index mentioned in any coalition, or -1 when none."""
    return f.agent_bound


_KEYWORDS = {"true", "false"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<punct>[~&|<>\[\](),*])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        value = match.group()
        if kind != "ws":
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, agents: int):
        self.tokens = _tokenize(text)
        self.agents = agents
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value:
            shown = text if text else "end of input"
            raise ParseError(f"expected {value!r}, found {shown!r}", pos)
        return self.advance()

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[1] == "->":
            self.advance()
            right = self.formula()
            return Implies(left, right)
        return left

    def disjunction(self) -> Formula:
        result = self.conjunction()
        while self.peek()[1] == "|":
            self.advance()
            result = Or(result, self.conjunction())
        return result

    def conjunction(self) -> Formula:
        result = self.unary()
        while self.peek()[1] == "&":
            self.advance()
            result = And(result, self.unary())
        return result

    def unary(self) -> Formula:
        # A chain of prefixes (~, <C>, [C]) is read in a loop, so its length
        # is not bounded by the recursion limit.
        wraps = []
        while True:
            text = self.peek()[1]
            if text == "~":
                self.advance()
                wraps.append(Not)
            elif text in ("<", "["):
                self.advance()
                closer = ">" if text == "<" else "]"
                coalition = self.coalition(closer)
                self.expect(closer)
                wraps.append(functools.partial(Coal if text == "<" else Box, coalition))
            else:
                break
        result = self.primary()
        for wrap in reversed(wraps):
            result = wrap(result)
        return result

    def primary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "true":
            self.advance()
            return TOP
        if kind == "false":
            self.advance()
            return BOT
        if kind == "ident":
            self.advance()
            return Atom(text)
        if text == "(":
            self.advance()
            inner = self.formula()
            self.expect(")")
            return inner
        shown = text if text else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", pos)

    def coalition(self, closer: str) -> frozenset[int]:
        kind, text, pos = self.peek()
        if text == closer:
            return frozenset()
        if text == "*":
            self.advance()
            return frozenset(range(self.agents))
        members = [self.agent_index()]
        while self.peek()[1] == ",":
            self.advance()
            members.append(self.agent_index())
        return frozenset(members)

    def agent_index(self) -> int:
        kind, text, pos = self.peek()
        if kind != "num":
            shown = text if text else "end of input"
            raise ParseError(f"expected an agent index, found {shown!r}", pos)
        self.advance()
        value = int(text)
        if value >= self.agents:
            raise ParseError(f"agent index {value} out of range for {self.agents} agent(s)", pos)
        return value


def parse(text: str, agents: int) -> Formula:
    """Parse formula text over the given number of agents.

    ``[C] f`` desugars to ``~<C>~f``, ``false`` to ``~true`` and ``<*>`` to
    the full coalition.  Raises ParseError with a position on bad input or
    on an agent index that is out of range.
    """
    if agents < 1:
        raise ValueError("agents must be >= 1")
    parser = _Parser(text, agents)
    result = parser.formula()
    kind, trailing, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing!r}", pos)
    return result


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


def random_formula(rng, max_depth: int, agents: int, atoms=("p", "q"), size: int = 8) -> Formula:
    """Random formula with modal depth at most ``max_depth``.

    Deterministic in the state of ``rng``; ``size`` bounds the number of
    connectives so trees stay desk-sized.
    """
    budget = [size]

    def coalition() -> frozenset[int]:
        mask = rng.randrange(2 ** agents)
        return frozenset(i for i in range(agents) if mask >> i & 1)

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
            return Coal(coalition(), gen(depth - 1))
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
