"""Formula language: AST, text grammar, parser, printer and structural measures.

The AST has exactly five constructors (truth, atoms, negation, conjunction,
coalition modality).  Everything else -- falsity, disjunction, implication,
the dual box modality -- is sugar built from those five, so structural
equality is equality of desugared trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed formula text; ``position`` is a 0-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Formula:
    """Base class; concrete nodes are Top, Atom, Not, And and Coal."""


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Coal(Formula):
    """``<C> child``: some available joint action of coalition C ensures child."""

    coalition: frozenset[int]
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "coalition", frozenset(self.coalition))


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
    match f:
        case Top() | Atom():
            return 0
        case Not(child):
            return modal_depth(child)
        case And(left, right):
            return max(modal_depth(left), modal_depth(right))
        case Coal(_, child):
            return 1 + modal_depth(child)
    raise TypeError(f"not a formula: {f!r}")


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
    match f:
        case Top() | Atom():
            return -1
        case Not(child):
            return max_agent(child)
        case And(left, right):
            return max(max_agent(left), max_agent(right))
        case Coal(coalition, child):
            local = max(coalition) if coalition else -1
            return max(local, max_agent(child))
    raise TypeError(f"not a formula: {f!r}")


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
        kind, text, pos = self.peek()
        if text == "~":
            self.advance()
            return Not(self.unary())
        if text == "<":
            self.advance()
            coalition = self.coalition(">")
            self.expect(">")
            return Coal(coalition, self.unary())
        if text == "[":
            self.advance()
            coalition = self.coalition("]")
            self.expect("]")
            return Box(coalition, self.unary())
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
    """Print a formula so that ``parse(render(f), n)`` rebuilds f exactly."""
    match f:
        case Top():
            return "true"
        case Atom(name):
            return name
        case Not(child) if child == TOP:
            return "false"
        case Not(child):
            return "~" + render(child)
        case And(left, right):
            return f"({render(left)} & {render(right)})"
        case Coal(coalition, child):
            return f"<{_coalition_text(coalition)}> {render(child)}"
    raise TypeError(f"not a formula: {f!r}")


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
