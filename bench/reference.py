"""Reference semantics the benchmark checks replies against.

Written apart from ``cglogic`` on purpose: formulas are parsed into plain
tuples by a parser of the documented text grammar, satisfaction is evaluated
directly over the outcome table from the semantics of ``<C>``, and the frame
properties are checked by their definitions.  Nothing here calls
into the package under test, so a fault there cannot hide itself.

Formula tuples: ("top",), ("atom", name), ("not", f), ("and", f, g) and
("coal", coalition, f) with the coalition a frozenset of agent indices.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

TOP = ("top",)
BOT = ("not", TOP)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def disj(f, g):
    return neg(conj(neg(f), neg(g)))


def implies(f, g):
    return neg(conj(f, neg(g)))


def coal(members, f):
    return ("coal", frozenset(members), f)


def big_and(parts):
    """Left-folded conjunction, as the package prints it; empty is truth."""
    parts = list(parts)
    if not parts:
        return TOP
    result = parts[0]
    for part in parts[1:]:
        result = conj(result, part)
    return result


def render(f) -> str:
    """Print a formula in the text grammar, in the package's canonical form."""
    kind = f[0]
    if kind == "top":
        return "true"
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "false" if f[1] == TOP else "~" + render(f[1])
    if kind == "and":
        return f"({render(f[1])} & {render(f[2])})"
    return f"<{','.join(str(a) for a in sorted(f[1]))}> {render(f[2])}"


_TOKEN = re.compile(r"\s*(->|[~&|<>\[\](),*]|\d+|[A-Za-z_][A-Za-z0-9_]*)")


class FormulaSyntaxError(ValueError):
    pass


def parse(text: str, agents: int):
    """Parse the text grammar: ~ & | -> <C> [C] true false, atoms, parens."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(f"bad character at {pos} in {text!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        token = tokens[at[0]]
        if expected is not None and token != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {token!r} in {text!r}")
        at[0] += 1
        return token

    def formula():
        left = disjunction()
        if peek() == "->":
            take()
            return implies(left, formula())
        return left

    def disjunction():
        result = conjunction()
        while peek() == "|":
            take()
            result = disj(result, conjunction())
        return result

    def conjunction():
        result = unary()
        while peek() == "&":
            take()
            result = conj(result, unary())
        return result

    def coalition(closer):
        if peek() == closer:
            return frozenset()
        if peek() == "*":
            take()
            return frozenset(range(agents))
        members = {int(take())}
        while peek() == ",":
            take()
            members.add(int(take()))
        if max(members) >= agents:
            raise FormulaSyntaxError(f"agent out of range in {text!r}")
        return frozenset(members)

    def unary():
        token = take()
        if token == "~":
            return neg(unary())
        if token in ("<", "["):
            closer = ">" if token == "<" else "]"
            members = coalition(closer)
            take(closer)
            child = unary()
            return coal(members, child) if token == "<" else neg(coal(members, neg(child)))
        if token == "true":
            return TOP
        if token == "false":
            return BOT
        if token == "(":
            inner = formula()
            take(")")
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            return ("atom", token)
        raise FormulaSyntaxError(f"unexpected {token!r} in {text!r}")

    result = formula()
    take("")
    return result


@dataclass(frozen=True)
class RefModel:
    """A model as the file format states it: full outcome table, labels."""

    agents: int
    actions: tuple
    states: tuple
    labels: dict
    table: dict  # state -> full profile tuple -> frozenset of states
    pointed: str | None = None


def model_from_doc(doc: dict) -> RefModel:
    """Read the JSON model document, rejecting dangling names."""
    agents = int(doc["agents"])
    actions = tuple(doc["actions"])
    states = tuple(doc["states"])
    known = set(states)
    labels = {s: frozenset(doc.get("labels", {}).get(s, ())) for s in states}
    table: dict = {}
    for entry in doc.get("outcomes", []):
        state, profile, targets = entry["state"], tuple(entry["profile"]), frozenset(entry["to"])
        if state not in known or not targets <= known or len(profile) != agents:
            raise ValueError(f"malformed outcome entry {entry!r}")
        if not set(profile) <= set(actions):
            raise ValueError(f"unknown action in {entry!r}")
        if targets:
            table.setdefault(state, {})[profile] = targets
    pointed = doc.get("pointed")
    if pointed is not None and pointed not in known:
        raise ValueError(f"pointed state {pointed!r} not in model")
    return RefModel(agents, actions, states, labels, table, pointed)


def to_doc(model: RefModel) -> dict:
    """The file format, written without the package's writer."""
    doc = {
        "agents": model.agents,
        "actions": list(model.actions),
        "states": list(model.states),
        "atoms": sorted(set().union(*model.labels.values())),
        "labels": {s: sorted(model.labels[s]) for s in model.states},
        "outcomes": [
            {"state": s, "profile": list(p), "to": sorted(t)}
            for s in model.states
            for p, t in sorted(model.table.get(s, {}).items())
        ],
    }
    if model.pointed is not None:
        doc["pointed"] = model.pointed
    return doc


def _coalition_outcomes(model: RefModel, state, members) -> dict:
    """Joint action of the coalition -> union of the outcomes of the full
    profiles that extend it.  Profiles absent from the table have an empty
    outcome, so only the listed ones can contribute."""
    outcomes: dict = {}
    for profile, targets in model.table.get(state, {}).items():
        joint = tuple(profile[a] for a in members)
        outcomes.setdefault(joint, set()).update(targets)
    return outcomes


def available(model: RefModel, state, members) -> set:
    """Joint actions of the coalition (agent order) with a nonempty outcome."""
    return {ja for ja, out in _coalition_outcomes(model, state, members).items() if out}


def truth_set(model: RefModel, f) -> frozenset:
    """States where the formula holds: <C>phi holds at s iff some joint action
    of C has a nonempty outcome at s lying inside the truth set of phi."""
    memo: dict = {}
    everything = frozenset(model.states)

    def ev(node):
        key = id(node)
        if key in memo:
            return memo[key][1]
        kind = node[0]
        if kind == "top":
            result = everything
        elif kind == "atom":
            result = frozenset(s for s in model.states if node[1] in model.labels[s])
        elif kind == "not":
            result = everything - ev(node[1])
        elif kind == "and":
            result = ev(node[1]) & ev(node[2])
        else:
            good = ev(node[2])
            members = sorted(node[1])
            result = frozenset(
                s
                for s in model.states
                if any(
                    out and out <= good
                    for out in _coalition_outcomes(model, s, members).values()
                )
            )
        memo[key] = (node, result)
        return result

    return ev(f)


def holds(model: RefModel, state, f) -> bool:
    return state in truth_set(model, f)


def _coalitions(agents):
    return [
        tuple(c) for size in range(agents + 1) for c in itertools.combinations(range(agents), size)
    ]


def is_serial(model: RefModel) -> bool:
    """Every coalition has an available joint action at every state."""
    coalitions = _coalitions(model.agents)
    return all(available(model, s, c) for s in model.states for c in coalitions)


def is_independent(model: RefModel) -> bool:
    """At every state, available joint actions of disjoint coalitions merge
    into an available joint action of their union."""
    coalitions = _coalitions(model.agents)
    for state in model.states:
        avail = {c: available(model, state, c) for c in coalitions}
        for c, d in itertools.product(coalitions, repeat=2):
            if set(c) & set(d):
                continue
            union = tuple(sorted(c + d))
            for ja_c in avail[c]:
                for ja_d in avail[d]:
                    merged = dict(zip(c, ja_c)) | dict(zip(d, ja_d))
                    if tuple(merged[a] for a in union) not in avail[union]:
                        return False
    return True


def is_deterministic(model: RefModel) -> bool:
    """No full profile has more than one outcome state."""
    return all(len(t) <= 1 for row in model.table.values() for t in row.values())


PROPERTIES = {"S": ("serial", is_serial), "I": ("independent", is_independent),
              "D": ("deterministic", is_deterministic)}


def frame_properties(model: RefModel) -> dict:
    """Seriality, independence of agents and determinism, by their definitions."""
    return {name: check(model) for name, check in PROPERTIES.values()}


def fits(model: RefModel, logic_name: str) -> bool:
    """Whether the model has every frame property the logic assumes."""
    return all(PROPERTIES[letter][1](model) for letter in logic_name if letter in PROPERTIES)
