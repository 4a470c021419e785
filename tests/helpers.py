"""Shared test fixtures: small hand-built models, random-model pools, the
exhaustive small-model enumeration used as a brute-force satisfiability oracle,
the exhaustive frame-property checkers that the characterisations in
``cglogic.models`` are tested against, and the string-form evaluator and frame
checks that the mask-based ones in ``cglogic.mcheck`` and ``cglogic.models``
are tested against, the per-position tokenizer and the recursive-descent
parser that ``cglogic.syntax``'s one-scan tokenizer and ``parse``'s loop
are tested against, the recursive structural
measures that the fields stored on interned formula nodes are tested
against, and the recursive negation and conjunctive normal forms that the
skeleton-program distribution of ``cglogic.normalform`` is tested against,
the string-tagged clause reading whose clause and family order
``cglogic.normalform.to_standard_disjunctions`` is held to, the name-keyed
gamma reading that ``cglogic.normalform.sd_to_formula`` is held to, the
model-file document that ``cglogic.models.save_model``'s bytes are tested
against, and
the renaming glue that ``cglogic.synth.realize``'s gluing by state offset
is tested against, the search over every neat index set that
``cglogic.decide.reduction_witness``'s maximal neat sets are tested
against, the name-based blueprint that
``cglogic.synth.build_blueprint``'s enumeration over base-action numbers is
tested against, and the per-level synthesis that
``cglogic.synth.synthesize``, with one oracle and one memo per query, is
tested against."""

from __future__ import annotations

import functools
import itertools
import random
import re
from typing import NamedTuple

from cglogic import (
    ALL_LOGICS,
    Blueprint,
    Model,
    RandomModelConfig,
    available_actions,
    coalitions,
    frame_properties,
    random_model,
    sat_states,
)
from cglogic import decide, synth
from cglogic.mcheck import satisfies
from cglogic.models import Violation, independence_witness
from cglogic.normalform import (
    CLAUSE_CAP,
    ClauseCapError,
    StandardDisjunction,
    basic_positive_indices,
    to_standard_disjunctions,
)
from cglogic.synth import ROOT_STATE, RealizationError
from cglogic.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Box,
    Coal,
    Implies,
    Not,
    Or,
    ParseError,
    Top,
    big_and,
    big_or,
    modal_depth,
    render,
)


def loop_model(agents=1, actions=("a",), labels=("p",), atoms=("p", "q")):
    """One state, every profile loops back to it; an SID-model."""
    table = {
        "s0": {profile: frozenset({"s0"}) for profile in itertools.product(actions, repeat=agents)}
    }
    return Model(agents, tuple(actions), ("s0",), table, {"s0": frozenset(labels)}, tuple(atoms))


def empty_table_model(agents=1, actions=("a",), states=("s0",), atoms=("p",)):
    """No profile has any outcome anywhere."""
    return Model(agents, tuple(actions), tuple(states), {}, {}, tuple(atoms))


def two_agent_fork():
    """outcomes at s: (x,x) -> {t}, (x,y) -> {u}; t and u loop."""
    table = {
        "s": {("x", "x"): frozenset({"t"}), ("x", "y"): frozenset({"u"})},
        "t": {(a, b): frozenset({"t"}) for a in ("x", "y") for b in ("x", "y")},
        "u": {(a, b): frozenset({"u"}) for a in ("x", "y") for b in ("x", "y")},
    }
    labels = {"s": frozenset(), "t": frozenset({"p"}), "u": frozenset()}
    return Model(2, ("x", "y"), ("s", "t", "u"), table, labels, ("p",))


def branching_profile_model():
    """One available profile at s with the two-state outcome {t, u}; p only at t."""
    table = {
        "s": {("x", "x"): frozenset({"t", "u"})},
        "t": {(a, b): frozenset({"t"}) for a in ("x", "y") for b in ("x", "y")},
        "u": {(a, b): frozenset({"u"}) for a in ("x", "y") for b in ("x", "y")},
    }
    labels = {"s": frozenset(), "t": frozenset({"p"}), "u": frozenset()}
    return Model(2, ("x", "y"), ("s", "t", "u"), table, labels, ("p",))


def random_x_model(x, seed, max_states=6, max_actions=3, max_agents=3, agents=None, atoms=("p", "q")):
    """Seeded random model of the given logic with randomized desk-scale sizes;
    pass ``agents`` to pin the agent count instead of randomizing it."""
    rng = random.Random((seed + 1) * 7919)
    cfg = RandomModelConfig(
        num_states=rng.randint(1, max_states),
        num_actions=rng.randint(1, max_actions),
        agents=agents if agents is not None else rng.randint(1, max_agents),
        branching=2,
    )
    return random_model(cfg, x, seed, atoms=atoms)


def model_pool(x, count, seed_base=0, **kwargs):
    return [random_x_model(x, seed_base + i, **kwargs) for i in range(count)]


def equivalent_on(model, f, g) -> bool:
    return sat_states(model, f) == sat_states(model, g)


def props_allow(props, logic) -> bool:
    return (
        (not logic.has_S or props.serial)
        and (not logic.has_I or props.independent)
        and (not logic.has_D or props.deterministic)
    )


def enumerate_small_models(max_states=2, max_actions=2, atoms=("p", "q")):
    """Every 1-agent model with at most the given numbers of states and actions,
    paired with its frame properties.  Sizes stay exhaustive-search friendly:
    2 states x 2 actions gives 4096 outcome-table/labeling combinations."""
    pool = []
    atom_subsets = [frozenset(c) for size in range(len(atoms) + 1) for c in itertools.combinations(atoms, size)]
    for n_states in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n_states))
        target_subsets = [
            frozenset(c)
            for size in range(n_states + 1)
            for c in itertools.combinations(states, size)
        ]
        for n_actions in range(1, max_actions + 1):
            actions = tuple(f"a{i}" for i in range(n_actions))
            cells = [(s, (a,)) for s in states for a in actions]
            for assignment in itertools.product(target_subsets, repeat=len(cells)):
                outcomes: dict = {}
                for (state, profile), targets in zip(cells, assignment):
                    if targets:
                        outcomes.setdefault(state, {})[profile] = targets
                for labeling in itertools.product(atom_subsets, repeat=n_states):
                    model = Model(1, actions, states, outcomes, dict(zip(states, labeling)), atoms)
                    pool.append((model, frame_properties(model)))
    return pool


def brute_force_satisfiable(pool, f, logic) -> bool:
    """True iff some enumerated model of the logic satisfies f at some state."""
    return any(
        props_allow(props, logic) and sat_states(model, f)
        for model, props in pool
    )


def coalition_table(table, members) -> dict[tuple[str, ...], set]:
    """Each available joint action of a coalition, with the union of its entries,
    in the string form the oracles below use.

    ``table`` maps listed full profiles to nonempty sets, like a state's
    ``Model.entries`` or a blueprint's listing; ``members`` is the
    coalition in agent order.  A full profile extends a joint action exactly
    when its projection onto the members is that joint action, so grouping
    the listed profiles by projection gives every joint action with a
    nonempty union over its extensions, and only those.
    """
    grouped: dict[tuple[str, ...], set] = {}
    for profile, entries in table.items():
        grouped.setdefault(tuple(profile[a] for a in members), set()).update(entries)
    return grouped


def merge(c, ja_c, d, ja_d):
    """Joint action of the disjoint union c | d that plays ja_c on c and ja_d on d."""
    actions = dict(zip(sorted(c), ja_c)) | dict(zip(sorted(d), ja_d))
    return tuple(actions[a] for a in sorted(c | d))


def restrict(c, ja, sub):
    """Restriction to sub (a subset of c) of the joint action ja of c."""
    actions = dict(zip(sorted(c), ja))
    return tuple(actions[a] for a in sorted(sub))


def exhaustive_serial_violation(m):
    """Seriality by definition: every coalition has an available joint action
    at every state.  First failure in state, then coalition order."""
    for state in m.states:
        for coalition in coalitions(m.agents):
            if not available_actions(m, state, coalition):
                return Violation("serial", state, (coalition,), ())
    return None


def exhaustive_independent_violation(m):
    """Independence by definition: for all disjoint coalitions C, D, every
    available joint action of C merges with every available one of D into an
    available joint action of C | D.  Tries all pairs, 4^n coalition pairs
    times the joint actions squared per state."""
    coalition_list = list(coalitions(m.agents))
    for state in m.states:
        avail = {c: available_actions(m, state, c) for c in coalition_list}
        for c in coalition_list:
            for d in coalition_list:
                if c & d:
                    continue
                for ja_c in sorted(avail[c]):
                    for ja_d in sorted(avail[d]):
                        if merge(c, ja_c, d, ja_d) not in avail[c | d]:
                            return Violation("independent", state, (c, d), (ja_c, ja_d))
    return None


def exhaustive_blueprint_frames(bp, logic) -> bool:
    """The frame half of ``check_regular`` by definition, over all coalitions
    and all pairs of performable joint actions."""
    coalition_list = list(coalitions(bp.agents))
    pja = {c: set(coalition_table(bp.listing, sorted(c))) for c in coalition_list}
    if logic.has_S and not all(pja.values()):
        return False
    if logic.has_I:
        for c in coalition_list:
            for d in coalition_list:
                if c & d:
                    continue
                for ja_c in pja[c]:
                    for ja_d in pja[d]:
                        if merge(c, ja_c, d, ja_d) not in pja[c | d]:
                            return False
    if logic.has_D and any(len(formulas) != 1 for formulas in bp.listing.values()):
        return False
    return True


def _perturb(rng, listing, pool, fresh):
    """Empty the listing, drop a profile or add one, each with some chance;
    the result is often not a product of per-agent action sets."""
    roll = rng.random()
    if roll < 0.15:
        listing.clear()
    elif roll < 0.5 and listing:
        del listing[rng.choice(sorted(listing))]
    elif roll < 0.75:
        listing[rng.choice(pool)] = fresh()


class Parts(NamedTuple):
    """A model as its constructor takes it, read by the string-form oracle
    without going through the model's index form."""

    agents: int
    actions: tuple
    states: tuple
    outcomes: dict
    labels: dict
    atoms: tuple


def perturbed_parts(seed) -> Parts:
    """Seeded random model (1-3 agents) of a random logic, perturbed state by
    state with :func:`_perturb`, so states without listed profiles and
    listings that are not products both occur."""
    rng = random.Random(seed)
    m = random_x_model(rng.choice(ALL_LOGICS), seed, max_states=4)
    pool = list(itertools.product(m.actions, repeat=m.agents))
    outcomes = {state: dict(m.entries(state)) for state in m.states}
    for listing in outcomes.values():
        _perturb(rng, listing, pool, lambda: frozenset({rng.choice(m.states)}))
    return Parts(m.agents, m.actions, m.states, outcomes, m.labels, m.atoms)


def perturbed_model(seed):
    """The model of :func:`perturbed_parts`."""
    return Model(*perturbed_parts(seed))


def _string_entries(parts: Parts, state):
    """Listed profiles at a state, straight from the outcome table."""
    return {
        tuple(profile): frozenset(targets)
        for profile, targets in parts.outcomes.get(state, {}).items()
        if targets
    }


def oracle_sat_states(parts: Parts, f) -> frozenset:
    """Truth set by the string-form evaluator: recursive over the formula,
    with sets of state names, building each state's coalition table at
    every ``<C>`` node."""
    everything = frozenset(parts.states)
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        match node:
            case Top():
                result = everything
            case Atom(name):
                result = frozenset(s for s in parts.states if name in parts.labels.get(s, ()))
            case Not(child):
                result = everything - ev(child)
            case And(left, right):
                result = ev(left) & ev(right)
            case Coal(coalition, child):
                good = ev(child)
                members = sorted(coalition)
                result = frozenset(
                    s
                    for s in parts.states
                    if any(
                        targets <= good
                        for targets in coalition_table(_string_entries(parts, s), members).values()
                    )
                )
            case _:
                raise TypeError(f"not a formula: {node!r}")
        memo[id(node)] = result
        return result

    return ev(f)


def oracle_violations(parts: Parts) -> dict:
    """First violation of each frame property, or None, by the string-form
    characterisations: S fails at the first state without a listed profile;
    I at the first state whose profiles are not a product; D at the first
    state with a profile of several outcomes, the least such profile."""
    found = {"serial": None, "independent": None, "deterministic": None}
    full = frozenset(range(parts.agents))
    for state in reversed(parts.states):
        entries = _string_entries(parts, state)
        if not entries:
            found["serial"] = Violation("serial", state, (frozenset(),), ())
        witness = independence_witness(entries)
        if witness is not None:
            found["independent"] = Violation("independent", state, *witness)
        forked = sorted(p for p, targets in entries.items() if len(targets) > 1)
        if forked:
            found["deterministic"] = Violation("deterministic", state, (full,), (forked[0],))
    return found


def perturbed_blueprint(seed, formulas):
    """Seeded blueprint (1-3 agents, 1-3 base actions) listing a random subset
    of profiles, a product or not, each with one or two of ``formulas``."""
    rng = random.Random(seed)
    agents = rng.randint(1, 3)
    base = tuple(f"n{i}" for i in range(rng.randint(1, 3)))
    enabled = [rng.sample(base, rng.randint(1, len(base))) for _ in range(agents)]

    def pick():
        return frozenset(rng.sample(formulas, rng.randint(1, 2)))

    listing = {profile: pick() for profile in itertools.product(*enabled)}
    pool = list(itertools.product(base, repeat=agents))
    for _ in range(rng.randint(0, 2)):
        _perturb(rng, listing, pool, pick)
    return Blueprint(agents, base, listing)


ALL = ALL_LOGICS


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<punct>[~&|<>\[\](),*])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """One ``match`` per position, white space as its own token kind: the
    tokenizer that ``syntax._tokenize``'s one scan replaced, with the same
    tokens, error texts and positions."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        value = match.group()
        if kind != "ws":
            if kind == "ident" and value in ("true", "false"):
                kind = value
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str, agents: int):
        self.tokens = reference_tokenize(text)
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


def reference_parse(text: str, agents: int):
    """Recursive-descent parse, one method per grammar level and one call
    level per parenthesis pair: the parser that ``syntax.parse``'s single
    loop replaced, with the same nodes, error texts and positions."""
    parser = _ReferenceParser(text, agents)
    result = parser.formula()
    kind, trailing, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing!r}", pos)
    return result


def reference_modal_depth(f) -> int:
    """Modal depth by recursion over the tree."""
    match f:
        case Top() | Atom():
            return 0
        case Not(child):
            return reference_modal_depth(child)
        case And(left, right):
            return max(reference_modal_depth(left), reference_modal_depth(right))
        case Coal(_, child):
            return 1 + reference_modal_depth(child)
    raise TypeError(f"not a formula: {f!r}")


def reference_max_agent(f) -> int:
    """Largest agent index in any coalition by recursion, -1 when none."""
    match f:
        case Top() | Atom():
            return -1
        case Not(child):
            return reference_max_agent(child)
        case And(left, right):
            return max(reference_max_agent(left), reference_max_agent(right))
        case Coal(coalition, child):
            return max(max(coalition, default=-1), reference_max_agent(child))
    raise TypeError(f"not a formula: {f!r}")


def reference_atoms_of(f) -> frozenset:
    """Atom names by recursion over the tree."""
    match f:
        case Top():
            return frozenset()
        case Atom(name):
            return frozenset({name})
        case Not(child) | Coal(_, child):
            return reference_atoms_of(child)
        case And(left, right):
            return reference_atoms_of(left) | reference_atoms_of(right)
    raise TypeError(f"not a formula: {f!r}")


def reference_nnf(f, positive=True):
    """Negation normal form of the propositional skeleton as a tuple tree:
    ``("lit", literal)``, ``("and", l, r)`` or ``("or", l, r)``, with the
    string-tagged literals ``("top", pol)``, ``("atom", name, pol)`` and
    ``("modal", <C> node, pol)``; :func:`tagged` maps the (leaf, polarity)
    literals of ``cglogic.normalform`` to them."""
    match f:
        case Top():
            return ("lit", ("top", positive))
        case Atom(name):
            return ("lit", ("atom", name, positive))
        case Coal():
            return ("lit", ("modal", f, positive))
        case Not(child):
            return reference_nnf(child, not positive)
        case And(left, right):
            kind = "and" if positive else "or"
            return (kind, reference_nnf(left, positive), reference_nnf(right, positive))
    raise TypeError(f"not a formula: {f!r}")


def reference_cnf(node, cap):
    """CNF clauses of a :func:`reference_nnf` tree by recursive distribution,
    duplicates dropped at every node, raising ``ClauseCapError`` past the cap."""
    if node[0] == "lit":
        return [frozenset([node[1]])]
    left = reference_cnf(node[1], cap)
    right = reference_cnf(node[2], cap)
    if node[0] == "and":
        clauses = left + right
    else:
        if len(left) * len(right) > cap:
            raise ClauseCapError(f"CNF distribution needs {len(left) * len(right)} clauses (cap {cap})")
        clauses = [c | d for c in left for d in right]
    clauses = list(dict.fromkeys(clauses))
    if len(clauses) > cap:
        raise ClauseCapError(f"CNF has {len(clauses)} clauses (cap {cap})")
    return clauses


def tagged(clauses) -> list:
    """Clauses of (leaf, polarity) literals, as ``cglogic.normalform._cnf``
    returns them, with :func:`reference_nnf`'s string-tagged literals."""

    def tag(lit):
        leaf, positive = lit
        if leaf is TOP:
            return ("top", positive)
        if type(leaf) is Atom:
            return ("atom", leaf.name, positive)
        return ("modal", leaf, positive)

    return [frozenset(map(tag, clause)) for clause in clauses]


_EMPTY_TOP = (frozenset(), TOP)


def _lit_key(lit):
    if lit[0] == "atom":
        return (0, lit[1], not lit[2])
    if lit[0] == "modal":
        return (1, render(lit[1]), not lit[2])
    return (2, "", not lit[1])


def reference_clause_to_sd(clause, agents):
    """The standard disjunction of a clause of string-tagged literals, its
    literals sorted by kind (atoms by name, ``<C>`` nodes by rendering, truth
    last) and each family's duplicates dropped."""
    ag = frozenset(range(agents))
    gamma = set()
    neg_family = []
    pos_family = []
    saw_top = False
    for lit in sorted(clause, key=_lit_key):
        if lit[0] == "top":
            saw_top = saw_top or lit[1]
        elif lit[0] == "atom":
            gamma.add((Atom(lit[1]), lit[2]))
        else:
            part = (lit[1].coalition, lit[1].child)
            (pos_family if lit[2] else neg_family).append(part)
    if saw_top:
        neg_family.insert(0, _EMPTY_TOP)
        pos_family.insert(0, _EMPTY_TOP)
    positives = [(ag, BOT)] + [p for p in dict.fromkeys(pos_family) if p != (ag, BOT)]
    negatives = []
    if neg_family:
        negatives = [_EMPTY_TOP] + [n for n in dict.fromkeys(neg_family) if n != _EMPTY_TOP]
    return StandardDisjunction(agents, frozenset(gamma), tuple(negatives), tuple(positives))


def reference_standard_disjunctions(f, agents):
    """``to_standard_disjunctions(f, agents)`` through the recursive NNF and
    CNF above and :func:`reference_clause_to_sd`."""
    clauses = reference_cnf(reference_nnf(f), CLAUSE_CAP)
    return [reference_clause_to_sd(clause, agents) for clause in clauses]


def reference_sd_formula(sd):
    """``sd_to_formula(sd)`` with gamma read as name-keyed literals: each
    atom name once, in sorted order, its positive literal before its
    negative one, each literal read as ``Atom`` or ``Not(Atom)``."""
    polarities = {}
    for atom, positive in sd.gamma:
        polarities.setdefault(atom.name, set()).add(positive)
    gamma = big_or(
        Atom(name) if positive else Not(Atom(name))
        for name in sorted(polarities)
        for positive in (True, False)
        if positive in polarities[name]
    )
    antecedent = big_and(Coal(c, f) for c, f in sd.negatives)
    consequent = big_or(Coal(c, f) for c, f in sd.positives)
    return big_or([gamma, Implies(antecedent, consequent)])


def reference_doc(m, pointed=None) -> dict:
    """The model-file document of m: ``save_model`` must write exactly
    ``json.dumps(reference_doc(m, pointed), indent=2) + "\\n"``."""
    doc = {
        "agents": m.agents,
        "actions": list(m.actions),
        "states": list(m.states),
        "atoms": list(m.atoms),
        "labels": {state: sorted(m.labels[state]) for state in m.states},
        "outcomes": [
            {"state": state, "profile": list(profile), "to": sorted(targets)}
            for state in m.states
            for profile, targets in sorted(m.outcomes.get(state, {}).items())
        ],
    }
    if pointed is not None:
        doc["pointed"] = pointed
    return doc


def _prefixed(prefix: str, model):
    """The model's state names, actions, outcome table and labels with every
    state and action name prefixed, read from its string view."""
    states = {s: prefix + s for s in model.states}
    actions = {a: prefix + a for a in model.actions}
    outcomes = {
        states[s]: {
            tuple(actions[a] for a in profile): frozenset(states[t] for t in targets)
            for profile, targets in entries.items()
        }
        for s, entries in model.outcomes.items()
    }
    labels = {states[s]: model.labels[s] for s in model.states}
    return states, actions.values(), outcomes, labels


def reference_glue(bp, gamma, provider):
    """The model ``realize(bp, gamma, provider, logic)`` glues, built by
    renaming every state and action of every submodel in its string view and
    passing the whole table through ``Model(...)``."""
    states = [ROOT_STATE]
    actions = list(bp.base_actions)
    atoms = {atom.name for atom, _ in gamma}
    outcomes = {}
    labels = {ROOT_STATE: frozenset(atom.name for atom, positive in gamma if positive)}
    root_entries = {}
    for profile in sorted(bp.listing):
        roots = []
        for k, formula in enumerate(sorted(bp.listing[profile], key=render)):
            pointed = provider(formula)
            names, sub_actions, sub_outcomes, sub_labels = _prefixed(
                f"{','.join(profile)}#{k}#", pointed.model
            )
            states.extend(names.values())
            actions.extend(sub_actions)
            atoms.update(pointed.model.atoms)
            outcomes.update(sub_outcomes)
            labels.update(sub_labels)
            roots.append(names[pointed.state])
        root_entries[profile] = frozenset(roots)
    outcomes[ROOT_STATE] = root_entries
    atoms = tuple(sorted(atoms))
    return Model(bp.agents, tuple(actions), tuple(states), outcomes, labels, atoms)


def reference_neat_subsets(negatives, logic) -> list[frozenset[int]]:
    """All neat index sets, largest first, then in ``itertools.combinations``
    order."""
    indices = range(len(negatives))
    return [
        frozenset(combo)
        for size in range(len(negatives), -1, -1)
        for combo in itertools.combinations(indices, size)
        if decide.is_neat(combo, negatives, logic)
    ]


def reference_reduction_witness(sd, logic, rec):
    """The witness ``decide.reduction_witness`` reports, found by trying
    every neat set covered by B_j, not only the maximal ones, for each
    consequent index j in ascending order."""
    if any((atom, not positive) in sd.gamma for atom, positive in sd.gamma):
        return decide.ReductionWitness(kind="gamma")
    basics = sorted(basic_positive_indices(sd))
    neat_sets = reference_neat_subsets(sd.negatives, logic)
    for j, (b_j, psi_j) in enumerate(sd.positives):
        for neat in neat_sets:
            cover = frozenset().union(*(sd.negatives[i][0] for i in neat))
            if not cover <= b_j:
                continue
            antecedent = big_and(sd.negatives[i][1] for i in sorted(neat))
            if logic.has_D:
                goal = big_or([psi_j] + [sd.positives[k][1] for k in basics])
            else:
                goal = psi_j
            reduced = Implies(antecedent, goal)
            if rec(reduced):
                return decide.ReductionWitness("modal", neat, j, reduced)
    return None


def reference_blueprint(clause, logic):
    """The blueprint ``build_blueprint(clause, logic)`` builds, enumerated
    over base-action names: the support compares the names each agent plays
    with ``n<i>``, the impeached index is read back out of names ``p<j>`` by
    a regex, and every profile's listing is built afresh."""
    negatives, positives = clause.negatives, clause.positives
    base = tuple(f"n{i}" for i in range(len(negatives)))
    base += tuple(f"p{j}" for j in range(len(positives)))
    basics = sorted(basic_positive_indices(clause))
    listing = {}
    for profile in itertools.product(base, repeat=clause.agents):
        supp = frozenset(
            i for i, (a_i, _) in enumerate(negatives) if all(profile[a] == f"n{i}" for a in a_i)
        )
        if not decide.is_neat(supp, negatives, logic):
            continue
        phis = [negatives[i][1] for i in sorted(supp)]
        cover = frozenset().union(*(negatives[i][0] for i in supp))
        if logic.has_D:
            played = [re.fullmatch(r"p(\d+)", action) for action in profile]
            target = sum(int(match.group(1)) for match in played if match) % len(positives)
            if not cover <= positives[target][0]:
                target = 0
            parts = phis + [Not(positives[target][1])]
            parts += [Not(positives[k][1]) for k in basics if k != target]
            formulas = [big_and(list(dict.fromkeys(parts)))]
        else:
            formulas = [
                big_and(list(dict.fromkeys(phis + [Not(psi_j)])))
                for b_j, psi_j in positives
                if cover <= b_j
            ]
        listing[profile] = frozenset(formulas)
    return Blueprint(clause.agents, base, listing)


def coal_nodes(f) -> set:
    """The ``<C>`` nodes of a formula, by recursion over the tree."""
    match f:
        case Top() | Atom():
            return set()
        case Not(child):
            return coal_nodes(child)
        case And(left, right):
            return coal_nodes(left) | coal_nodes(right)
        case Coal(_, child):
            return {f} | coal_nodes(child)
    raise TypeError(f"not a formula: {f!r}")


def reference_synthesize(f, logic, agents):
    """Synthesis with a fresh validity oracle and a fresh submodel cache at
    every recursion level, each level recursing through this function; the
    oracle is built through ``decide.validity_oracle``, so a test can count
    it there."""
    decide.check_agents(f, agents)
    if modal_depth(f) == 0:
        assignment = decide.find_assignment(f, True, key=lambda atom: atom.name)
        if assignment is None:
            return None
        true_atoms = [atom.name for atom, value in assignment.items() if value]
        return synth._loop_model(true_atoms, [atom.name for atom in assignment], agents)

    rec = decide.validity_oracle(logic, agents)
    chosen = None
    for clause in to_standard_disjunctions(Not(f), agents):
        if decide.reduction_witness(clause, logic, rec) is None:
            chosen = clause
            break
    if chosen is None:
        return None

    bp = synth.build_blueprint(chosen, logic)
    cache = {}

    def provider(chi):
        if chi not in cache:
            pointed = reference_synthesize(chi, logic, agents)
            if pointed is None:
                raise RealizationError(f"listed formula unexpectedly unsatisfiable: {render(chi)}")
            cache[chi] = pointed
        return cache[chi]

    gamma = frozenset((atom, not positive) for atom, positive in chosen.gamma)
    pointed = synth.realize(bp, gamma, provider, logic)
    if not satisfies(pointed.model, pointed.state, f):
        raise RealizationError(f"synthesized model does not satisfy {render(f)!r}")
    return pointed
