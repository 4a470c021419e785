"""Normal form: every formula of modal depth >= 1 becomes a conjunction of
standard disjunctions  gamma v (/\\ <A_i>phi_i -> \\/ <B_j>psi_j).

Maximal modal subformulas are treated as opaque atoms; the propositional
skeleton (the program of :func:`~cglogic.syntax.skeleton`) goes to CNF by
distribution, which preserves equivalence (fresh-variable encodings would
only preserve equisatisfiability).  Each CNF clause is then split into the
propositional part (gamma), the negated modal atoms (the antecedent family)
and the positive modal atoms (the consequent family); <AG>falsity is pinned
at consequent index 0 and <{}>truth joins a nonempty antecedent family, both
equivalence-preserving on all models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    BOT,
    TOP,
    Atom,
    Coal,
    Formula,
    Implies,
    Not,
    big_and,
    big_or,
    modal_depth,
    render,
    skeleton,
)

CLAUSE_CAP = 100_000


class ClauseCapError(RuntimeError):
    """Distribution would exceed the clause-count cap, :data:`CLAUSE_CAP`."""


@dataclass(frozen=True)
class Literal:
    atom: str
    positive: bool = True

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def to_formula(self) -> Formula:
        node = Atom(self.atom)
        return node if self.positive else Not(node)


_EMPTY_TOP: tuple[frozenset[int], Formula] = (frozenset(), TOP)


def _check_families(agents, gamma, negatives, positives, negated: bool):
    ag = frozenset(range(agents))
    if not positives or positives[0] != (ag, BOT):
        shape = "~<AG>false" if negated else "<AG>false"
        raise ValueError(f"positive index 0 must be {shape}")
    if negatives and _EMPTY_TOP not in negatives:
        raise ValueError("a nonempty antecedent family must contain <>true")
    for coalition, _ in tuple(negatives) + tuple(positives):
        if not coalition <= ag:
            raise ValueError(f"coalition {sorted(coalition)} out of range for {agents} agent(s)")
    for literal in gamma:
        if not isinstance(literal, Literal):
            raise ValueError(f"gamma may hold only propositional literals, got {literal!r}")


def _freeze_families(obj, gamma_field: str):
    object.__setattr__(obj, gamma_field, frozenset(getattr(obj, gamma_field)))
    object.__setattr__(
        obj, "negatives", tuple((frozenset(c), f) for c, f in obj.negatives)
    )
    object.__setattr__(
        obj, "positives", tuple((frozenset(c), f) for c, f in obj.positives)
    )


@dataclass(frozen=True)
class StandardDisjunction:
    """gamma v (/\\_i <A_i>phi_i -> \\/_j <B_j>psi_j) with pinned index 0."""

    agents: int
    gamma: frozenset[Literal]
    negatives: tuple[tuple[frozenset[int], Formula], ...]
    positives: tuple[tuple[frozenset[int], Formula], ...]

    def __post_init__(self):
        _freeze_families(self, "gamma")
        _check_families(self.agents, self.gamma, self.negatives, self.positives, negated=False)


@dataclass(frozen=True)
class StandardConjunction:
    """gamma ^ /\\_i <A_i>phi_i ^ /\\_j ~<B_j>psi_j with pinned index 0."""

    agents: int
    gammaC: frozenset[Literal]
    negatives: tuple[tuple[frozenset[int], Formula], ...]
    positives: tuple[tuple[frozenset[int], Formula], ...]

    def __post_init__(self):
        _freeze_families(self, "gammaC")
        _check_families(self.agents, self.gammaC, self.negatives, self.positives, negated=True)


# Skeleton literals: ("top", polarity) | ("atom", name, polarity) | ("modal", Coal, polarity)


def _lit_key(lit):
    if lit[0] == "atom":
        return (0, lit[1], not lit[2])
    if lit[0] == "modal":
        return (1, render(lit[1]), not lit[2])
    return (2, "", not lit[1])


def _dedupe(items):
    seen = set()
    kept = []
    for item in items:
        if item not in seen:
            seen.add(item)
            kept.append(item)
    return kept


def _cnf(f: Formula, cap: int) -> list[frozenset]:
    """CNF clauses of f's skeleton program by distribution.  ``built[2s]``
    holds slot s's clauses and ``built[2s+1]`` its negation's.  Each is built
    once, in the order a recursive walk over the formula tree first meets it
    (children first, left before right), so a cap breach is reported as that
    walk would report it."""
    leaves, steps, root = skeleton(f)
    n = len(leaves)
    built: list = [None] * (2 * (n + 1 + len(steps)))
    named = [("top",)] + [("atom", x.name) if type(x) is Atom else ("modal", x) for x in leaves]
    for s, lit in enumerate(named):
        built[2 * s] = [frozenset([(*lit, True)])]
        built[2 * s + 1] = [frozenset([(*lit, False)])]
    stack = [2 * root]
    while stack:
        key = stack[-1]
        if built[key] is not None:
            stack.pop()
            continue
        negated = key & 1
        a, b = steps[(key >> 1) - n - 1]
        if b < 0:
            child = 2 * a + 1 - negated
            if built[child] is None:
                stack.append(child)
                continue
            built[key] = built[child]
        else:
            left, right = built[2 * a + negated], built[2 * b + negated]
            if left is None or right is None:
                stack += [k for k in (2 * b + negated, 2 * a + negated) if built[k] is None]
                continue
            if negated and len(left) * len(right) > cap:
                size = len(left) * len(right)
                raise ClauseCapError(f"CNF distribution needs {size} clauses (cap {cap})")
            clauses = [c | d for c in left for d in right] if negated else left + right
            clauses = built[key] = _dedupe(clauses)
            if len(clauses) > cap:
                raise ClauseCapError(f"CNF has {len(clauses)} clauses (cap {cap})")
        stack.pop()
    return built[2 * root]


def _clause_to_sd(clause, agents: int) -> StandardDisjunction:
    ag = frozenset(range(agents))
    gamma = set()
    neg_family: list[tuple[frozenset[int], Formula]] = []
    pos_family: list[tuple[frozenset[int], Formula]] = []
    saw_top = False
    for lit in sorted(clause, key=_lit_key):
        if lit[0] == "top":
            # A falsity literal drops out of the disjunction; a truth literal
            # is re-expressed as <>true on both sides, which keeps the clause
            # a tautology without losing its other (depth-carrying) members.
            saw_top = saw_top or lit[1]
        elif lit[0] == "atom":
            gamma.add(Literal(lit[1], lit[2]))
        else:
            part = (lit[1].coalition, lit[1].child)
            (pos_family if lit[2] else neg_family).append(part)
    if saw_top:
        neg_family.insert(0, _EMPTY_TOP)
        pos_family.insert(0, _EMPTY_TOP)
    positives = [(ag, BOT)] + [p for p in _dedupe(pos_family) if p != (ag, BOT)]
    negatives = []
    if neg_family:
        negatives = [_EMPTY_TOP] + [n for n in _dedupe(neg_family) if n != _EMPTY_TOP]
    return StandardDisjunction(agents, frozenset(gamma), tuple(negatives), tuple(positives))


def to_standard_disjunctions(f: Formula, agents: int) -> list[StandardDisjunction]:
    """Equivalent list of standard disjunctions (their conjunction matches f).

    Requires modal depth >= 1; depth-0 formulas are purely propositional and
    are decided directly by the caller.  Clauses whose gamma contains
    complementary literals are kept.
    """
    if modal_depth(f) < 1:
        raise ValueError("normal form needs modal depth >= 1; decide depth-0 input propositionally")
    clauses = _cnf(f, CLAUSE_CAP)
    return [_clause_to_sd(clause, agents) for clause in clauses]


def negate(sd: StandardDisjunction) -> StandardConjunction:
    """Standard conjunction equivalent to the negation of the clause."""
    return StandardConjunction(
        sd.agents,
        frozenset(lit.complement() for lit in sd.gamma),
        sd.negatives,
        sd.positives,
    )


def _gamma_formula(literals, empty: Formula, combine) -> Formula:
    ordered = sorted(literals, key=lambda lit: (lit.atom, not lit.positive))
    if not ordered:
        return empty
    return combine(lit.to_formula() for lit in ordered)


def sd_to_formula(sd: StandardDisjunction) -> Formula:
    """Literal reading gamma v (/\\ <A_i>phi_i -> \\/ <B_j>psi_j).

    Empty gamma reads as falsity and an empty antecedent family as a truth
    antecedent.
    """
    gamma = _gamma_formula(sd.gamma, BOT, big_or)
    antecedent = big_and(Coal(c, f) for c, f in sd.negatives)
    consequent = big_or(Coal(c, f) for c, f in sd.positives)
    return big_or([gamma, Implies(antecedent, consequent)])


def sc_to_formula(sc: StandardConjunction) -> Formula:
    """Literal reading gamma ^ /\\ <A_i>phi_i ^ /\\ ~<B_j>psi_j (empty gamma is truth)."""
    gamma = _gamma_formula(sc.gammaC, TOP, big_and)
    parts = [gamma]
    parts.extend(Coal(c, f) for c, f in sc.negatives)
    parts.extend(Not(Coal(c, f)) for c, f in sc.positives)
    return big_and(parts)


def basic_positive_indices(clause) -> frozenset[int]:
    """Indices j with B_j the grand coalition; index 0 is always included."""
    ag = frozenset(range(clause.agents))
    return frozenset(j for j, (coalition, _) in enumerate(clause.positives) if coalition == ag)
