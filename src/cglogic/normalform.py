"""Normal form: every formula of modal depth >= 1 becomes a conjunction of
standard disjunctions  gamma v (/\\ <A_i>phi_i -> \\/ <B_j>psi_j).

Maximal modal subformulas are treated as opaque atoms; the propositional
skeleton (the program of :func:`~cglogic.syntax.skeleton`) goes to CNF by
distribution, which preserves equivalence (fresh-variable encodings would
only preserve equisatisfiability).  Each CNF clause is then split into the
propositional part (gamma), the negated modal atoms (the antecedent family)
and the positive modal atoms (the consequent family); <AG>falsity is pinned
at consequent index 0 and <{}>truth joins a nonempty antecedent family, both
equivalence-preserving on all models.  A clause also stands for its negation,
the standard conjunction, which synthesis realizes when the clause has no
reduction witness.
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


_EMPTY_TOP: tuple[frozenset[int], Formula] = (frozenset(), TOP)


@dataclass(frozen=True)
class StandardDisjunction:
    """gamma v (/\\_i <A_i>phi_i -> \\/_j <B_j>psi_j) with pinned index 0.

    Its negation, the standard conjunction
    ~gamma ^ /\\_i <A_i>phi_i ^ /\\_j ~<B_j>psi_j, has the same two families
    and the complemented literals of gamma, so the clause stands for both.

    gamma holds the clause's propositional literals in the form every
    clause literal takes, ``(Atom, polarity)`` pairs, so a literal's
    complement is ``(atom, not polarity)``.
    """

    agents: int
    gamma: frozenset[tuple[Atom, bool]]
    negatives: tuple[tuple[frozenset[int], Formula], ...]
    positives: tuple[tuple[frozenset[int], Formula], ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", frozenset(self.gamma))
        for family in ("negatives", "positives"):
            parts = tuple((frozenset(c), f) for c, f in getattr(self, family))
            object.__setattr__(self, family, parts)
        ag = frozenset(range(self.agents))
        if not self.positives or self.positives[0] != (ag, BOT):
            raise ValueError("positive index 0 must be <AG>false")
        if self.negatives and _EMPTY_TOP not in self.negatives:
            raise ValueError("a nonempty antecedent family must contain <>true")
        for coalition, _ in self.negatives + self.positives:
            if not coalition <= ag:
                agents = f"{self.agents} agent(s)"
                raise ValueError(f"coalition {sorted(coalition)} out of range for {agents}")
        check_literals(self.gamma)


def check_literals(gamma) -> None:
    """Reject a gamma member that is not an ``(Atom, polarity)`` pair."""
    for literal in gamma:
        if not (
            type(literal) is tuple
            and len(literal) == 2
            and type(literal[0]) is Atom
            and type(literal[1]) is bool
        ):
            raise ValueError(f"gamma may hold only propositional literals, got {literal!r}")


def _dedupe(items) -> list:
    """items without repeats, each at its first place."""
    return list(dict.fromkeys(items))


def _cnf(f: Formula, cap: int) -> list[frozenset]:
    """CNF clauses of f's skeleton program by distribution.  ``built[2s]``
    holds slot s's clauses and ``built[2s+1]`` its negation's.  Each is built
    once, in the order a recursive walk over the formula tree first meets it
    (children first, left before right), so a cap breach is reported as that
    walk would report it."""
    leaves, steps, root = skeleton(f)
    n = len(leaves)
    built: list = [None] * (2 * (n + 1 + len(steps)))
    for s, leaf in enumerate((TOP, *leaves)):
        built[2 * s] = [frozenset([(leaf, True)])]
        built[2 * s + 1] = [frozenset([(leaf, False)])]
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


def _clause_to_sd(clause, agents: int, pinned) -> StandardDisjunction:
    """The clause of a CNF clause; ``pinned`` is ``(AG, false)``."""
    gamma = []
    neg_family: list[tuple[frozenset[int], Formula]] = []
    pos_family: list[tuple[frozenset[int], Formula]] = []
    modal = []
    saw_top = False
    for leaf, positive in clause:
        if leaf is TOP:
            # A falsity literal drops out of the disjunction; a truth literal
            # is re-expressed as <>true on both sides, which keeps the clause
            # a tautology without losing its other (depth-carrying) members.
            saw_top = saw_top or positive
        elif type(leaf) is Atom:
            gamma.append((leaf, positive))
        else:
            modal.append((leaf, positive))
    # Clause literals are (leaf, polarity) pairs in a set; only the <C>
    # leaves' order reaches the families, so only they are sorted, by
    # rendering, and only when there are two or more.  A leaf's two
    # polarities tie but go to different families.
    if len(modal) > 1:
        modal.sort(key=lambda lit: render(lit[0]))
    for leaf, positive in modal:
        (pos_family if positive else neg_family).append((leaf.coalition, leaf.child))
    if saw_top:
        neg_family.insert(0, _EMPTY_TOP)
        pos_family.insert(0, _EMPTY_TOP)
    positives = (pinned, *[p for p in _dedupe(pos_family) if p != pinned])
    negatives = ()
    if neg_family:
        negatives = (_EMPTY_TOP, *[n for n in _dedupe(neg_family) if n != _EMPTY_TOP])
    # The fields already have the form and invariants that __post_init__
    # enforces, but for a coalition out of range, which the caller checks.
    sd = object.__new__(StandardDisjunction)
    sd.__dict__.update(agents=agents, gamma=frozenset(gamma), negatives=negatives, positives=positives)
    return sd


def to_standard_disjunctions(f: Formula, agents: int) -> list[StandardDisjunction]:
    """Equivalent list of standard disjunctions (their conjunction matches f).

    Requires modal depth >= 1; depth-0 formulas are purely propositional and
    are decided directly by the caller.  Clauses whose gamma contains
    complementary literals are kept.  A clause with a coalition out of range
    for ``agents`` raises ValueError, as its constructor does.
    """
    if modal_depth(f) < 1:
        raise ValueError("normal form needs modal depth >= 1; decide depth-0 input propositionally")
    pinned = (frozenset(range(agents)), BOT)
    clauses = [_clause_to_sd(clause, agents, pinned) for clause in _cnf(f, CLAUSE_CAP)]
    if f.agent_bound >= agents:
        # Only then can a family hold a coalition out of range; the
        # constructor's checks find and report the first one.
        for sd in clauses:
            StandardDisjunction(sd.agents, sd.gamma, sd.negatives, sd.positives)
    return clauses


def sd_to_formula(sd: StandardDisjunction) -> Formula:
    """Literal reading gamma v (/\\ <A_i>phi_i -> \\/ <B_j>psi_j).

    Empty gamma reads as falsity and an empty antecedent family as a truth
    antecedent.
    """
    ordered = sorted(sd.gamma, key=lambda lit: (lit[0].name, not lit[1]))
    gamma = big_or(atom if positive else Not(atom) for atom, positive in ordered)
    antecedent = big_and(Coal(c, f) for c, f in sd.negatives)
    consequent = big_or(Coal(c, f) for c, f in sd.positives)
    return big_or([gamma, Implies(antecedent, consequent)])


def basic_positive_indices(clause) -> frozenset[int]:
    """Indices j with B_j the grand coalition; index 0 is always included."""
    ag = frozenset(range(clause.agents))
    return frozenset(j for j, (coalition, _) in enumerate(clause.positives) if coalition == ag)
