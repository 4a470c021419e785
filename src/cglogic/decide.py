"""Recursive validity and satisfiability decision for all eight logics.

A depth-0 formula is decided by truth table.  Deeper formulas are normalized
into standard disjunctions, and each clause is valid exactly when its gamma
is a tautology or some neat set of antecedent indices together with a
consequent index reduces it to a valid strictly-shallower implication.  The
reduction is exact in both directions: a failed reduction yields a concrete
countermodel (the blueprint construction in :mod:`cglogic.synth`), and a
successful one corresponds to a derivation in the matching axiomatic system,
so deciding the reduced implications decides the clause.  A larger neat set
has a stronger antecedent, so a consequent index only needs the maximal neat
sets its coalition covers (monotonicity): at most one per antecedent index
without independence, instead of every subset of the antecedents.

The truth table runs the formula's :func:`~cglogic.syntax.skeleton` program,
the one also run by the normal form and by model checking, once per
assignment.  The oracle's cache is keyed by the formula node and keeps,
for an invalid node, what refutes it, which synthesis realizes.  Nodes are
interned (:mod:`cglogic.syntax`), so a lookup reads the node's stored hash
and compares identity, and ``modal_depth`` reads a stored field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .logics import LogicId
from .models import check_count
from .normalform import (
    StandardDisjunction,
    basic_positive_indices,
    to_standard_disjunctions,
)
from .syntax import (
    Formula,
    Implies,
    Not,
    big_and,
    big_or,
    max_agent,
    modal_depth,
    render,  # not called here; bench/tracer.py wraps cglogic.decide.render
    skeleton,
)


@dataclass(frozen=True)
class ReductionWitness:
    """Why a standard disjunction is valid.

    Either the gamma part is already a tautology, or the neat index set and
    the consequent index name a valid lower-depth implication (``reduced``).
    """

    kind: str  # "gamma" or "modal"
    neat: frozenset[int] | None = None
    positive: int | None = None
    reduced: Formula | None = None


def find_assignment(f: Formula, value: bool, key=None) -> dict[Formula, bool] | None:
    """First assignment to the opaque leaves of f's propositional skeleton
    (atoms and ``<C>`` nodes) under which f evaluates to ``value``, or None.

    Assignments run in ``itertools.product((False, True), ...)`` order over
    the leaves, taken in order of first occurrence or sorted by ``key``.
    Each assignment runs f's :func:`~cglogic.syntax.skeleton` program, which
    computes each distinct node once.
    """
    leaves, steps, root = skeleton(f)
    if key is not None:
        order = sorted(range(len(leaves)), key=lambda i: key(leaves[i]))
        slot = list(range(len(leaves) + 1 + len(steps)))
        for new, old in enumerate(order, 1):
            slot[old + 1] = new
        leaves = [leaves[i] for i in order]
        steps = [(slot[a], slot[b] if b >= 0 else b) for a, b in steps]
        root = slot[root]
    for bits in itertools.product((False, True), repeat=len(leaves)):
        values = [True, *bits]
        for a, b in steps:
            values.append(not values[a] if b < 0 else values[a] and values[b])
        if values[root] is value:
            return dict(zip(leaves, bits))
    return None


def is_taut(f: Formula) -> bool:
    """Truth-table tautology check; modal subformulas count as opaque atoms."""
    return find_assignment(f, False) is None


def is_neat(indices, negatives, logic: LogicId) -> bool:
    """Neatness of a set of antecedent indices.

    Requires pairwise disjoint coalitions; a nonempty set when seriality is
    not assumed; and at most one nonempty coalition when independence is not
    assumed.
    """
    indices = sorted(indices)
    for pos, i in enumerate(indices):
        for j in indices[pos + 1 :]:
            if negatives[i][0] & negatives[j][0]:
                return False
    if not logic.has_S and not indices:
        return False
    if not logic.has_I:
        nonempty = sum(1 for i in indices if negatives[i][0])
        if nonempty > 1:
            return False
    return True


def _maximal_neat_sets(empty, nonempty, cover, logic: LogicId):
    """The maximal neat index sets whose coalitions all lie inside ``cover``,
    largest first and in ``itertools.combinations`` order within a size.

    ``empty`` is the set of indices with the empty coalition and
    ``nonempty`` the (index, coalition) pairs of the others.  An empty
    coalition is disjoint from every coalition, so each maximal set holds
    all of ``empty``.  Without I it adds at most one covered nonempty index;
    with I, a maximal family of pairwise disjoint covered coalitions (Bron
    and Kerbosch 1973, over the disjointness relation).  All the sets share
    ``empty``, so their order is the order of the added indices.  The empty
    set is neat only under S, and maximal only when no antecedent is
    covered.
    """
    covered = [(i, c) for i, c in nonempty if c <= cover]
    if not logic.has_I:
        families = [(i,) for i, _ in covered]
    else:
        families = []
        stack = [((), covered, [])]
        while stack:
            chosen, candidates, excluded = stack.pop()
            if not candidates and not excluded:
                families.append(chosen)
            for pos, (i, c) in enumerate(candidates):
                stack.append((
                    chosen + (i,),
                    [(k, d) for k, d in candidates[pos + 1 :] if not c & d],
                    [(k, d) for k, d in excluded + candidates[:pos] if not c & d],
                ))
        families.sort(key=lambda family: (-len(family), family))
    for family in families or [()]:
        neat = empty.union(family)
        if neat or logic.has_S:
            yield neat


def reduction_witness(sd: StandardDisjunction, logic: LogicId, rec) -> ReductionWitness | None:
    """Search for a witness that the clause is valid.

    ``rec`` is the validity oracle applied to the reduced implications; each
    of them has strictly smaller modal depth than the clause.  The search
    runs consequent indices in ascending order and, for each index j, the
    maximal neat sets covered by B_j by decreasing cardinality; the order
    only affects which witness is reported.

    Only maximal sets are tried (Mon): if N is contained in a covered neat
    set N', the antecedent of N' implies that of N, so N' reduces to a valid
    implication whenever N does.  For the same reason the first witness
    among all covered neat sets, taken in the same order, is itself maximal,
    so skipping the others never changes the witness reported.
    """
    if any((atom, not positive) in sd.gamma for atom, positive in sd.gamma):
        return ReductionWitness(kind="gamma")
    negatives = sd.negatives
    empty = frozenset(i for i, (c, _) in enumerate(negatives) if not c)
    nonempty = [(i, c) for i, (c, _) in enumerate(negatives) if c]
    basics = [sd.positives[k][1] for k in sorted(basic_positive_indices(sd))]
    for j, (b_j, psi_j) in enumerate(sd.positives):
        goal = big_or([psi_j] + basics) if logic.has_D else psi_j
        for neat in _maximal_neat_sets(empty, nonempty, b_j, logic):
            antecedent = big_and(negatives[i][1] for i in sorted(neat))
            reduced = Implies(antecedent, goal)
            if rec(reduced):
                return ReductionWitness("modal", neat, j, reduced)
    return None


def check_agents(f: Formula, agents: int) -> None:
    """Reject too few or too many agents, or a formula naming an agent it lacks."""
    check_count(agents, "agent")
    if agents < 1:
        raise ValueError("agents must be >= 1")
    worst = max_agent(f)
    if worst >= agents:
        raise ValueError(f"formula mentions agent {worst}; session has {agents} agent(s)")


def _validity(f: Formula, logic: LogicId, agents: int, cache: dict):
    """True when f is valid, else what refutes it: False at depth 0, and
    otherwise the first clause of f's normal form with no reduction witness,
    whose blueprint :mod:`cglogic.synth` realizes.  The answer is cached per
    node, so each node is normalized and searched at most once per cache."""
    cached = cache.get(f)
    if cached is None:
        if modal_depth(f) == 0:
            cached = is_taut(f)
        else:
            rec = lambda g: _validity(g, logic, agents, cache) is True
            clauses = to_standard_disjunctions(f, agents)
            cached = next((c for c in clauses if reduction_witness(c, logic, rec) is None), True)
        cache[f] = cached
    return cached


def validity_oracle(logic: LogicId, agents: int):
    """Memoizing validity decision shared across related queries.

    ``rec(f)`` is f's validity.  ``rec.refutation(f)`` is the cached answer
    it reads: True when f is valid, else False for an invalid depth-0 f and
    the first clause of f's normal form with no reduction witness otherwise.
    """
    cache: dict = {}

    def refutation(f: Formula):
        check_agents(f, agents)
        return _validity(f, logic, agents, cache)

    def rec(f: Formula) -> bool:
        return refutation(f) is True

    rec.refutation = refutation
    return rec


def is_valid(f: Formula, logic: LogicId, agents: int) -> bool:
    """Decide whether the formula holds at every state of every model of the logic."""
    return validity_oracle(logic, agents)(f)


def is_satisfiable(f: Formula, logic: LogicId, agents: int) -> bool:
    """Decide satisfiability as non-validity of the negation."""
    return not is_valid(Not(f), logic, agents)


def explain(
    f: Formula, logic: LogicId, agents: int
) -> tuple[bool, list[tuple[StandardDisjunction, ReductionWitness | None]]]:
    """Validity verdict plus per-clause witnesses for the top-level normal form."""
    check_agents(f, agents)
    if modal_depth(f) == 0:
        return is_taut(f), []
    rec = validity_oracle(logic, agents)
    details = [
        (clause, reduction_witness(clause, logic, rec))
        for clause in to_standard_disjunctions(f, agents)
    ]
    return all(witness is not None for _, witness in details), details
