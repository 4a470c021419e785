"""Recursive validity and satisfiability decision for all eight logics.

A depth-0 formula is decided by truth table.  Deeper formulas are normalized
into standard disjunctions, and each clause is valid exactly when its gamma
is a tautology or some neat set of antecedent indices together with a
consequent index reduces it to a valid strictly-shallower implication.  The
reduction is exact in both directions: a failed reduction yields a concrete
countermodel (the blueprint construction in :mod:`cglogic.synth`), and a
successful one corresponds to a derivation in the matching axiomatic system,
so deciding the reduced implications decides the clause.

The truth table runs the formula's :func:`~cglogic.syntax.skeleton` program,
the one also run by the normal form and by model checking, once per
assignment.  The oracle's cache is keyed by the formula node.  Nodes are
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


def _neat_subsets(negatives, logic: LogicId) -> list[frozenset[int]]:
    """All neat index sets, largest first, deterministic order."""
    found = []
    indices = range(len(negatives))
    for size in range(len(negatives), -1, -1):
        for combo in itertools.combinations(indices, size):
            candidate = frozenset(combo)
            if is_neat(candidate, negatives, logic):
                found.append(candidate)
    return found


def reduction_witness(sd: StandardDisjunction, logic: LogicId, rec) -> ReductionWitness | None:
    """Search for a witness that the clause is valid.

    ``rec`` is the validity oracle applied to the reduced implications; each
    of them has strictly smaller modal depth than the clause.  The search
    runs consequent indices in ascending order and neat sets by decreasing
    cardinality; the order only affects which witness is reported.
    """
    if any(lit.complement() in sd.gamma for lit in sd.gamma):
        return ReductionWitness(kind="gamma")
    basics = sorted(basic_positive_indices(sd))
    neat_sets = _neat_subsets(sd.negatives, logic)
    for j, (b_j, psi_j) in enumerate(sd.positives):
        for neat in neat_sets:
            cover = frozenset().union(*(sd.negatives[i][0] for i in neat)) if neat else frozenset()
            if not cover <= b_j:
                continue
            antecedent = big_and(sd.negatives[i][1] for i in sorted(neat))
            if logic.has_D:
                goal = big_or([psi_j] + [sd.positives[k][1] for k in basics])
            else:
                goal = psi_j
            reduced = Implies(antecedent, goal)
            if rec(reduced):
                return ReductionWitness("modal", neat, j, reduced)
    return None


def check_agents(f: Formula, agents: int) -> None:
    """Reject too few or too many agents, or a formula naming an agent it lacks."""
    if agents < 1:
        raise ValueError("agents must be >= 1")
    check_count(agents, "agent")
    worst = max_agent(f)
    if worst >= agents:
        raise ValueError(f"formula mentions agent {worst}; session has {agents} agent(s)")


def _validity(f: Formula, logic: LogicId, agents: int, cache: dict) -> bool:
    cached = cache.get(f)
    if cached is not None:
        return cached
    if modal_depth(f) == 0:
        result = is_taut(f)
    else:
        rec = lambda g: _validity(g, logic, agents, cache)
        result = True
        for clause in to_standard_disjunctions(f, agents):
            if reduction_witness(clause, logic, rec) is None:
                result = False
                break
    cache[f] = result
    return result


def validity_oracle(logic: LogicId, agents: int):
    """Memoizing validity decision shared across related queries."""
    cache: dict = {}

    def rec(f: Formula) -> bool:
        check_agents(f, agents)
        return _validity(f, logic, agents, cache)

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
