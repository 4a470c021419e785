"""Semantic evaluation on models: satisfaction, ensures/enables, validity.

Evaluation works on the model's index form (:mod:`cglogic.models`): a set of
states is an ``int`` whose bit i is state i.  An atom is its label mask,
negation is complement within all states and conjunction is ``&``: the
formula's :func:`~cglogic.syntax.skeleton` program runs over masks, and only
``<C>`` leaves recurse, into their child's program.  ``<C>phi``
holds at a state when some joint action of C available there has all its
outcomes inside phi's mask.  With ``bad`` the complement of that mask, a
listed profile spoils the joint action it projects to when its outcome mask
meets ``bad``; the state satisfies ``<C>phi`` when it lists a profile whose
joint action no profile of the state spoils.  The profile-to-joint-action
map is the coalition's :meth:`~cglogic.models.Model.projection`, computed
once per model, so every ``<C>`` node is one pass over the listed profiles.

Every query goes through :func:`sat_states`, which evaluates a formula over
the whole model once and keeps the result on the model, so repeated
``satisfies``/``enables``/``ensures`` calls on one model (the realization
checks of :mod:`cglogic.synth`, one per glued witness) reuse it.
"""

from __future__ import annotations

from .models import Model, ModelError, outcome
from .syntax import Atom, Formula, max_agent, skeleton


def _check_fit(m: Model, f: Formula) -> None:
    worst = max_agent(f)
    if worst >= m.agents:
        raise ValueError(f"formula mentions agent {worst}; model has {m.agents} agent(s)")


def sat_states(m: Model, f: Formula) -> frozenset[str]:
    """States at which the formula holds.

    Results are kept on the model (``m.sat_cache``), keyed by the formula
    node.  Nodes are interned, so a structurally equal formula is the same
    key, and a lookup reads the node's stored hash: asking again costs one
    lookup.  Only the top-level result is kept, and only after the formula
    passed the agent check, so a formula naming an agent the model lacks
    raises ``ValueError`` every time.  On a miss, the skeleton program runs
    over state masks, recursing once per nested ``<C>``, and each ``<C>``
    node is evaluated once for that call; unlabeled atoms are false.  Only
    the result is turned into state names.
    """
    result = m.sat_cache.get(f)
    if result is None:
        _check_fit(m, f)
        everything = (1 << len(m.states)) - 1
        result = m.sat_cache[f] = m.names(_eval_at(m, everything, {}, f))
    return result


def _eval_at(m: Model, everything: int, memo: dict[int, int], node: Formula) -> int:
    # A module-level function, not a closure: a closure that calls itself is a
    # reference cycle, which would keep the model alive until the next cyclic
    # garbage collection.
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    leaves, steps, root = skeleton(node)
    values = [everything]
    for leaf in leaves:
        if type(leaf) is Atom:
            values.append(m.label_masks.get(leaf.name, 0))
            continue
        mask = memo.get(id(leaf))
        if mask is None:
            bad = everything ^ _eval_at(m, everything, memo, leaf.child)
            mask = memo[id(leaf)] = _able(m, leaf.coalition, bad)
        values.append(mask)
    for a, b in steps:
        values.append(everything ^ values[a] if b < 0 else values[a] & values[b])
    result = memo[id(node)] = values[root]
    return result


def _able(m: Model, coalition, bad: int) -> int:
    """Mask of the states where the coalition has an available joint action
    none of whose outcomes lies in ``bad``."""
    of_profile, _ = m.projection(coalition)
    result = 0
    bit = 1
    for row in m.rows:
        if row:
            spoiled = {of_profile[n] for n, targets in row.items() if targets & bad}
            if len(spoiled) < len({of_profile[n] for n in row}):
                result |= bit
        bit <<= 1
    return result


def satisfies(m: Model, state: str, f: Formula) -> bool:
    if state not in m.index:
        raise ModelError(f"unknown state {state!r}")
    return state in sat_states(m, f)


def ensures(m: Model, state: str, coalition, ja: tuple[str, ...], f: Formula) -> bool:
    """True iff every outcome of the joint action satisfies f (vacuous on empty)."""
    out = outcome(m, state, coalition, ja)
    if not out:
        return True
    return out <= sat_states(m, f)


def enables(m: Model, state: str, coalition, ja: tuple[str, ...], f: Formula) -> bool:
    """True iff some outcome of the joint action satisfies f."""
    out = outcome(m, state, coalition, ja)
    if not out:
        return False
    return bool(out & sat_states(m, f))


def valid_on_model(m: Model, f: Formula) -> bool:
    return sat_states(m, f) == frozenset(m.states)
