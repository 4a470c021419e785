"""Semantic evaluation on models: satisfaction, ensures/enables, validity.

Evaluation works on the model's index form (:mod:`cglogic.models`): a set of
states is an ``int`` whose bit i is state i.  An atom is its label mask,
negation is complement within all states and conjunction is ``&``: the
formula's :func:`~cglogic.syntax.skeleton` program runs over masks once each
of its ``<C>`` leaves has one.  The masks still wanted wait on an explicit
stack, the formula at the bottom and a ``<C>`` node above whatever needs its
mask, so nesting depth is not bounded by Python's recursion limit.  ``<C>phi``
holds at a state when some joint action of C available there has all its
outcomes inside phi's mask.  With ``bad`` the complement of that mask, a
listed profile spoils the joint action it projects to when its outcome mask
meets ``bad``; the state satisfies ``<C>phi`` when it lists a profile whose
joint action no profile of the state spoils.  The profile-to-joint-action
map is the coalition's :meth:`~cglogic.models.Model.projection`, computed
once per model, so every ``<C>`` node is one pass over the listed profiles.

Every query goes through :func:`sat_mask`, which evaluates a formula over
the whole model once and keeps its mask on the model, in ``mask_memo``, the
model's one memo.  It also keeps every ``<C>`` node's mask, so a ``<C>``
node is evaluated once per model however many formulas contain it, such as
the listed disjunctions whose disjuncts the glued witnesses of
:mod:`cglogic.synth` were checked against.  ``satisfies`` then reads one
bit, and ``enables`` and ``ensures`` compare
:func:`~cglogic.models.outcome_mask` with the mask; only :func:`sat_states`
names states, from the kept mask, on each call.
"""

from __future__ import annotations

from .models import Model, outcome_mask
from .syntax import Atom, Formula, max_agent, skeleton


def _check_fit(m: Model, f: Formula) -> None:
    worst = max_agent(f)
    if worst >= m.agents:
        raise ValueError(f"formula mentions agent {worst}; model has {m.agents} agent(s)")


def sat_mask(m: Model, f: Formula) -> int:
    """Mask of the states at which the formula holds.

    Masks are kept on the model (``m.mask_memo``), keyed by the formula
    node.  Nodes are interned, so a structurally equal formula is the same
    key, and asking again costs one lookup.  A formula is kept only after it
    passed the agent check, so a formula naming an agent the model lacks
    raises ``ValueError`` every time; a ``<C>`` node is kept while a formula
    containing it is evaluated.  Unlabeled atoms are false.
    """
    mask = m.mask_memo.get(f)
    if mask is None:
        _check_fit(m, f)
        everything = (1 << len(m.states)) - 1
        mask = m.mask_memo[f] = _eval_at(m, everything, m.mask_memo, f)
    return mask


def sat_states(m: Model, f: Formula) -> frozenset[str]:
    """States at which the formula holds, by name: :func:`sat_mask`'s
    answer, named afresh on each call; only the mask is kept."""
    return m.names(sat_mask(m, f))


def _eval_at(m: Model, everything: int, memo: dict[Formula, int], node: Formula) -> int:
    # The memo holds formula nodes, which never refer to a model, so keeping
    # it on the model makes no reference cycle.  ``wanted`` holds the masks
    # still to compute: None, at the bottom, is the formula itself, and every
    # other item is a <C> node.  The top item's program, the formula's
    # skeleton or the <C> node's child's, runs once each of its leaves has a
    # mask; until then its <C> leaves without one are pushed above it.
    label_masks = m.label_masks
    wanted = [None]
    while True:
        item = wanted[-1]
        if item in memo:  # pushed twice, and computed since
            wanted.pop()
            continue
        leaves, steps, root = skeleton(node if item is None else item.child)
        unknown = [leaf for leaf in leaves if type(leaf) is not Atom and leaf not in memo]
        if unknown:
            wanted += unknown
            continue
        values = [everything] + [
            label_masks.get(leaf.name, 0) if type(leaf) is Atom else memo[leaf] for leaf in leaves
        ]
        for a, b in steps:
            values.append(everything ^ values[a] if b < 0 else values[a] & values[b])
        if item is None:
            return values[root]
        memo[wanted.pop()] = _able(m, item.coalition, everything ^ values[root])


def _able(m: Model, coalition, bad: int) -> int:
    """Mask of the states where the coalition has an available joint action
    none of whose outcomes lies in ``bad``.

    Where each listed profile is its own joint action, because the
    coalition's projection keeps the profiles apart (the grand coalition's
    always does) or the state lists one profile, one outcome mask missing
    ``bad`` decides the state.  Elsewhere the state needs a listed profile
    whose joint action no profile spoils.
    """
    of_profile, joint = m.projection(coalition)
    apart = len(joint) == len(of_profile)
    result = 0
    bit = 1
    for row in m.rows:
        if apart or len(row) < 2:
            for targets in row.values():
                if not targets & bad:
                    result |= bit
                    break
        else:
            spoiled = {of_profile[n] for n, targets in row.items() if targets & bad}
            if not spoiled.issuperset(map(of_profile.__getitem__, row)):
                result |= bit
        bit <<= 1
    return result


def satisfies(m: Model, state: str, f: Formula) -> bool:
    """True iff the formula holds at the state; an unknown state is
    reported before the formula is checked."""
    number = m.number(state)
    return bool(sat_mask(m, f) >> number & 1)


def ensures(m: Model, state: str, coalition, ja: tuple[str, ...], f: Formula) -> bool:
    """True iff every outcome of the joint action satisfies f (vacuous on empty)."""
    out = outcome_mask(m, state, coalition, ja)
    if not out:
        return True
    return out & sat_mask(m, f) == out


def enables(m: Model, state: str, coalition, ja: tuple[str, ...], f: Formula) -> bool:
    """True iff some outcome of the joint action satisfies f."""
    out = outcome_mask(m, state, coalition, ja)
    if not out:
        return False
    return bool(out & sat_mask(m, f))


def valid_on_model(m: Model, f: Formula) -> bool:
    return sat_mask(m, f) == (1 << len(m.states)) - 1
