"""Semantic evaluation on models: satisfaction, ensures/enables, validity.

Every query goes through :func:`sat_states`, which evaluates a formula over
the whole model once and keeps the result on the model, so repeated
``satisfies``/``enables``/``ensures`` calls on one model (the realization
checks of :mod:`cglogic.synth`, one per glued witness) reuse it.
"""

from __future__ import annotations

from .models import Model, ModelError, coalition_table, outcome
from .syntax import And, Atom, Coal, Formula, Not, Top, max_agent


def _check_fit(m: Model, f: Formula) -> None:
    worst = max_agent(f)
    if worst >= m.agents:
        raise ValueError(f"formula mentions agent {worst}; model has {m.agents} agent(s)")


def sat_states(m: Model, f: Formula) -> frozenset[str]:
    """States at which the formula holds.

    Results are kept on the model (``m.sat_cache``), keyed by the formula, so
    asking again with the same or a structurally equal formula costs one
    lookup.  Only the top-level result is kept, and only after the formula
    passed the agent check, so a formula naming an agent the model lacks
    raises ``ValueError`` every time.  On a miss, evaluation is recursive with
    per-subformula memoization for that call; unlabeled atoms are false.  The
    modal clause takes each state's coalition table
    (:func:`cglogic.models.coalition_table`), so cost tracks the sparse table.
    """
    result = m.sat_cache.get(f)
    if result is None:
        _check_fit(m, f)
        result = m.sat_cache[f] = _eval_at(m, frozenset(m.states), {}, f)
    return result


def _eval_at(
    m: Model, everything: frozenset[str], memo: dict[int, frozenset[str]], node: Formula
) -> frozenset[str]:
    # A module-level function, not a closure: a closure that calls itself is a
    # reference cycle, which would keep the model alive until the next cyclic
    # garbage collection.
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    match node:
        case Top():
            result = everything
        case Atom(name):
            result = frozenset(s for s in m.states if name in m.labels[s])
        case Not(child):
            result = everything - _eval_at(m, everything, memo, child)
        case And(left, right):
            result = _eval_at(m, everything, memo, left) & _eval_at(m, everything, memo, right)
        case Coal(coalition, child):
            good = _eval_at(m, everything, memo, child)
            members = sorted(coalition)
            result = frozenset(
                state
                for state in m.states
                if any(
                    targets <= good
                    for targets in coalition_table(m.entries(state), members).values()
                )
            )
        case _:
            raise TypeError(f"not a formula: {node!r}")
    memo[id(node)] = result
    return result


def satisfies(m: Model, state: str, f: Formula) -> bool:
    if state not in m.labels:
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
