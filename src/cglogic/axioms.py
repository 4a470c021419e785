"""Builders for the axiom schemas of the eight systems, as concrete formulas."""

from __future__ import annotations

from .logics import LogicId
from .syntax import And, BOT, Coal, Formula, Implies, Not, Or, TOP, random_coalition, random_formula


def a_naaa(coalition) -> Formula:
    """No absurd available actions: ~<C>false."""
    return Not(Coal(frozenset(coalition), BOT))


def a_mg(coalition, phi: Formula, psi: Formula) -> Formula:
    """Monotonicity of goals: <>(phi -> psi) -> (<C>phi -> <C>psi)."""
    coalition = frozenset(coalition)
    return Implies(
        Coal(frozenset(), Implies(phi, psi)),
        Implies(Coal(coalition, phi), Coal(coalition, psi)),
    )


def a_mc(smaller, larger, phi: Formula) -> Formula:
    """Monotonicity of coalitions: <C>phi -> <D>phi for C a subset of D."""
    smaller, larger = frozenset(smaller), frozenset(larger)
    if not smaller <= larger:
        raise ValueError("first coalition must be a subset of the second")
    return Implies(Coal(smaller, phi), Coal(larger, phi))


def a_ser(coalition) -> Formula:
    """Seriality: <C>true."""
    return Coal(frozenset(coalition), TOP)


def a_ia(left, right, phi: Formula, psi: Formula) -> Formula:
    """Independence of agents: (<C>phi & <D>psi) -> <C u D>(phi & psi), C,D disjoint."""
    left, right = frozenset(left), frozenset(right)
    if left & right:
        raise ValueError("coalitions must be disjoint")
    return Implies(
        And(Coal(left, phi), Coal(right, psi)),
        Coal(left | right, And(phi, psi)),
    )


def a_det(coalition, phi: Formula, psi: Formula, agents: int) -> Formula:
    """Determinism: <C>(phi | psi) -> (<C>phi | <AG>psi)."""
    coalition = frozenset(coalition)
    grand = frozenset(range(agents))
    return Implies(
        Coal(coalition, Or(phi, psi)),
        Or(Coal(coalition, phi), Coal(grand, psi)),
    )


def a_cea(coalition, phi: Formula) -> Formula:
    """Condition for empty action: <C>phi -> <>true."""
    return Implies(Coal(frozenset(coalition), phi), Coal(frozenset(), TOP))


def a_sia(coalition, phi: Formula, psi: Formula) -> Formula:
    """Special independence of agents: (<>phi & <C>psi) -> <C>(phi & psi)."""
    coalition = frozenset(coalition)
    return Implies(
        And(Coal(frozenset(), phi), Coal(coalition, psi)),
        Coal(coalition, And(phi, psi)),
    )


def mon_conclusion(smaller, larger, phi: Formula, psi: Formula) -> Formula:
    """Conclusion pattern <C>phi -> <D>psi; sound whenever phi -> psi is valid
    and C is a subset of D."""
    smaller, larger = frozenset(smaller), frozenset(larger)
    if not smaller <= larger:
        raise ValueError("first coalition must be a subset of the second")
    return Implies(Coal(smaller, phi), Coal(larger, psi))


def system_instances(logic: LogicId, agents: int, rng, atoms=("p", "q"), depth: int = 1):
    """One random instance of every axiom of the system, as (name, formula) pairs.

    Tautology instances use the excluded-middle and weakening shapes; the
    schematic coalitions and formulas are drawn from ``rng``.
    """
    phi = random_formula(rng, depth, agents, atoms)
    psi = random_formula(rng, depth, agents, atoms)
    c = random_coalition(rng, agents)
    d = random_coalition(rng, agents)
    instances = [
        ("A-Tau/excluded-middle", Or(phi, Not(phi))),
        ("A-Tau/weakening", Implies(And(phi, psi), phi)),
        ("A-NAAA", a_naaa(c)),
        ("A-MG", a_mg(c, phi, psi)),
        ("A-MC", a_mc(c & d, c | d, phi)),
    ]
    if logic.has_S:
        instances.append(("A-Ser", a_ser(c)))
    if logic.has_I:
        instances.append(("A-IA", a_ia(c, d - c, phi, psi)))
    if logic.has_D:
        instances.append(("A-Det", a_det(c, phi, psi, agents)))
    return instances
