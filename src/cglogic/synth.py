"""Countermodel synthesis: blueprints from standard disjunctions with no
reduction witness, whose negations (standard conjunctions) they realize by
model gluing, and recursive end-to-end synthesis.

A blueprint names one base action per antecedent index and one per consequent
index of the source clause, and lists, for every full action profile over
those base actions, finitely many formulas the profile must enable.  While it
is built, base actions are numbers standing for those indices; a profile is
named by its base actions only once it is listed.  Realizing it glues a fresh
root onto recursively synthesized submodels, one per listed formula; the root
lists exactly the blueprint's listed profiles, so every coalition's available
joint actions are the projections of the listed profiles, as they are in a
model (:meth:`cglogic.models.Model.projection`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decide import check_agents, find_assignment, is_neat, reduction_witness, validity_oracle
from .logics import LogicId
from .mcheck import enables, ensures, satisfies
from .models import (
    Model,
    PointedModel,
    available_actions,
    check_profile_count,
    frame_violation,
    validate_model,
)
from .normalform import (
    StandardDisjunction,
    _dedupe,
    basic_positive_indices,
    check_literals,
    to_standard_disjunctions,
)
from .syntax import Formula, Not, big_and, big_or, modal_depth, render


class RealizationError(RuntimeError):
    """An internal invariant of the construction was breached; this is a bug."""


def neg_action(index: int) -> str:
    """Base action played to support antecedent index ``index``."""
    return f"n{index}"


def pos_action(index: int) -> str:
    """Base action counting toward consequent index ``index``."""
    return f"p{index}"


@dataclass(frozen=True)
class Blueprint:
    """Finite-support listing of formulas per full profile over the base actions."""

    agents: int
    base_actions: tuple[str, ...]
    listing: dict[tuple[str, ...], frozenset[Formula]]

    def __post_init__(self):
        table = {}
        base = frozenset(self.base_actions)
        for profile, formulas in self.listing.items():
            profile = tuple(profile)
            if len(profile) != self.agents:
                raise ValueError(f"profile {profile!r} must list one action per agent")
            if not base.issuperset(profile):
                raise ValueError(f"profile {profile!r} plays an action that is not a base action")
            formulas = frozenset(formulas)
            if formulas:
                table[profile] = formulas
        object.__setattr__(self, "base_actions", tuple(self.base_actions))
        object.__setattr__(self, "listing", table)


def support(negatives, coalition, ja: tuple[int, ...]) -> frozenset[int]:
    """Antecedent indices whose coalition lies inside ``coalition`` and whose
    members all play that index's base action in the joint action ``ja`` (the
    members' base-action numbers in agent order, number ``i`` standing for
    antecedent index ``i``); empty-coalition indices always qualify."""
    actions = dict(zip(sorted(coalition), ja))
    found = set()
    for i, (a_i, _) in enumerate(negatives):
        if a_i <= coalition and all(actions[a] == i for a in a_i):
            found.add(i)
    return frozenset(found)


def impeach(ja: tuple[int, ...], n_negative: int, n_positive: int) -> int:
    """Sum of the consequent indices played, modulo the consequent count.
    Base-action number ``n_negative + j`` stands for consequent index ``j``;
    the smaller numbers are antecedent indices and count nothing."""
    if n_positive < 1:
        raise ValueError("need at least one consequent index")
    return sum(a - n_negative for a in ja if a >= n_negative) % n_positive


def build_blueprint(clause: StandardDisjunction, logic: LogicId) -> Blueprint:
    """Blueprint whose realization satisfies the clause's negation, its
    standard conjunction /\\ <A_i>phi_i ^ /\\ ~<B_j>psi_j, at the root
    (the literals of ~gamma are the root's labels, given to :func:`realize`).

    Requires that every reduction of the clause fails for the logic
    (otherwise some listed formula is unsatisfiable, detected downstream).
    Profiles are enumerated as tuples of base-action numbers: with ``k``
    antecedent indices, number ``i < k`` is antecedent index ``i`` and
    number ``k + j`` consequent index ``j``.  A profile's listing depends
    only on its support and, under D, on the index it impeaches, so each
    such key's listing is built once; only a listed profile is named, by
    its base actions.  A profile gets a nonempty listing exactly when its
    support is neat.  Raises :class:`cglogic.models.ProfileCapError` before
    enumerating more than :data:`cglogic.models.PROFILE_CAP` profiles.
    """
    negatives = clause.negatives
    positives = clause.positives
    ag = frozenset(range(clause.agents))
    base = tuple(neg_action(i) for i in range(len(negatives))) + tuple(
        pos_action(j) for j in range(len(positives))
    )
    check_profile_count(itertools.repeat(len(base), clause.agents), "blueprint")
    listings: dict[tuple[frozenset[int], int], frozenset[Formula]] = {}
    listing: dict[tuple[str, ...], frozenset[Formula]] = {}
    for numbers in itertools.product(range(len(base)), repeat=clause.agents):
        supp = support(negatives, ag, numbers)
        target = impeach(numbers, len(negatives), len(positives)) if logic.has_D else 0
        formulas = listings.get((supp, target))
        if formulas is None:
            formulas = listings[supp, target] = _listing(clause, logic, supp, target)
        if formulas:
            listing[tuple(base[a] for a in numbers)] = formulas
    return Blueprint(clause.agents, base, listing)


def _listing(clause, logic: LogicId, supp, target) -> frozenset[Formula]:
    """Formulas listed for a profile with support ``supp`` that, under D,
    impeaches consequent index ``target``; empty unless the support is neat."""
    negatives = clause.negatives
    positives = clause.positives
    if not is_neat(supp, negatives, logic):
        return frozenset()
    phis = [negatives[i][1] for i in sorted(supp)]
    cover = frozenset().union(*(negatives[i][0] for i in supp))
    if logic.has_D:
        if not cover <= positives[target][0]:
            target = 0
        parts = phis + [Not(positives[target][1])]
        basics = sorted(basic_positive_indices(clause))
        parts += [Not(positives[k][1]) for k in basics if k != target]
        return frozenset([big_and(_dedupe(parts))])
    return frozenset(
        big_and(_dedupe(phis + [Not(psi_j)])) for b_j, psi_j in positives if cover <= b_j
    )


ROOT_STATE = "s0"


def check_regular(bp: Blueprint, logic: LogicId, sat) -> bool:
    """Regularity: listed formulas satisfiable (via the oracle), plus the
    frame properties the logic assumes, checked by the model's frame checks
    (:func:`cglogic.models.frame_violation`) on the row :func:`realize` gives
    the root: the listed profiles, sorted, each with one outcome bit per
    listed formula.  Its available joint actions are the performable ones."""
    for formulas in bp.listing.values():
        for chi in formulas:
            if not sat(chi):
                return False
    listed = sorted(bp.listing)
    row = {n: (1 << len(bp.listing[profile])) - 1 for n, profile in enumerate(listed)}
    return frame_violation(logic, bp.agents, (ROOT_STATE,), (row,), listed) is None


def realize(bp: Blueprint, gamma, provider, logic: LogicId) -> PointedModel:
    """Glue provider-supplied submodels under a fresh root state.

    ``gamma`` is a set of propositional literals, ``(Atom, polarity)``
    pairs as in :class:`~cglogic.normalform.StandardDisjunction`, without
    complementary pairs; the root is labeled with its positive atoms.
    ``provider`` maps each listed formula to a pointed model of the right
    logic satisfying it.  The glued model is built in index form: each
    submodel's states follow the ones before it, so its rows and label
    masks are shifted by that state offset and its profile numbers by the
    profiles before it.  Its
    state and action names are prefixed with the profile and the formula's
    position, keeping the namespaces disjoint; the base actions never
    contain ``#`` and survive unchanged.  The root lists each listed profile
    with the mask of its submodels' roots.  The realization conditions are
    verified on the glued model and any breach raises RealizationError.
    """
    gamma = frozenset(gamma)
    check_literals(gamma)
    for atom, positive in gamma:
        if (atom, not positive) in gamma:
            raise ValueError(f"gamma contains complementary pair on {atom.name!r}")

    listed = sorted(bp.listing)
    states = [ROOT_STATE]
    actions = list(bp.base_actions)
    profiles = list(listed)
    root_row: dict[int, int] = {}
    rows = [root_row]
    label_masks = {atom.name: 1 for atom, positive in gamma if positive}
    atoms = {atom.name for atom, _ in gamma}
    witness_roots: list[tuple[tuple[str, ...], Formula, str]] = []

    for number, profile in enumerate(listed):
        roots = 0
        for k, formula in enumerate(sorted(bp.listing[profile], key=render)):
            pointed = provider(formula)
            sub = pointed.model
            if sub.agents != bp.agents:
                raise RealizationError("submodel has a different agent count")
            prefix = f"{','.join(profile)}#{k}#"
            offset, shift = len(states), len(profiles)
            renamed = {action: prefix + action for action in sub.actions}
            states.extend([prefix + state for state in sub.states])
            actions.extend(renamed.values())
            profiles.extend([tuple(map(renamed.__getitem__, p)) for p in sub.profiles])
            rows.extend(
                [{n + shift: mask << offset for n, mask in row.items()} for row in sub.rows]
            )
            for atom, mask in sub.label_masks.items():
                label_masks[atom] = label_masks.get(atom, 0) | mask << offset
            atoms.update(sub.atoms)
            root = offset + sub.index[pointed.state]
            roots |= 1 << root
            witness_roots.append((profile, formula, states[root]))
        root_row[number] = roots

    model = Model._glued(bp.agents, actions, states, profiles, rows, label_masks, atoms)
    _verify_realization(model, bp, gamma, witness_roots, logic)
    return PointedModel(model, ROOT_STATE)


def _verify_realization(model: Model, bp: Blueprint, gamma, witness_roots, logic: LogicId):
    full = model.full_coalition()
    # Every coalition's available joint actions are the projections of the
    # root's listed profiles, and its performable ones the projections of the
    # blueprint's, so equal profile sets give equal availability for every
    # coalition.
    if available_actions(model, ROOT_STATE, full) != set(bp.listing):
        raise RealizationError("availability at the root differs from the blueprint")
    root_bit = 1 << model.index[ROOT_STATE]
    for atom, positive in gamma:
        if positive != bool(model.label_masks.get(atom.name, 0) & root_bit):
            literal = render(atom if positive else Not(atom))
            raise RealizationError(f"root does not satisfy literal {literal!r}")
    for profile, formula, root in witness_roots:
        if not satisfies(model, root, formula):
            raise RealizationError(f"glued submodel lost its formula {render(formula)!r}")
        if not enables(model, ROOT_STATE, full, profile, formula):
            raise RealizationError(f"profile {profile!r} fails to enable {render(formula)!r}")
    for profile, formulas in bp.listing.items():
        listed = big_or(sorted(formulas, key=render))
        if not ensures(model, ROOT_STATE, full, profile, listed):
            raise RealizationError(f"profile {profile!r} fails to ensure its listed disjunction")
    report = validate_model(model, logic)
    if not report.passed:
        raise RealizationError(f"glued model is not a {logic}-model: {report.violation.describe()}")


def _loop_model(true_atoms, atoms, agents: int) -> PointedModel:
    # Every profile maps the single state to itself, so all three frame
    # properties hold and the model fits every logic.
    model = Model(
        agents,
        ("a",),
        (ROOT_STATE,),
        {ROOT_STATE: {("a",) * agents: frozenset({ROOT_STATE})}},
        {ROOT_STATE: frozenset(true_atoms)},
        tuple(sorted(atoms)),
    )
    return PointedModel(model, ROOT_STATE)


def synthesize(f: Formula, logic: LogicId, agents: int) -> PointedModel | None:
    """Pointed model of the logic satisfying f, or None when f is unsatisfiable.

    Depth-0 formulas become one-state loop models over a satisfying
    valuation.  Otherwise the negation is normalized; for a clause with no
    reduction witness a blueprint of its negation, the standard conjunction,
    is built, the listed formulas are synthesized recursively (all strictly
    shallower) and glued by :func:`realize` under a root labeled by the
    complemented gamma.  One validity oracle and one formula -> pointed
    model memo serve every recursion level of the query, and every level's
    realization is verified.
    """
    check_agents(f, agents)
    rec = validity_oracle(logic, agents)
    return _synthesize(f, logic, agents, rec, {})


def _synthesize(f, logic, agents, rec, memo) -> PointedModel | None:
    if modal_depth(f) == 0:
        assignment = find_assignment(f, True, key=lambda atom: atom.name)
        if assignment is None:
            return None
        true_atoms = [atom.name for atom, value in assignment.items() if value]
        return _loop_model(true_atoms, [atom.name for atom in assignment], agents)

    clauses = to_standard_disjunctions(Not(f), agents)
    chosen = next((c for c in clauses if reduction_witness(c, logic, rec) is None), None)
    if chosen is None:
        return None

    # Each level makes its own provider: a shared one would call itself, a
    # reference cycle keeping the query's models until the cyclic GC runs.
    def provider(chi: Formula) -> PointedModel:
        if chi not in memo:
            pointed = _synthesize(chi, logic, agents, rec, memo)
            if pointed is None:
                raise RealizationError(f"listed formula unexpectedly unsatisfiable: {render(chi)}")
            memo[chi] = pointed
        return memo[chi]

    gamma = frozenset((atom, not positive) for atom, positive in chosen.gamma)
    pointed = realize(build_blueprint(chosen, logic), gamma, provider, logic)
    if not satisfies(pointed.model, pointed.state, f):
        raise RealizationError(f"synthesized model does not satisfy {render(f)!r}")
    return pointed
