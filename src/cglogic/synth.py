"""Countermodel synthesis: blueprints from satisfiable standard conjunctions,
their realization by model gluing, and recursive end-to-end synthesis.

A blueprint names one base action per antecedent index and one per consequent
index of the source clause, and lists, for every full action profile over
those base actions, finitely many formulas the profile must enable.  Realizing
it glues a fresh root onto recursively synthesized submodels, one per listed
formula; the root lists exactly the blueprint's listed profiles, so every
coalition's available joint actions are the projections of the listed
profiles, as they are in a model (:meth:`cglogic.models.Model.projection`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .decide import check_agents, find_assignment, is_neat, reduction_witness, validity_oracle
from .logics import LogicId
from .mcheck import enables, ensures, satisfies
from .models import (
    Model,
    PointedModel,
    available_actions,
    check_profile_count,
    independence_witness,
    validate_model,
)
from .normalform import (
    DEFAULT_CLAUSE_CAP,
    Literal,
    StandardConjunction,
    _dedupe,
    basic_positive_indices,
    negate,
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


_POS_RE = re.compile(r"p(\d+)\Z")


def _positive_index(action: str) -> int | None:
    match = _POS_RE.fullmatch(action)
    return int(match.group(1)) if match else None


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


def support(negatives, coalition, ja: tuple[str, ...]) -> frozenset[int]:
    """Antecedent indices whose coalition lies inside ``coalition`` and whose
    members all play that index's base action in the joint action ``ja`` (the
    members' actions in agent order); empty-coalition indices always
    qualify."""
    actions = dict(zip(sorted(coalition), ja))
    found = set()
    for i, (a_i, _) in enumerate(negatives):
        if a_i <= coalition and all(actions[a] == neg_action(i) for a in a_i):
            found.add(i)
    return frozenset(found)


def impeach(ja: tuple[str, ...], n_positive: int) -> int:
    """Sum of the consequent indices played, modulo the consequent count."""
    if n_positive < 1:
        raise ValueError("need at least one consequent index")
    total = 0
    for action in ja:
        j = _positive_index(action)
        if j is not None:
            total += j
    return total % n_positive


def build_blueprint(sc: StandardConjunction, logic: LogicId) -> Blueprint:
    """Blueprint whose realization satisfies the standard conjunction.

    Requires that every reduction of the negated clause fails for the logic
    (otherwise some listed formula is unsatisfiable, detected downstream).
    A profile gets a nonempty listing exactly when its support is neat.
    Raises :class:`cglogic.models.ProfileCapError` before enumerating more
    than :data:`cglogic.models.PROFILE_CAP` profiles.
    """
    negatives = sc.negatives
    positives = sc.positives
    ag = frozenset(range(sc.agents))
    base = tuple(neg_action(i) for i in range(len(negatives))) + tuple(
        pos_action(j) for j in range(len(positives))
    )
    basics = sorted(basic_positive_indices(sc))
    check_profile_count(itertools.repeat(len(base), sc.agents), "blueprint")
    listing: dict[tuple[str, ...], frozenset[Formula]] = {}
    for profile in itertools.product(base, repeat=sc.agents):
        supp = support(negatives, ag, profile)
        if not is_neat(supp, negatives, logic):
            continue
        phis = [negatives[i][1] for i in sorted(supp)]
        cover = frozenset().union(*(negatives[i][0] for i in supp)) if supp else frozenset()
        if logic.has_D:
            target = impeach(profile, len(positives))
            if not cover <= positives[target][0]:
                target = 0
            parts = phis + [Not(positives[target][1])]
            parts += [Not(positives[k][1]) for k in basics if k != target]
            formulas = [big_and(_dedupe(parts))]
        else:
            formulas = [
                big_and(_dedupe(phis + [Not(psi_j)]))
                for b_j, psi_j in positives
                if cover <= b_j
            ]
        listing[profile] = frozenset(formulas)
    return Blueprint(sc.agents, base, listing)


def check_regular(bp: Blueprint, logic: LogicId, sat) -> bool:
    """Regularity: listed formulas satisfiable (via the oracle), plus the
    blueprint-level analogues of the frame properties the logic assumes.

    A coalition's performable joint actions are the projections of the listed
    profiles, as its available joint actions are in a model
    (:meth:`cglogic.models.Model.projection`), so the model-level
    characterisations apply: S holds iff some profile is listed, and I iff
    the listed profiles are the product of their per-agent projections
    (proofs at :func:`cglogic.models.independence_witness`)."""
    for formulas in bp.listing.values():
        for chi in formulas:
            if not sat(chi):
                return False
    if logic.has_S and not bp.listing:
        return False
    if logic.has_I and independence_witness(bp.listing) is not None:
        return False
    if logic.has_D:
        for formulas in bp.listing.values():
            if len(formulas) != 1:
                return False
    return True


ROOT_STATE = "s0"


def realize(bp: Blueprint, gamma, provider, logic: LogicId) -> PointedModel:
    """Glue provider-supplied submodels under a fresh root state.

    ``gamma`` is a set of propositional literals without complementary pairs;
    the root is labeled with its positive atoms.  ``provider`` maps each
    listed formula to a pointed model of the right logic satisfying it.
    The glued model is built in index form: each submodel's states follow
    the ones before it, so its rows and label masks are shifted by that
    state offset and its profile numbers by the profiles before it.  Its
    state and action names are prefixed with the profile and the formula's
    position, keeping the namespaces disjoint; the base actions never
    contain ``#`` and survive unchanged.  The root lists each listed profile
    with the mask of its submodels' roots.  The realization conditions are
    verified on the glued model and any breach raises RealizationError.
    """
    gamma = frozenset(gamma)
    for literal in gamma:
        if not isinstance(literal, Literal):
            raise ValueError(f"gamma may hold only propositional literals, got {literal!r}")
        if literal.complement() in gamma:
            raise ValueError(f"gamma contains complementary pair on {literal.atom!r}")

    listed = sorted(bp.listing)
    states = [ROOT_STATE]
    actions = list(bp.base_actions)
    profiles = list(listed)
    root_row: dict[int, int] = {}
    rows = [root_row]
    label_masks = {literal.atom: 1 for literal in gamma if literal.positive}
    atoms = {literal.atom for literal in gamma}
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
    for literal in gamma:
        if literal.positive != bool(model.label_masks.get(literal.atom, 0) & root_bit):
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


def synthesize(
    f: Formula, logic: LogicId, agents: int, clause_cap: int = DEFAULT_CLAUSE_CAP
) -> PointedModel | None:
    """Pointed model of the logic satisfying f, or None when f is unsatisfiable.

    Depth-0 formulas become one-state loop models over a satisfying
    valuation.  Otherwise the negation is normalized; a clause with no
    reduction witness is negated into a standard conjunction, its blueprint
    is built, the listed formulas are synthesized recursively (all strictly
    shallower) and glued by :func:`realize`.
    """
    check_agents(f, agents)
    if modal_depth(f) == 0:
        assignment = find_assignment(f, True, key=lambda atom: atom.name)
        if assignment is None:
            return None
        true_atoms = [atom.name for atom, value in assignment.items() if value]
        return _loop_model(true_atoms, [atom.name for atom in assignment], agents)

    rec = validity_oracle(logic, agents, clause_cap)
    chosen = None
    for clause in to_standard_disjunctions(Not(f), agents, clause_cap):
        if reduction_witness(clause, logic, rec) is None:
            chosen = clause
            break
    if chosen is None:
        return None

    sc = negate(chosen)
    bp = build_blueprint(sc, logic)
    cache: dict[Formula, PointedModel] = {}

    def provider(chi: Formula) -> PointedModel:
        if chi not in cache:
            pointed = synthesize(chi, logic, agents, clause_cap)
            if pointed is None:
                raise RealizationError(
                    f"listed formula unexpectedly unsatisfiable: {render(chi)}"
                )
            cache[chi] = pointed
        return cache[chi]

    pointed = realize(bp, sc.gammaC, provider, logic)
    if not satisfies(pointed.model, pointed.state, f):
        raise RealizationError(f"synthesized model does not satisfy {render(f)!r}")
    return pointed
