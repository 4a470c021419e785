"""Explicit finite general concurrent game models.

A model stores the grand-coalition outcome table sparsely: profiles without a
listed entry have empty outcome.  A joint action of a coalition C is the tuple
of its members' actions in agent order, ``tuple(p[a] for a in sorted(C))``, so
a full profile is the grand coalition's joint action.  Coalition outcomes and
availability are derived by the union-over-extensions rule, written once in
:func:`coalition_table`, which groups the listed entries instead of
enumerating all action profiles.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


class ModelError(ValueError):
    """Malformed model data: dangling references, duplicates, bad shapes."""


@dataclass(frozen=True)
class FrameProperties:
    serial: bool
    independent: bool
    deterministic: bool


@dataclass(frozen=True)
class Violation:
    """Witness for a failed frame property."""

    prop: str
    state: str
    coalitions: tuple[frozenset[int], ...]
    joint_actions: tuple[tuple[str, ...], ...]

    def describe(self) -> str:
        coals = ", ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in self.coalitions)
        actions = ", ".join(
            repr(dict(zip(sorted(c), a))) for c, a in zip(self.coalitions, self.joint_actions)
        )
        text = f"{self.prop} fails at state {self.state!r} (coalitions {coals}"
        if actions:
            text += f"; joint actions {actions}"
        return text + ")"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violation: Violation | None = None


@dataclass(frozen=True)
class Model:
    """Finite general concurrent game model.

    ``outcomes`` maps state -> profile tuple -> outcome set; entries with an
    empty outcome set are dropped on construction, so "listed" and
    "available with nonempty outcome" coincide.

    ``sat_cache`` is :func:`cglogic.mcheck.sat_states`'s store of results,
    formula -> satisfying states.  A model never changes, so neither do they.
    It takes no part in construction, equality, repr or JSON.
    """

    agents: int
    actions: tuple[str, ...]
    states: tuple[str, ...]
    outcomes: dict[str, dict[tuple[str, ...], frozenset[str]]]
    labels: dict[str, frozenset[str]]
    atoms: tuple[str, ...] = ()
    sat_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.agents < 1:
            raise ModelError("a model needs at least one agent")
        states = tuple(self.states)
        actions = tuple(self.actions)
        if not states:
            raise ModelError("a model needs at least one state")
        if not actions:
            raise ModelError("a model needs at least one action")
        if len(set(states)) != len(states):
            raise ModelError("duplicate state names")
        if len(set(actions)) != len(actions):
            raise ModelError("duplicate action names")
        state_set = set(states)
        action_set = set(actions)

        table: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}
        for state in self.outcomes:
            if state not in state_set:
                raise ModelError(f"outcome entry for unknown state {state!r}")
        for state in states:
            entries = {}
            for profile, targets in sorted(self.outcomes.get(state, {}).items()):
                profile = tuple(profile)
                if len(profile) != self.agents:
                    raise ModelError(
                        f"profile {profile!r} at state {state!r} must list one action per agent"
                    )
                if not action_set.issuperset(profile):
                    action = next(a for a in profile if a not in action_set)
                    raise ModelError(f"unknown action {action!r} at state {state!r}")
                targets = frozenset(targets)
                if not targets <= state_set:
                    target = next(t for t in targets if t not in state_set)
                    raise ModelError(f"unknown outcome state {target!r} at state {state!r}")
                if targets:
                    entries[profile] = targets
            if entries:
                table[state] = entries

        labels: dict[str, frozenset[str]] = {}
        atom_pool = set(self.atoms)
        for state in self.labels:
            if state not in state_set:
                raise ModelError(f"labels for unknown state {state!r}")
        for state in states:
            marked = frozenset(self.labels.get(state, ()))
            atom_pool.update(marked)
            labels[state] = marked

        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "outcomes", table)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "atoms", tuple(sorted(atom_pool)))

    def entries(self, state: str) -> dict[tuple[str, ...], frozenset[str]]:
        """Listed (nonempty-outcome) profiles at a state."""
        if state not in self.labels:
            raise ModelError(f"unknown state {state!r}")
        return self.outcomes.get(state, {})

    def full_coalition(self) -> frozenset[int]:
        return frozenset(range(self.agents))


@dataclass(frozen=True)
class PointedModel:
    model: Model
    state: str

    def __post_init__(self):
        if self.state not in self.model.labels:
            raise ModelError(f"pointed state {self.state!r} not in model")


def _check_coalition(m: Model, coalition) -> frozenset[int]:
    coalition = frozenset(coalition)
    if not all(0 <= a < m.agents for a in coalition):
        raise ModelError(f"coalition {sorted(coalition)} out of range for {m.agents} agent(s)")
    return coalition


def coalition_table(table, members) -> dict[tuple[str, ...], set]:
    """Each available joint action of a coalition, with the union of its entries.

    ``table`` maps listed full profiles to nonempty sets, like a state's
    :meth:`Model.entries` or a blueprint's listing; ``members`` is the
    coalition in agent order.  A full profile extends a joint action exactly
    when its projection onto the members is that joint action, so grouping
    the listed profiles by projection gives every joint action with a
    nonempty union over its extensions, and only those.
    """
    grouped: dict[tuple[str, ...], set] = {}
    for profile, entries in table.items():
        grouped.setdefault(tuple(profile[a] for a in members), set()).update(entries)
    return grouped


def outcome(m: Model, state: str, coalition, ja: tuple[str, ...]) -> frozenset[str]:
    """Union of grand-coalition outcomes over all full profiles extending ja."""
    coalition = _check_coalition(m, coalition)
    ja = tuple(ja)
    if len(ja) != len(coalition):
        raise ValueError("joint action must list one action per coalition member")
    for action in ja:
        if action not in m.actions:
            raise ModelError(f"unknown action {action!r}")
    entries = m.entries(state)
    if len(coalition) == m.agents:
        return entries.get(ja, frozenset())
    return frozenset(coalition_table(entries, sorted(coalition)).get(ja, ()))


def available_actions(m: Model, state: str, coalition) -> set[tuple[str, ...]]:
    """Joint actions of the coalition with nonempty derived outcome."""
    coalition = _check_coalition(m, coalition)
    return set(coalition_table(m.entries(state), sorted(coalition)))


def coalitions(agents: int):
    """All coalitions over 0..agents-1, smallest first, deterministic order."""
    for size in range(agents + 1):
        for combo in itertools.combinations(range(agents), size):
            yield frozenset(combo)


def _serial_violation(m: Model) -> Violation | None:
    """First state where some coalition has no available joint action.

    Availability for a coalition C is the projection {p|C : p in P} of the
    state's listed profiles P.  A projection is empty exactly when P is, so
    S holds iff every state lists at least one profile, and a state with no
    listed profile fails for every coalition.  The witness is that state
    with the empty coalition, the first coalition in :func:`coalitions`
    order, which is the witness an exhaustive search over coalitions finds.
    """
    for state in m.states:
        if not m.entries(state):
            return Violation("serial", state, (frozenset(),), ())
    return None


def independence_witness(
    profiles,
) -> tuple[tuple[frozenset[int], ...], tuple[tuple[str, ...], ...]] | None:
    """Witness that a set of full profiles breaks independence, or None.

    ``profiles`` holds distinct profile tuples of one length and answers
    ``len`` and ``in``, like the keys of an outcome table.  Let P be the
    profiles and pi_i(P) their actions for agent i.  P is always a subset of
    the product of the pi_i(P), and independence holds iff the two are
    equal, which a size comparison decides.  If P is a product, the
    joint actions available to a coalition C are the product of pi_i(P) over
    i in C, and a product is closed under merging disjoint joint actions.
    Conversely, if merges stay available, merging singletons one agent at a
    time builds every profile of the product, so the product lies in P.

    On failure let q be the first profile of the product, in sorted order,
    that is missing from P, and i >= 1 the least agent such that q restricted
    to agents 0..i is not a prefix of a profile in P (q_0 is a prefix, q is
    not listed, so i exists).  Then q restricted to 0..i-1 is available to
    {0..i-1}, q_i is available to {i}, and their merge is not available.
    The witness is ``((frozenset(range(i)), frozenset({i})), (q[:i],
    (q[i],)))``.  Cost: agents times ``len(profiles)``, and on failure at
    most ``len(profiles) + 1`` product profiles visited.
    """
    if not profiles:
        return None
    columns = [set(column) for column in zip(*profiles)]
    if len(profiles) == math.prod(map(len, columns)):
        return None
    product = itertools.product(*map(sorted, columns))
    missing = next(q for q in product if q not in profiles)
    i = next(
        i for i in range(1, len(missing)) if missing[: i + 1] not in {p[: i + 1] for p in profiles}
    )
    return (
        (frozenset(range(i)), frozenset({i})),
        (missing[:i], (missing[i],)),
    )


def _independent_violation(m: Model) -> Violation | None:
    """First state whose listed profiles are not the product of their
    per-agent projections; see :func:`independence_witness`."""
    for state in m.states:
        witness = independence_witness(m.entries(state))
        if witness is not None:
            return Violation("independent", state, *witness)
    return None


def _deterministic_violation(m: Model) -> Violation | None:
    full = m.full_coalition()
    for state in m.states:
        for profile, targets in m.entries(state).items():
            if len(targets) > 1:
                return Violation("deterministic", state, (full,), (profile,))
    return None


_CHECKS = (
    ("serial", "has_S", _serial_violation),
    ("independent", "has_I", _independent_violation),
    ("deterministic", "has_D", _deterministic_violation),
)


def frame_properties(m: Model) -> FrameProperties:
    return FrameProperties(
        serial=_serial_violation(m) is None,
        independent=_independent_violation(m) is None,
        deterministic=_deterministic_violation(m) is None,
    )


def validate_model(m: Model, logic) -> ValidationReport:
    """Check the frame properties named by the logic; report the first failure."""
    for _, flag, finder in _CHECKS:
        if getattr(logic, flag):
            violation = finder(m)
            if violation is not None:
                return ValidationReport(False, violation)
    return ValidationReport(True)


def _model_to_doc(m: Model, pointed: str | None) -> dict:
    doc = {
        "agents": m.agents,
        "actions": list(m.actions),
        "states": list(m.states),
        "atoms": list(m.atoms),
        "labels": {state: sorted(m.labels[state]) for state in m.states},
        "outcomes": [
            {"state": state, "profile": list(profile), "to": sorted(targets)}
            for state in m.states
            for profile, targets in sorted(m.entries(state).items())
        ],
    }
    if pointed is not None:
        if pointed not in m.labels:
            raise ModelError(f"pointed state {pointed!r} not in model")
        doc["pointed"] = pointed
    return doc


def _model_from_doc(doc: dict) -> tuple[Model, str | None]:
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    for key in ("agents", "actions", "states"):
        if key not in doc:
            raise ModelError(f"model file is missing {key!r}")
    agents = doc["agents"]
    if not isinstance(agents, int) or agents < 1:
        raise ModelError("agents must be a positive integer")
    states = list(map(str, doc["states"]))
    actions = list(map(str, doc["actions"]))
    atoms = list(map(str, doc.get("atoms", [])))
    labels = {str(s): frozenset(map(str, marked)) for s, marked in doc.get("labels", {}).items()}
    for state, marked in labels.items():
        unknown = marked - set(atoms)
        if atoms and unknown:
            raise ModelError(f"label {sorted(unknown)} at state {state!r} not among declared atoms")
    table: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}
    for entry in doc.get("outcomes", []):
        try:
            state = str(entry["state"])
            profile = tuple(map(str, entry["profile"]))
            targets = frozenset(map(str, entry["to"]))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad outcome entry {entry!r}") from exc
        row = table.setdefault(state, {})
        if profile in row:
            raise ModelError(f"duplicate outcome key ({state!r}, {list(profile)})")
        row[profile] = targets
    model = Model(agents, tuple(actions), tuple(states), table, labels, tuple(atoms))
    pointed = doc.get("pointed")
    if pointed is not None:
        pointed = str(pointed)
        if pointed not in model.labels:
            raise ModelError(f"pointed state {pointed!r} not in model")
    return model, pointed


def save_model(m: Model, path, pointed: str | None = None) -> None:
    doc = _model_to_doc(m, pointed)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path) -> Model:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    model, _ = _model_from_doc(doc)
    return model


def load_pointed_model(path) -> PointedModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    model, pointed = _model_from_doc(doc)
    if pointed is None:
        raise ModelError("model file has no 'pointed' state")
    return PointedModel(model, pointed)


@dataclass(frozen=True)
class RandomModelConfig:
    num_states: int = 4
    num_actions: int = 2
    agents: int = 2
    branching: int = 2


def random_model(cfg: RandomModelConfig, logic, seed, atoms=("p", "q", "r")) -> Model:
    """Seeded random model guaranteed to satisfy the logic's frame properties.

    Availability is generated agent-wise when independence is required (a
    profile is enabled iff each agent's action is individually enabled),
    which yields independent frames by construction; seriality keeps every
    per-agent enabled set nonempty, and determinism truncates outcome sets
    to singletons.
    """
    import random as _random

    if min(cfg.num_states, cfg.num_actions, cfg.agents, cfg.branching) < 1:
        raise ValueError("all RandomModelConfig bounds must be >= 1")
    rng = _random.Random(seed)
    states = [f"s{i}" for i in range(cfg.num_states)]
    actions = [f"a{i}" for i in range(cfg.num_actions)]
    outcomes: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}
    labels: dict[str, frozenset[str]] = {}
    for state in states:
        if logic.has_I:
            lowest = 1 if logic.has_S else 0
            enabled = [
                rng.sample(actions, rng.randint(lowest, len(actions)))
                for _ in range(cfg.agents)
            ]
            chosen = list(itertools.product(*enabled))
        else:
            pool = list(itertools.product(actions, repeat=cfg.agents))
            count = rng.randint(1 if logic.has_S else 0, len(pool))
            chosen = rng.sample(pool, count)
        entries = {}
        for profile in chosen:
            width = 1 if logic.has_D else rng.randint(1, cfg.branching)
            entries[profile] = frozenset(rng.sample(states, min(width, len(states))))
        if entries:
            outcomes[state] = entries
        labels[state] = frozenset(a for a in atoms if rng.random() < 0.5)
    return Model(cfg.agents, tuple(actions), tuple(states), outcomes, labels, tuple(atoms))
