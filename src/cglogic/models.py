"""Explicit finite general concurrent game models, stored in index form.

State *i* of a model is bit *i* of an ``int``, so a set of states is a mask.
Each atom's label set is one mask, and each state lists its profiles as
small integers, each with the mask of its outcome states.  Profiles are
numbered by their first occurrence in the model, not over actions^agents,
because a glued countermodel carries hundreds of prefixed actions but lists
few of their profiles.

A joint action of a coalition C is the tuple of its members' actions in agent
order, ``tuple(p[a] for a in sorted(C))``, so a full profile is the grand
coalition's joint action.  A joint action's outcome is the union over the
listed profiles that extend it.  :meth:`Model.projection` numbers a
coalition's joint actions and maps every profile number onto one, once per
model and coalition; availability, outcomes and the ``<C>`` clause of model
checking read it.

A model is built by one of three routes, and ``Model._adopt`` is the one
place that sets the index form for all of them:

- the ``Model(...)`` constructor runs the validating pass over its nested
  outcome table, and :func:`load_model` over the model file's entry list;
- :func:`cglogic.synth.realize` glues validated models by state offset and
  hands over the finished index form; only the names are checked again.

No model keeps a string table: the string view (``outcomes``, ``labels``,
:meth:`Model.entries`) is derived from the index form on first use.  Model
checking, the frame checks and :func:`save_model` work on masks and name
states and joint actions only in a failure's witness or in the written
file.  The frame checks read rows, so they also check a blueprint's root
row (:func:`cglogic.synth.check_regular`).

A model file is exactly ``json.dumps(doc, indent=2) + "\\n"`` of the
document that :func:`save_model` describes.  :func:`save_model` writes that
layout directly from the index form rather than through ``json.dumps``,
whose ``indent`` option bypasses the C encoder; the tests hold the two to
the same bytes.  :func:`load_model` reads each entry of the decoded file
once, with the cyclic collector paused while it decodes and indexes: the
decoded tree has no cycles, so reference counting frees it, and the switch,
though process-wide, is off for at most one load.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path


class ModelError(ValueError):
    """Malformed model data: dangling references, duplicates, bad shapes."""


# Most full profiles a random model may enumerate at one state, or a blueprint
# in all.  Their count is |actions|^agents, so it is the agent count that runs
# away; the tests enumerate at most 216 and the benchmark at most 512 (8 base
# actions, 3 agents), and a blueprint takes about 20 us per profile.
PROFILE_CAP = 100_000


class ProfileCapError(RuntimeError):
    """Enumerating the profiles would exceed :data:`PROFILE_CAP`."""


def check_profile_count(sizes, what: str) -> None:
    """Raise :class:`ProfileCapError` when the profiles over per-agent action
    sets of the given sizes, the product of the sizes, exceed the cap.  The
    product is formed only up to the cap."""
    count = 1
    for size in sizes:
        count *= size
        if count > PROFILE_CAP:
            raise ProfileCapError(
                f"{what} would enumerate more than {PROFILE_CAP} action profiles"
                " (the profile cap)"
            )


def check_count(count: int, noun: str) -> None:
    """Raise ValueError for a count of agents, states or actions (``noun``)
    that is not an int (a bool is not a count), before it is compared with
    anything, and :class:`ProfileCapError` for more than :data:`PROFILE_CAP`,
    before anything is built for them: a single profile would be that long,
    or their names alone take gigabytes."""
    if type(count) is not int:
        raise ValueError(f"{noun} count {count!r} must be an int")
    if count > PROFILE_CAP:
        cap = f"the {noun} cap ({PROFILE_CAP}, the profile cap)"
        raise ProfileCapError(f"{count} {noun}s exceed {cap}")


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


def _known(name, names) -> bool:
    """``name in names``, false for an unhashable name such as a list read
    from a model file."""
    try:
        return name in names
    except TypeError:
        return False


def _bit_numbers(mask: int) -> list[int]:
    """The numbers of the set bits of a mask, lowest first."""
    digits = bin(mask)[:1:-1]
    numbers = []
    n = digits.find("1")
    while n >= 0:
        numbers.append(n)
        n = digits.find("1", n + 1)
    return numbers


def _check_names(agents, states: tuple, actions: tuple) -> tuple[dict[str, int], frozenset[str]]:
    """A model's state index and action set, checked: at least one agent,
    state and action, and no name twice.  The agent count is checked first
    (:func:`check_count`), before anything is built for it."""
    check_count(agents, "agent")
    if agents < 1:
        raise ModelError("a model needs at least one agent")
    if not states:
        raise ModelError("a model needs at least one state")
    if not actions:
        raise ModelError("a model needs at least one action")
    index = dict(zip(states, range(len(states))))
    if len(index) != len(states):
        raise ModelError("duplicate state names")
    action_set = frozenset(actions)
    if len(action_set) != len(actions):
        raise ModelError("duplicate action names")
    return index, action_set


def _number_profile(numbers: dict, profile: tuple, state, agents: int, action_set) -> int:
    """Number a profile at its first occurrence, after checking that it lists
    one known action per agent."""
    if len(profile) != agents:
        raise ModelError(f"profile {profile!r} at state {state!r} must list one action per agent")
    for action in profile:
        if not _known(action, action_set):
            raise ModelError(f"unknown action {action!r} at state {state!r}")
    number = numbers[profile] = len(numbers)
    return number


def _targets_mask(targets, bit: dict, state) -> int:
    """The mask of a profile's outcome states; an unknown or unhashable one
    is a ModelError."""
    mask = 0
    try:
        for target in targets:
            mask |= bit[target]
    except (KeyError, TypeError):
        target = next(t for t in targets if not _known(t, bit))
        raise ModelError(f"unknown outcome state {target!r} at state {state!r}") from None
    return mask


def _table_entries(outcomes, row_of, bit, numbers, agents, action_set) -> None:
    """Read the constructor's table, state -> profile -> outcome states, into
    the rows.  A profile is checked when it first occurs; later occurrences
    are one dictionary lookup."""
    for state, table in outcomes.items():
        row = row_of.get(state)
        if row is None:
            raise ModelError(f"outcome entry for unknown state {state!r}")
        for profile, targets in table.items():
            try:
                number = numbers[profile]
            except (KeyError, TypeError):
                number = _number_profile(numbers, profile, state, agents, action_set)
            row[number] = _targets_mask(targets, bit, state)


class Model:
    """Finite general concurrent game model.

    ``Model(agents, actions, states, outcomes, labels, atoms)`` takes
    ``outcomes`` as state -> profile tuple -> outcome states and ``labels`` as
    state -> atoms.  Entries with an empty outcome set are dropped, so
    "listed" and "available with nonempty outcome" coincide.  ``atoms`` is
    the sorted union of the declared and the labelled atoms.

    Index form: ``index`` maps each state to its bit number and
    ``action_set`` holds the actions; ``profiles`` holds the distinct profile
    tuples by number and ``profile_numbers`` maps each back to its number;
    ``rows[i]`` maps the numbers of the profiles listed at state i to their
    outcome masks; ``label_masks`` maps each labelled atom to the mask of the
    states it labels.  ``outcomes`` and ``labels`` are the string view of the
    same data, derived from the index form on first use: for a constructed
    model, its input with empty outcome sets and empty rows dropped.
    Equality is structural and does not depend on how the profiles were
    numbered.

    ``mask_memo`` is model checking's one store (:mod:`cglogic.mcheck`),
    formula -> mask of the states where it holds, for every formula checked
    on the model and every ``<C>`` node inside one; answers by state name
    are named from it when asked for.  A model never changes, so neither
    does the memo.  It takes no part in equality.
    """

    __hash__ = None

    def __init__(self, agents, actions, states, outcomes, labels, atoms=()):
        self._index(agents, actions, states, _table_entries, outcomes, labels.items(), atoms)

    def _index(self, agents, actions, states, read, outcomes, labels, atoms) -> None:
        """The one validating pass that builds the index form; ``read``
        (:func:`_table_entries` or :func:`_file_entries`) fills the rows."""
        states = tuple(states)
        actions = tuple(actions)
        index, action_set = _check_names(agents, states, actions)
        bit = {state: 1 << i for i, state in enumerate(states)}
        numbers: dict[tuple[str, ...], int] = {}
        rows: list[dict[int, int]] = [{} for _ in states]
        read(outcomes, dict(zip(states, rows)), bit, numbers, agents, action_set)
        if any(0 in row.values() for row in rows):  # empty outcome sets are dropped
            rows = [{number: mask for number, mask in row.items() if mask} for row in rows]

        label_masks: dict[str, int] = {}
        for state, marked in labels:
            b = bit.get(state)
            if b is None:
                raise ModelError(f"labels for unknown state {state!r}")
            for atom in marked:
                label_masks[atom] = label_masks.get(atom, 0) | b

        self._adopt(agents, actions, action_set, states, index, numbers, rows, label_masks, atoms)

    @classmethod
    def _glued(cls, agents, actions, states, profiles, rows, label_masks, atoms) -> Model:
        """Model from an index form glued together from validated models
        (:func:`cglogic.synth.realize`): rows and label masks are taken as
        they are, and only the names are checked, for uniqueness."""
        states = tuple(states)
        actions = tuple(actions)
        index, action_set = _check_names(agents, states, actions)
        numbers = dict(zip(profiles, itertools.count()))
        model = cls.__new__(cls)
        model._adopt(agents, actions, action_set, states, index, numbers, rows, label_masks, atoms)
        return model

    def _adopt(self, agents, actions, action_set, states, index, numbers, rows, label_masks, atoms):
        """Set the index form; the one place its attributes are assigned.
        ``numbers`` maps each profile to its number, in number order."""
        self.agents = agents
        self.actions = actions
        self.action_set = action_set
        self.states = states
        self.atoms = tuple(sorted(label_masks.keys() | set(atoms)))
        self.index = index
        self.profiles = tuple(numbers)
        self.profile_numbers = numbers
        self.rows = tuple(rows)
        self.label_masks = label_masks
        self.mask_memo: dict = {}
        self._projections: dict = {}
        self._grand = frozenset(range(agents))

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (
            (self.agents, self.actions, self.states, self.atoms, self.label_masks)
            == (other.agents, other.actions, other.states, other.atoms, other.label_masks)
            and self._keyed_rows() == other._keyed_rows()
        )

    def _keyed_rows(self) -> list[dict[tuple[str, ...], int]]:
        profiles = self.profiles
        return [{profiles[n]: mask for n, mask in row.items()} for row in self.rows]

    def __repr__(self) -> str:
        return (
            f"Model(agents={self.agents!r}, actions={self.actions!r}, states={self.states!r},"
            f" outcomes={self.outcomes!r}, labels={self.labels!r}, atoms={self.atoms!r})"
        )

    def names(self, mask: int) -> frozenset[str]:
        """The states of a mask, by name."""
        return frozenset(map(self.states.__getitem__, _bit_numbers(mask)))

    def number(self, state: str) -> int:
        """A state's bit number; an unknown or unhashable state is a ModelError."""
        if not _known(state, self.index):
            raise ModelError(f"unknown state {state!r}")
        return self.index[state]

    def projection(self, coalition) -> tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]:
        """The coalition's projection of the model's distinct profiles.

        Returns, for each profile number, the number of the joint action the
        profile projects to, and the joint actions by number.  Computed once
        per model and coalition; the coalition must be in range.  The grand
        coalition's joint actions are the profiles themselves.
        """
        coalition = frozenset(coalition)
        if len(coalition) == self.agents:
            return range(len(self.profiles)), self.profiles
        known = self._projections.get(coalition)
        if known is None:
            profiles = self.profiles
            columns = [[p[a] for p in profiles] for a in sorted(coalition)]
            keys = list(zip(*columns)) if columns else [()] * len(profiles)
            joint = dict(zip(dict.fromkeys(keys), itertools.count()))
            of_profile = tuple(map(joint.__getitem__, keys))
            known = self._projections[coalition] = (of_profile, tuple(joint))
        return known

    @functools.cached_property
    def outcomes(self) -> dict[str, dict[tuple[str, ...], frozenset[str]]]:
        """String view: state -> listed profile -> outcome states, states
        without a listed profile left out.  Most outcome sets are one state,
        and each state's singleton is built once."""
        profiles, names = self.profiles, self.names
        single = [frozenset((state,)) for state in self.states]
        return {
            state: {
                profiles[n]: names(mask) if mask & (mask - 1) else single[mask.bit_length() - 1]
                for n, mask in row.items()
            }
            for state, row in zip(self.states, self.rows)
            if row
        }

    @functools.cached_property
    def labels(self) -> dict[str, frozenset[str]]:
        """String view: state -> the atoms true there."""
        marked: list[set[str]] = [set() for _ in self.states]
        for atom, mask in self.label_masks.items():
            for i in _bit_numbers(mask):
                marked[i].add(atom)
        return {state: frozenset(atoms) for state, atoms in zip(self.states, marked)}

    def entries(self, state: str) -> dict[tuple[str, ...], frozenset[str]]:
        """Listed (nonempty-outcome) profiles at a state."""
        self.number(state)
        return self.outcomes.get(state, {})

    def full_coalition(self) -> frozenset[int]:
        return self._grand


@dataclass(frozen=True)
class PointedModel:
    model: Model
    state: str

    def __post_init__(self):
        if not _known(self.state, self.model.index):
            raise ModelError(f"pointed state {self.state!r} not in model")


def _check_coalition(m: Model, coalition) -> frozenset[int]:
    """The coalition as a frozenset of agent numbers in range; members that
    are not ints (a bool is not an agent) or are unhashable are refused."""
    try:
        members = frozenset(coalition)
    except TypeError:
        members = None
    if members is None or not all(type(a) is int for a in members):
        raise ModelError(f"coalition {coalition!r} must be a set of agent numbers (ints)")
    if not all(0 <= a < m.agents for a in members):
        raise ModelError(f"coalition {sorted(members)} out of range for {m.agents} agent(s)")
    return members


def outcome(m: Model, state: str, coalition, ja: tuple[str, ...]) -> frozenset[str]:
    """Union of grand-coalition outcomes over all full profiles extending ja."""
    return m.names(outcome_mask(m, state, coalition, ja))


def outcome_mask(m: Model, state: str, coalition, ja: tuple[str, ...]) -> int:
    """:func:`outcome` as a mask of states, with the same checks and errors:
    the coalition, then the joint action's length and actions, then the
    state.  A listed profile of the grand coalition is one row lookup that
    skips the joint action's checks, which the model's construction made,
    and for the model's own grand coalition (:meth:`Model.full_coalition`)
    also the coalition's.  Any other joint action is checked, and its outcome
    is the union over the state's profiles that the coalition's projection
    maps to it; the grand coalition's projection is the profile list."""
    if coalition is not m._grand:
        coalition = _check_coalition(m, coalition)
    try:
        number = m.profile_numbers.get(ja) if len(coalition) == m.agents else None
    except TypeError:  # an unhashable joint action, such as a list
        number = None
    if number is not None:
        return m.rows[m.number(state)].get(number, 0)
    ja = tuple(ja)
    if len(ja) != len(coalition):
        raise ValueError("joint action must list one action per coalition member")
    for action in ja:
        if not _known(action, m.action_set):
            raise ModelError(f"unknown action {action!r}")
    row = m.rows[m.number(state)]
    of_profile, joint = m.projection(coalition)
    mask = 0
    for n, targets in row.items():
        if joint[of_profile[n]] == ja:
            mask |= targets
    return mask


def available_actions(m: Model, state: str, coalition) -> set[tuple[str, ...]]:
    """Joint actions of the coalition with nonempty derived outcome."""
    coalition = _check_coalition(m, coalition)
    row = m.rows[m.number(state)]
    of_profile, joint = m.projection(coalition)
    return {joint[of_profile[n]] for n in row}


def coalitions(agents: int):
    """All coalitions over 0..agents-1, smallest first, deterministic order."""
    for size in range(agents + 1):
        for combo in itertools.combinations(range(agents), size):
            yield frozenset(combo)


def _serial_violation(agents, states, rows, profiles) -> Violation | None:
    """First state where some coalition has no available joint action.

    Availability for a coalition C is the projection {p|C : p in P} of the
    state's listed profiles P.  A projection is empty exactly when P is, so
    S holds iff every state lists at least one profile, and a state with no
    listed profile fails for every coalition.  The witness is that state
    with the empty coalition, the first coalition in :func:`coalitions`
    order, which is the witness an exhaustive search over coalitions finds.
    """
    for state, row in zip(states, rows):
        if not row:
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


def _independent_violation(agents, states, rows, profiles) -> Violation | None:
    """First state whose listed profiles are not the product of their
    per-agent projections, decided by counting each agent's actions in its
    column of the profiles.  The witness is built from the failing state's
    profiles alone; see :func:`independence_witness`."""
    columns = tuple(zip(*profiles))
    for state, row in zip(states, rows):
        if len(row) > 1 and len(row) != math.prod(len({c[n] for n in row}) for c in columns):
            witness = independence_witness({profiles[n] for n in row})
            return Violation("independent", state, *witness)
    return None


def _deterministic_violation(agents, states, rows, profiles) -> Violation | None:
    """First state with a profile of more than one outcome; the witness is
    its least such profile."""
    if all(mask.bit_count() <= 1 for row in rows for mask in row.values()):
        return None
    for state, row in zip(states, rows):
        forked = [profiles[n] for n, mask in row.items() if mask.bit_count() > 1]
        if forked:
            return Violation("deterministic", state, (frozenset(range(agents)),), (min(forked),))
    return None


# Each frame property's flag on a logic and its check of index-form rows, in
# FrameProperties order.
_CHECKS = (
    ("has_S", _serial_violation),
    ("has_I", _independent_violation),
    ("has_D", _deterministic_violation),
)


def frame_properties(m: Model) -> FrameProperties:
    return FrameProperties(
        *(finder(m.agents, m.states, m.rows, m.profiles) is None for _, finder in _CHECKS)
    )


def frame_violation(logic, agents, states, rows, profiles) -> Violation | None:
    """First failure of the frame properties the logic assumes, in S, I, D
    order, over index-form rows (see ``_CHECKS``), or None."""
    for flag, finder in _CHECKS:
        if getattr(logic, flag):
            violation = finder(agents, states, rows, profiles)
            if violation is not None:
                return violation
    return None


def validate_model(m: Model, logic) -> ValidationReport:
    """Check the frame properties named by the logic; report the first failure."""
    violation = frame_violation(logic, m.agents, m.states, m.rows, m.profiles)
    return ValidationReport(violation is None, violation)


def _json_list(items, indent: str) -> str:
    """A JSON list of already encoded items, laid out as ``json.dumps(...,
    indent=2)`` lays out a list whose items sit at ``indent``."""
    if not items:
        return "[]"
    newline = "\n" + indent
    return "[" + newline + ("," + newline).join(items) + "\n" + indent[:-2] + "]"


def _model_text(m: Model, pointed: str | None) -> str:
    """The model file's text: ``json.dumps(doc, indent=2) + "\\n"`` for the
    document described in :func:`save_model`, written directly from the
    index form.

    Strings go through ``encode_basestring_ascii``, the encoder ``json.dumps``
    uses under its default ``ensure_ascii=True``.  Each state, atom and
    action is encoded once, and each distinct profile's text is laid out
    once from its actions' encodings.
    """
    encode = encode_basestring_ascii
    names = list(map(encode, m.states))
    action_texts = dict(zip(m.actions, map(encode, m.actions)))
    # Each state's atoms, in sorted order because the atoms are; distinct
    # label sets are few, and each is laid out once.
    marked: list[list[str]] = [[] for _ in names]
    for atom in m.atoms:
        text = encode(atom)
        for i in _bit_numbers(m.label_masks.get(atom, 0)):
            marked[i].append(text)
    label_texts: dict[tuple[str, ...], str] = {}
    label_lines = []
    for name, atoms in zip(names, marked):
        atoms = tuple(atoms)
        text = label_texts.get(atoms)
        if text is None:
            text = label_texts[atoms] = _json_list(atoms, "      ")
        label_lines.append("    " + name + ": " + text)
    # An entry is its state's head, its profile's text up to the outcome
    # list, and that list, which is never empty, with the closing brace.
    # Profiles are written in tuple order (most glued states list one) and
    # outcome states in name order.
    profiles = m.profiles
    profile_texts: list[str | None] = [None] * len(profiles)
    entries = []
    for name, row in zip(names, m.rows):
        if not row:
            continue
        head = '{\n      "state": ' + name + ',\n      "profile": '
        for n in sorted(row, key=profiles.__getitem__) if len(row) > 1 else row:
            text = profile_texts[n]
            if text is None:
                text = ",\n        ".join(map(action_texts.__getitem__, profiles[n]))
                text = profile_texts[n] = f'[\n        {text}\n      ],\n      "to": [\n        '
            mask = row[n]
            if mask & (mask - 1):
                targets = sorted(_bit_numbers(mask), key=m.states.__getitem__)
                to = ",\n        ".join(map(names.__getitem__, targets))
            else:
                to = names[mask.bit_length() - 1]
            entries.append(head + text + to + "\n      ]\n    }")
    fields = [
        '{\n  "agents": ' + int.__repr__(m.agents),
        '  "actions": ' + _json_list(list(action_texts.values()), "    "),
        '  "states": ' + _json_list(names, "    "),
        '  "atoms": ' + _json_list(list(map(encode, m.atoms)), "    "),
        '  "labels": {\n' + ",\n".join(label_lines) + "\n  }",
        '  "outcomes": ' + _json_list(entries, "    "),
    ]
    if pointed is not None:
        fields.append('  "pointed": ' + names[m.index[pointed]])
    return ",\n".join(fields) + "\n}\n"


def _doc_names(doc: dict, key: str) -> list[str]:
    names = doc.get(key, [])
    if type(names) is not list or not all(type(name) is str for name in names):
        raise ModelError(f"{key!r} must be a list of names (strings)")
    return names


def _file_entries(outcomes: list, row_of, bit, numbers, agents, action_set) -> None:
    """:func:`_table_entries` for a model file's entry list, each entry's JSON
    shape checked first.  Consecutive entries of one state, as
    :func:`save_model` writes them, share one row lookup.  A (state, profile)
    pair may occur once, even with an empty outcome set."""
    last = None
    for entry in outcomes:
        try:
            state, profile, targets = entry["state"], entry["profile"], entry["to"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad outcome entry {entry!r}") from exc
        if type(state) is not str or type(profile) is not list or type(targets) is not list:
            raise ModelError(f"bad outcome entry {entry!r}")
        if state != last:
            row = row_of.get(state)
            if row is None:
                raise ModelError(f"outcome entry for unknown state {state!r}")
            last = state
        profile = tuple(profile)
        try:
            number = numbers[profile]
        except (KeyError, TypeError):
            number = _number_profile(numbers, profile, state, agents, action_set)
        if number in row:
            raise ModelError(f"duplicate outcome key ({state!r}, {list(profile)})")
        try:
            mask = bit[targets[0]] if len(targets) == 1 else _targets_mask(targets, bit, state)
        except (KeyError, TypeError):  # the one target is unknown or unhashable
            mask = _targets_mask(targets, bit, state)
        row[number] = mask


def _doc_labels(labels: dict, declared: set[str]):
    """The file's label sets as (state, atoms), each a list of strings and,
    when the file declares atoms, among them."""
    for state, marked in labels.items():
        if type(marked) is not list or not all(type(atom) is str for atom in marked):
            raise ModelError(f"labels at state {state!r} must be a list of atom names (strings)")
        if declared and not declared.issuperset(marked):
            unknown = sorted(set(marked) - declared)
            raise ModelError(f"label {unknown} at state {state!r} not among declared atoms")
        yield state, marked


def _model_from_doc(doc) -> tuple[Model, str | None]:
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    for key in ("agents", "actions", "states"):
        if key not in doc:
            raise ModelError(f"model file is missing {key!r}")
    agents = doc["agents"]
    # JSON true decodes to a bool, which Python counts as the int 1.
    if type(agents) is not int or agents < 1:
        raise ModelError("agents must be a positive integer")
    states = _doc_names(doc, "states")
    actions = _doc_names(doc, "actions")
    atoms = _doc_names(doc, "atoms")
    labels = doc.get("labels", {})
    if type(labels) is not dict:
        raise ModelError("'labels' must be an object mapping states to lists of atoms")
    outcomes = doc.get("outcomes", [])
    if type(outcomes) is not list:
        raise ModelError("'outcomes' must be a list of entries")
    model = Model.__new__(Model)
    labels = _doc_labels(labels, set(atoms))
    model._index(agents, actions, states, _file_entries, outcomes, labels, atoms)
    pointed = doc.get("pointed")
    if pointed is not None and not (type(pointed) is str and pointed in model.index):
        raise ModelError(f"pointed state {pointed!r} not in model")
    return model, pointed


def _read_model_file(path) -> tuple[Model, str | None]:
    """Decode and index the file with the cyclic collector paused (see the
    module docstring), then restore it as it was, also after an error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _model_from_doc(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelError("model file nested too deeply to decode") from exc
    finally:
        if enabled:
            gc.enable()


def save_model(m: Model, path, pointed: str | None = None) -> None:
    """Write the model file: exactly ``json.dumps(doc, indent=2) + "\\n"``
    of the document ``{"agents", "actions", "states", "atoms", "labels",
    "outcomes"}`` and, when ``pointed`` is given, ``"pointed"``, in that key
    order.  ``labels`` maps every state, in model order, to its sorted atoms;
    ``outcomes`` lists ``{"state", "profile", "to"}`` entries by state in
    model order, then by profile, with sorted outcome states.

    An unknown ``pointed`` state raises :class:`ModelError` before the file
    is opened.
    """
    if pointed is not None and not _known(pointed, m.index):
        raise ModelError(f"pointed state {pointed!r} not in model")
    Path(path).write_text(_model_text(m, pointed), encoding="utf-8")


def load_model(path) -> Model:
    model, _ = _read_model_file(path)
    return model


def load_pointed_model(path) -> PointedModel:
    model, pointed = _read_model_file(path)
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

    Raises :class:`ProfileCapError` for more than :data:`PROFILE_CAP` agents,
    states or actions, and before enumerating more than that many profiles
    at a state.

    Availability is generated agent-wise when independence is required (a
    profile is enabled iff each agent's action is individually enabled),
    which yields independent frames by construction; seriality keeps every
    per-agent enabled set nonempty, and determinism truncates outcome sets
    to singletons.
    """
    import random as _random

    check_count(cfg.agents, "agent")
    check_count(cfg.num_states, "state")
    check_count(cfg.num_actions, "action")
    if type(cfg.branching) is not int:
        raise ValueError(f"branching {cfg.branching!r} must be an int")
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
            check_profile_count(map(len, enabled), f"random model state {state!r}")
            chosen = list(itertools.product(*enabled))
        else:
            check_profile_count(itertools.repeat(len(actions), cfg.agents), "random model")
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
