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
model and coalition; availability, outcomes, the independence check and the
``<C>`` clause of model checking all read it.

A model is built by one of three routes, and ``Model._adopt`` is the one
place that sets the index form for all of them:

- the ``Model(...)`` constructor runs the validating pass over the nested
  outcome table and keeps that table, empty entries dropped, as the string
  view (``outcomes``, ``labels``, :meth:`Model.entries`);
- :func:`load_model` runs the same pass over the model file's entries as
  they are decoded, so nothing is copied or checked twice;
- :func:`cglogic.synth.realize` glues validated models by state offset and
  hands over the finished index form; only the names are checked again.

A loaded or glued model derives its string view from the index form only
when something asks for it.  Model checking, the frame checks and
:func:`save_model` never ask: they work on masks and name states and joint
actions only in a failure's witness or in the written file.

A model file is exactly ``json.dumps(doc, indent=2) + "\\n"`` of the
document that :func:`save_model` describes.  :func:`save_model` writes that
layout directly from the index form rather than through ``json.dumps``,
whose ``indent`` option bypasses the C encoder; the tests hold the two to
the same bytes.
"""

from __future__ import annotations

import functools
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
    if not mask & (mask - 1):
        return [mask.bit_length() - 1] if mask else []
    digits = bin(mask)[:1:-1]
    numbers = []
    n = digits.find("1")
    while n >= 0:
        numbers.append(n)
        n = digits.find("1", n + 1)
    return numbers


def _check_names(agents, states: tuple, actions: tuple) -> tuple[dict[str, int], frozenset[str]]:
    """A model's state index and action set, checked: at least one agent,
    state and action, and no name twice."""
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
    same data: the constructor's input with empty entries dropped or, for a
    model read from a file or glued, derived from the index form on first
    use.  Equality is structural and does not depend on how the profiles
    were numbered.

    ``sat_cache`` is :func:`cglogic.mcheck.sat_states`'s store of results,
    formula -> satisfying states, and ``mask_memo`` its evaluator's, ``<C>``
    node -> mask of the states where it holds.  A model never changes, so
    neither do they.  They take no part in equality.
    """

    __hash__ = None

    def __init__(self, agents, actions, states, outcomes, labels, atoms=()):
        # The string view is the given table with empty entries dropped,
        # collected while the validating pass reads it.  Deriving it from the
        # masks instead took 80 ms rather than 7 ms for the tables of the
        # benchmark's 15 set-up models.
        table: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}

        def entries():
            for state, row in outcomes.items():
                listed = table[state] = {}
                for profile, targets in row.items():
                    targets = frozenset(targets)
                    if targets:
                        listed[profile] = targets
                    yield state, profile, targets

        self._index(agents, actions, states, entries(), labels.items(), atoms)
        if not self.index.keys() >= outcomes.keys():
            state = next(s for s in outcomes if s not in self.index)
            raise ModelError(f"outcome entry for unknown state {state!r}")
        self.outcomes = {state: listed for state, listed in table.items() if listed}
        self.labels = {state: frozenset(labels.get(state, ())) for state in self.states}

    @classmethod
    def _from_entries(cls, agents, actions, states, entries, labels, atoms) -> Model:
        """Model from flat (state, profile tuple, outcome states) entries and
        (state, atoms) label pairs, as a model file lists them."""
        model = cls.__new__(cls)
        model._index(agents, actions, states, entries, labels, atoms)
        return model

    def _index(self, agents, actions, states, entries, labels, atoms) -> None:
        """The one validating pass that builds the index form.

        A profile is checked when it first occurs; later occurrences are one
        dictionary lookup.  A (state, profile) pair may occur once, even with
        an empty outcome set.
        """
        states = tuple(states)
        actions = tuple(actions)
        index, action_set = _check_names(agents, states, actions)
        bit = {state: 1 << i for i, state in enumerate(states)}

        numbers: dict[tuple[str, ...], int] = {}
        rows: list[dict[int, int]] = [{} for _ in states]
        row_of = dict(zip(states, rows))
        emptied = False
        for state, profile, targets in entries:
            row = row_of.get(state)
            if row is None:
                raise ModelError(f"outcome entry for unknown state {state!r}")
            try:
                number = numbers[profile]
            except (KeyError, TypeError):
                if len(profile) != agents:
                    raise ModelError(
                        f"profile {profile!r} at state {state!r} must list one action per agent"
                    ) from None
                for action in profile:
                    if not _known(action, action_set):
                        raise ModelError(f"unknown action {action!r} at state {state!r}") from None
                number = numbers[profile] = len(numbers)
            if number in row:
                raise ModelError(f"duplicate outcome key ({state!r}, {list(profile)})")
            mask = 0
            try:
                for target in targets:
                    mask |= bit[target]
            except (KeyError, TypeError):
                target = next(t for t in targets if not _known(t, bit))
                raise ModelError(f"unknown outcome state {target!r} at state {state!r}") from None
            row[number] = mask
            if not mask:
                emptied = True
        if emptied:
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
        self.sat_cache: dict = {}
        self.mask_memo: dict = {}
        self._projections: dict = {}

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
        """A state's bit number."""
        number = self.index.get(state)
        if number is None:
            raise ModelError(f"unknown state {state!r}")
        return number

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
        """String view of a loaded or glued model: state -> listed profile ->
        outcome states, states without a listed profile left out."""
        profiles, names = self.profiles, self.names
        return {
            state: {profiles[n]: names(mask) for n, mask in row.items()}
            for state, row in zip(self.states, self.rows)
            if row
        }

    @functools.cached_property
    def labels(self) -> dict[str, frozenset[str]]:
        """String view of a loaded or glued model: state -> the atoms true there."""
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
        return frozenset(range(self.agents))


@dataclass(frozen=True)
class PointedModel:
    model: Model
    state: str

    def __post_init__(self):
        if not _known(self.state, self.model.index):
            raise ModelError(f"pointed state {self.state!r} not in model")


def _check_coalition(m: Model, coalition) -> frozenset[int]:
    coalition = frozenset(coalition)
    if not all(0 <= a < m.agents for a in coalition):
        raise ModelError(f"coalition {sorted(coalition)} out of range for {m.agents} agent(s)")
    return coalition


def outcome(m: Model, state: str, coalition, ja: tuple[str, ...]) -> frozenset[str]:
    """Union of grand-coalition outcomes over all full profiles extending ja."""
    coalition = _check_coalition(m, coalition)
    ja = tuple(ja)
    if len(ja) != len(coalition):
        raise ValueError("joint action must list one action per coalition member")
    for action in ja:
        if not _known(action, m.action_set):
            raise ModelError(f"unknown action {action!r}")
    row = m.rows[m.number(state)]
    if len(coalition) == m.agents:
        return m.names(row.get(m.profile_numbers.get(ja), 0))
    of_profile, joint = m.projection(coalition)
    mask = 0
    for n, targets in row.items():
        if joint[of_profile[n]] == ja:
            mask |= targets
    return m.names(mask)


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


def _serial_violation(m: Model) -> Violation | None:
    """First state where some coalition has no available joint action.

    Availability for a coalition C is the projection {p|C : p in P} of the
    state's listed profiles P.  A projection is empty exactly when P is, so
    S holds iff every state lists at least one profile, and a state with no
    listed profile fails for every coalition.  The witness is that state
    with the empty coalition, the first coalition in :func:`coalitions`
    order, which is the witness an exhaustive search over coalitions finds.
    """
    for state, row in zip(m.states, m.rows):
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


def _independent_violation(m: Model) -> Violation | None:
    """First state whose listed profiles are not the product of their
    per-agent projections, decided by counting: the per-agent projections
    are the singleton coalitions' :meth:`Model.projection`.  The witness is
    built from the failing state's profiles alone; see
    :func:`independence_witness`."""
    singles = [m.projection((a,))[0] for a in range(m.agents)]
    for state, row in zip(m.states, m.rows):
        if len(row) > 1 and len(row) != math.prod(len({s[n] for n in row}) for s in singles):
            witness = independence_witness({m.profiles[n] for n in row})
            return Violation("independent", state, *witness)
    return None


def _deterministic_violation(m: Model) -> Violation | None:
    """First state with a profile of more than one outcome; the witness is
    its least such profile."""
    if all(mask.bit_count() <= 1 for row in m.rows for mask in row.values()):
        return None
    for state, row in zip(m.states, m.rows):
        forked = [m.profiles[n] for n, mask in row.items() if mask.bit_count() > 1]
        if forked:
            return Violation("deterministic", state, (m.full_coalition(),), (min(forked),))
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
    distinct profile is encoded once and its text reused.
    """
    encode = encode_basestring_ascii
    names = list(map(encode, m.states))
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
    # Profiles are written in tuple order and outcome states in name order.
    profiles = m.profiles
    profile_texts: list[str | None] = [None] * len(profiles)
    entries = []
    for name, row in zip(names, m.rows):
        if not row:
            continue
        head = '{\n      "state": ' + name + ',\n      "profile": '
        for n in sorted(row, key=profiles.__getitem__):
            text = profile_texts[n]
            if text is None:
                text = _json_list(list(map(encode, profiles[n])), "        ")
                text = profile_texts[n] = text + ',\n      "to": [\n        '
            mask = row[n]
            if mask & (mask - 1):
                targets = sorted(_bit_numbers(mask), key=m.states.__getitem__)
                to = ",\n        ".join(map(names.__getitem__, targets))
            else:
                to = names[mask.bit_length() - 1]
            entries.append(head + text + to + "\n      ]\n    }")
    fields = [
        '{\n  "agents": ' + int.__repr__(m.agents),
        '  "actions": ' + _json_list(list(map(encode, m.actions)), "    "),
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


def _doc_entries(outcomes: list):
    """The file's outcome entries as (state, profile tuple, outcome states),
    each checked for its JSON shape; names are checked by the model's
    validating pass."""
    for entry in outcomes:
        try:
            state, profile, targets = entry["state"], entry["profile"], entry["to"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad outcome entry {entry!r}") from exc
        if type(state) is not str or type(profile) is not list or type(targets) is not list:
            raise ModelError(f"bad outcome entry {entry!r}")
        yield state, tuple(profile), targets


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
    model = Model._from_entries(
        agents, actions, states, _doc_entries(outcomes), _doc_labels(labels, set(atoms)), atoms
    )
    pointed = doc.get("pointed")
    if pointed is not None and not (type(pointed) is str and pointed in model.index):
        raise ModelError(f"pointed state {pointed!r} not in model")
    return model, pointed


def _read_model_file(path) -> tuple[Model, str | None]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    return _model_from_doc(doc)


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

    Raises :class:`ProfileCapError` before enumerating more than
    :data:`PROFILE_CAP` profiles at a state.

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
