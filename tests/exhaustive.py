"""Bounded-exhaustive check over the lattice of the eight logics.

Every formula of modal depth >= 1 up to a size, built from truth, one atom,
``~``, ``&`` and ``<C>`` over every coalition of the agents, is decided in
all eight logics, and each verdict is checked against evidence that shares
no code with ``cglogic.decide``:

- validity is monotone over every pair of logics x <= y;
- for each "invalid", the countermodel ``synthesize(~f)`` survives
  ``save_model`` and ``load_pointed_model`` unchanged, passes
  ``validate_model`` and the string-form frame checks of ``helpers``, and
  the string-form evaluator of ``helpers`` finds f false at its pointed
  state;
- for each "valid", the brute-force search of acceptance criterion 8, over
  every one-agent model of at most 2 states and 2 actions, finds no model of
  the logic where f fails.  With two agents each of those models is read
  twice, once with agent 0 and once with agent 1 given one action only.

Size counts the nodes of the formula tree.  Tier-1 runs the 2-agent pool of
size 4 (``test_exhaustive.py``); the larger pools run as a script::

    PYTHONPATH=src python tests/exhaustive.py AGENTS SIZE

which prints one summary line and exits 1 if any check fails.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import helpers
from cglogic import ALL_LOGICS, Model, load_pointed_model, save_model
from cglogic.decide import is_valid
from cglogic.mcheck import sat_states
from cglogic.models import coalitions, validate_model
from cglogic.synth import synthesize
from cglogic.syntax import TOP, And, Atom, Coal, Not, render

ATOM = "p"
_FLAGS = {"serial": "has_S", "independent": "has_I", "deterministic": "has_D"}


def formula_pool(agents: int, size: int) -> list:
    """Every formula of modal depth >= 1 and at most ``size`` nodes, each
    once (formulas are interned), in a fixed order."""
    by_size = {1: [TOP, Atom(ATOM)]}
    for n in range(2, size + 1):
        built = {}
        for child in by_size[n - 1]:
            built[Not(child)] = None
            for coalition in coalitions(agents):
                built[Coal(coalition, child)] = None
        for k in range(1, n - 1):
            for left in by_size[k]:
                for right in by_size[n - 1 - k]:
                    built[And(left, right)] = None
        by_size[n] = list(built)
    pool = dict.fromkeys(f for n in sorted(by_size) for f in by_size[n] if f.depth >= 1)
    return list(pool)


def _lifted(model: Model, dummy: int) -> Model:
    """The one-agent model with a second agent, at position ``dummy``, that
    has only the first action; frame properties are unchanged."""
    idle = model.actions[0]
    outcomes = {
        state: {
            ((idle, *profile) if dummy == 0 else (*profile, idle)): targets
            for profile, targets in row.items()
        }
        for state, row in model.outcomes.items()
    }
    return Model(2, model.actions, model.states, outcomes, model.labels, model.atoms)


def small_models(agents: int) -> list:
    """Criterion 8's models over the one atom, paired with their frame
    properties; for two agents, each read with either agent idle."""
    pool = helpers.enumerate_small_models(max_states=2, max_actions=2, atoms=(ATOM,))
    if agents == 1:
        return pool
    return [(_lifted(m, dummy), props) for m, props in pool for dummy in (0, 1)]


def check_countermodel(f, logic, agents: int, path: Path) -> str | None:
    """The first failed check of the countermodel of f in the logic, or None."""
    pointed = synthesize(Not(f), logic, agents)
    if pointed is None:
        return "no countermodel produced"
    save_model(pointed.model, path, pointed=pointed.state)
    reloaded = load_pointed_model(path)
    if reloaded != pointed:
        return "reloaded countermodel differs"
    m = reloaded.model
    if not validate_model(m, logic).passed:
        return "countermodel fails validate_model"
    parts = helpers.Parts(m.agents, m.actions, m.states, m.outcomes, m.labels, m.atoms)
    violations = helpers.oracle_violations(parts).items()
    if any(getattr(logic, _FLAGS[prop]) and found is not None for prop, found in violations):
        return "countermodel fails the string-form frame checks"
    if reloaded.state in helpers.oracle_sat_states(parts, f):
        return "formula holds at the countermodel's pointed state"
    return None


def run(agents: int, size: int) -> dict:
    """Check the pool; returns its counts and the failures found."""
    formulas = formula_pool(agents, size)
    models = small_models(agents)
    failures = []
    valid_verdicts = countermodels = 0
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "countermodel.json"
        for f in formulas:
            verdicts = {x: is_valid(f, x, agents) for x in ALL_LOGICS}
            for x in ALL_LOGICS:
                for y in ALL_LOGICS:
                    if x <= y and verdicts[x] and not verdicts[y]:
                        failures.append((render(f), f"valid in {x.name}, not in {y.name}"))
            valid = [x for x in ALL_LOGICS if verdicts[x]]
            if valid:
                refuting = [props for m, props in models if sat_states(m, f) != frozenset(m.states)]
                for x in valid:
                    valid_verdicts += 1
                    if any(helpers.props_allow(props, x) for props in refuting):
                        failures.append((render(f), f"valid in {x.name}; a small model refutes it"))
            for x in ALL_LOGICS:
                if not verdicts[x]:
                    countermodels += 1
                    problem = check_countermodel(f, x, agents, path)
                    if problem is not None:
                        failures.append((render(f), f"{x.name}: {problem}"))
    return {
        "formulas": len(formulas),
        "valid_verdicts": valid_verdicts,
        "countermodels": countermodels,
        "failures": failures,
    }


def main(argv) -> int:
    agents, size = map(int, argv)
    started = time.perf_counter()
    result = run(agents, size)
    failures = result.pop("failures")
    counts = ", ".join(f"{value} {key.replace('_', ' ')}" for key, value in result.items())
    summary = f"{counts}, {len(failures)} failure(s), {time.perf_counter() - started:.1f} s"
    print(f"{agents} agent(s), size <= {size}: {summary}")
    for failure in failures[:10]:
        print("  FAIL", *failure)
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: exhaustive.py AGENTS SIZE")
    sys.exit(main(sys.argv[1:]))
