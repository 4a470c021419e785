"""Seeded query lists for the three workloads.

A workload is a list of queries; one pass of a run sends each query once, in
the list's (seeded, shuffled) order.  The list depends only on the workload
and the seed: random formulas come from the recorded pools in
``data/pools.json``, whose verdicts were confirmed when recorded; the fan
family and the axiom instances have answers known by construction.

Why each workload looks the way it does:

* ``decide-mix`` puts ``normalform`` and ``decide`` under load.  The fan
  family is the 2^k blow-up of neat subsets and truth tables; a third of the
  queries are fans, the same for every seed, so the 90th percentile falls
  well inside them while the median stays on the seeded millisecond draws.
* ``synth-loop`` puts ``synth`` under load: ``sat --model`` realizes, glues
  and verifies countermodels.  Seeded criterion-5 draws, stratified by the
  size of their recorded model, set the median.  The large gluing cases --
  the negated fans and, per logic, the two 3-agent draws with the largest
  recorded countermodels under ``DRAW3_STATE_CAP`` states -- are the same
  for every seed and make up more than a tenth of the queries, so the 90th
  percentile falls among them.  Larger draws are left out so a run keeps
  within its time limit (the largest took over 20 s alone).
* ``mcheck-large`` puts ``models`` and ``mcheck`` under load: JSON loading,
  ``sat_states`` and ``frame_properties`` on a few large dense models.  Two
  SI- and two SID-models per size make ``props`` a sixth of the queries, so
  the 90th percentile falls among them and the median among ``mc`` calls.
  The models live only in their files while the passes run: held in memory,
  they would make every garbage collection inside ``cglogic`` slower.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import reference

LOGICS = ("E", "S", "I", "D", "SI", "SD", "ID", "SID")
POOLS = Path(__file__).resolve().parent / "data" / "pools.json"

# decide-mix
DECIDE_DRAWS_PER_LOGIC = 12
FAN_K_MAX = {"E": 11, "S": 11, "D": 11, "SD": 11, "I": 8, "SI": 8, "ID": 8, "SID": 8}
FAN_SLOW_CASES = (("E", 14), ("SID", 10))
# synth-loop
C5_DRAWS_PER_LOGIC = 16
DRAW3_PER_LOGIC = 2
DRAW3_STATE_CAP = 600
NEG_FAN = (("E", (3, 4, 5)), ("SID", (3, 4, 5)))
# mcheck-large
MODEL_SIZES = (50, 200, 500)
MODEL_LOGICS = ("E", "SI", "SI", "SID", "SID")  # mc on the E-model, props on the others
MODEL_AGENTS = 3
MODEL_ACTIONS = 3
MC_FORMULAS = 20


@dataclass
class Query:
    """One CLI call and what a correct reply must say."""

    argv: list
    expect: dict
    group: str
    model_out: str | None = None  # sat: file the reply should write

    def argv_for(self, pass_no: int) -> list:
        """The argv of one pass; each pass writes its models to its own files."""
        return [arg.replace("@PASS@", str(pass_no)) for arg in self.argv]

    def model_path(self, pass_no: int) -> Path:
        return Path(self.model_out.replace("@PASS@", str(pass_no)))


def fan(k: int):
    """fan-k: /\\_{i<k} <{i mod 3}> x_i -> <0,1,2>(x_0 & ... & x_{k-1})."""
    antecedent = reference.big_and(
        reference.coal({i % 3}, ("atom", f"x{i}")) for i in range(k)
    )
    goal = reference.big_and(("atom", f"x{i}") for i in range(k))
    return reference.implies(antecedent, reference.coal({0, 1, 2}, goal))


def fan_valid(k: int, logic: str) -> bool:
    """fan-k holds in every model exactly when k = 1 (monotonicity of
    coalitions), or k is 2 or 3 and the logic assumes independence of agents
    (the abilities belong to distinct agents and combine).  From k = 4 on,
    agent 0 holds two abilities that need not combine, whatever the logic."""
    return k == 1 or (k <= 3 and "I" in logic)


def load_pools() -> dict:
    return json.loads(POOLS.read_text(encoding="utf-8"))


def _check(logic, formula_text, expect, group, agents=3):
    argv = ["--json", "check", "--logic", logic, "--agents", str(agents), formula_text]
    return Query(argv, {"result": expect, "formula": formula_text, "logic": logic}, group)


def decide_mix(rng: random.Random, pools: dict, workdir: Path) -> list:
    from cglogic.axioms import system_instances
    from cglogic.logics import LogicId
    from cglogic.syntax import render

    queries = []
    for logic in LOGICS:
        rows = rng.sample(pools["decide"][logic], DECIDE_DRAWS_PER_LOGIC)
        for text, valid, _ in rows:
            queries.append(_check(logic, text, "valid" if valid else "invalid", "random"))
        for name, formula in system_instances(LogicId.from_string(logic), 3, rng):
            queries.append(_check(logic, render(formula), "valid", f"axiom:{name}"))
        for k in range(2, FAN_K_MAX[logic] + 1):
            expect = "valid" if fan_valid(k, logic) else "invalid"
            queries.append(_check(logic, reference.render(fan(k)), expect, f"fan-{k}"))
    for logic, k in FAN_SLOW_CASES:
        expect = "valid" if fan_valid(k, logic) else "invalid"
        queries.append(_check(logic, reference.render(fan(k)), expect, f"fan-{k}"))
    return queries


def _sat(logic, agents, text, satisfiable, group, index, workdir):
    out = str(workdir / f"model-{index}-@PASS@.json")
    argv = ["--json", "sat", "--logic", logic, "--agents", str(agents), "--model", out, text]
    expect = {
        "result": "satisfiable" if satisfiable else "unsatisfiable",
        "formula": text,
        "logic": logic,
    }
    return Query(argv, expect, group, model_out=out if satisfiable else None)


def _stratified(rng, rows, count):
    """One row from each of ``count`` equal slices of the rows ordered by
    recorded model size, so every seed gets the same spread of sizes (and of
    cost, which follows size)."""
    ordered = sorted(rows, key=lambda r: (r[2], r[0]))
    picked = []
    for part in range(count):
        lo = part * len(ordered) // count
        hi = (part + 1) * len(ordered) // count
        picked.append(ordered[rng.randrange(lo, hi)])
    return picked


def synth_loop(rng: random.Random, pools: dict, workdir: Path) -> list:
    specs = []
    for logic in LOGICS:
        for text, sat, _, _ in _stratified(rng, pools["c5"][logic], C5_DRAWS_PER_LOGIC):
            specs.append((logic, 2, text, sat, "criterion-5"))
        capped = [r for r in pools["draw3"][logic] if r[2] is not None and r[2] <= DRAW3_STATE_CAP]
        for text, sat, _, _ in sorted(capped, key=lambda r: (r[2], r[0]))[-DRAW3_PER_LOGIC:]:
            specs.append((logic, 3, text, sat, "draw-3"))
    for logic, ks in NEG_FAN:
        for k in ks:
            text = reference.render(reference.neg(fan(k)))
            specs.append((logic, 3, text, not fan_valid(k, logic), f"neg-fan-{k}"))
    return [
        _sat(logic, agents, text, sat, group, index, workdir)
        for index, (logic, agents, text, sat, group) in enumerate(specs)
    ]


def _random_ref_model(logic: str, states: int, seed: int) -> reference.RefModel:
    from cglogic.logics import LogicId
    from cglogic.models import RandomModelConfig, random_model

    cfg = RandomModelConfig(states, MODEL_ACTIONS, MODEL_AGENTS, 2)
    m = random_model(cfg, LogicId.from_string(logic), seed)
    return reference.RefModel(
        m.agents,
        tuple(m.actions),
        tuple(m.states),
        {s: frozenset(m.labels[s]) for s in m.states},
        {s: dict(row) for s, row in m.outcomes.items()},
    )


def mcheck_large(rng: random.Random, pools: dict, workdir: Path) -> list:
    from cglogic.syntax import random_formula, render

    formulas = [
        render(random_formula(rng, 3, MODEL_AGENTS, ("p", "q", "r"), size=16))
        for _ in range(MC_FORMULAS)
    ]
    queries = []
    for size in MODEL_SIZES:
        for copy, logic in enumerate(MODEL_LOGICS):
            model = _random_ref_model(logic, size, rng.randrange(2**31))
            path = workdir / f"{logic}-{size}-{copy}.json"
            path.write_text(json.dumps(reference.to_doc(model), indent=2) + "\n", encoding="utf-8")
            if logic == "E":
                for text in formulas:
                    state = rng.choice(model.states)
                    argv = ["--json", "mc", str(path), state, text]
                    expect = {"formula": text, "state": state}
                    queries.append(Query(argv, expect, f"mc-{size}"))
            else:
                argv = ["--json", "props", str(path)]
                queries.append(Query(argv, {}, f"props-{logic}-{size}"))
    return queries


BUILDERS = {"decide-mix": decide_mix, "synth-loop": synth_loop, "mcheck-large": mcheck_large}


def build(workload: str, seed: int, workdir: Path) -> list:
    """The workload's query list for one seed, in the order a pass sends it."""
    rng = random.Random(f"{workload}:{seed}")
    pools = load_pools()
    queries = BUILDERS[workload](rng, pools, workdir)
    rng.shuffle(queries)
    return queries
