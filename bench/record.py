"""Record the benchmark's formula pools and their confirmed verdicts.

Run once from the repository root:

    PYTHONPATH=src python3 bench/record.py

It writes ``bench/data/pools.json``.  Every verdict the package gives is
confirmed before it is written, with the reference semantics of
``reference.py``:

* "invalid" / "satisfiable": a model that has the logic's frame properties
  and refutes (satisfies) the formula -- first searched among sampled random
  models, else taken from the package's synthesizer and checked;
* "valid" / "unsatisfiable": the formula holds (fails) at every state of
  sampled random models of the logic.

A verdict that cannot be confirmed stops the recording.  Benchmark runs pick
their inputs from these pools by seed and compare replies with the table.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from cglogic.decide import is_satisfiable, is_valid  # noqa: E402
from cglogic.logics import ALL_LOGICS  # noqa: E402
from cglogic.models import RandomModelConfig, random_model  # noqa: E402
from cglogic.synth import synthesize  # noqa: E402
from cglogic.syntax import parse, random_formula, render  # noqa: E402

POOLS = HERE / "data" / "pools.json"
DECIDE_PER_LOGIC = 120
C5_PER_LOGIC = 150
DRAW3_PER_LOGIC = 40
VALID_SAMPLES = 40
REFUTE_SAMPLES = 300
SYNTH_SECONDS = 20


class TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise TooSlow


def ref_model(model, pointed=None) -> reference.RefModel:
    return reference.RefModel(
        model.agents,
        tuple(model.actions),
        tuple(model.states),
        {s: frozenset(model.labels[s]) for s in model.states},
        {s: dict(row) for s, row in model.outcomes.items()},
        pointed,
    )


def sampled_models(logic, agents, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        cfg = RandomModelConfig(rng.randint(1, 4), rng.randint(1, 3), agents, 2)
        sample_seed = rng.randrange(2**30)
        model = ref_model(random_model(cfg, logic, sample_seed, atoms=("p", "q")))
        if not reference.fits(model, logic.name):
            raise SystemExit(f"random_model gave a model without the {logic.name} properties")
        yield model, sample_seed


def confirm_holds_everywhere(f, logic, agents, seed, negate=False) -> str:
    """Valid (or, with negate, unsatisfiable) confirmed on sampled models."""
    for model, sample_seed in sampled_models(logic, agents, seed, VALID_SAMPLES):
        truth = reference.truth_set(model, f)
        if (truth if negate else frozenset(model.states) - truth):
            raise SystemExit(f"verdict refuted by sampled model {sample_seed}: {reference.render(f)}")
    return f"holds on {VALID_SAMPLES} sampled models"


def find_witness(f, text, logic, agents, seed) -> str:
    """A model of the logic where f is true at some state."""
    for model, sample_seed in sampled_models(logic, agents, seed, REFUTE_SAMPLES):
        if reference.truth_set(model, f):
            return f"sampled model {sample_seed}"
    pointed = synthesize(parse(text, agents), logic, agents)
    model = ref_model(pointed.model, pointed.state)
    if not reference.fits(model, logic.name) or not reference.holds(model, pointed.state, f):
        raise SystemExit(f"synthesized witness fails its check: {text}")
    return f"synthesized model of {len(model.states)} states"


def record_decide(logic, index):
    rng = random.Random(240914635 + index)
    rows = []
    for n in range(DECIDE_PER_LOGIC):
        text = render(random_formula(rng, 3, 3, ("p", "q"), size=16))
        f = reference.parse(text, 3)
        valid = is_valid(parse(text, 3), logic, 3)
        seed = index * 100_000 + n
        how = (
            confirm_holds_everywhere(f, logic, 3, seed)
            if valid
            else find_witness(reference.neg(f), f"~({text})", logic, 3, seed)
        )
        rows.append([text, valid, how])
    return rows


def record_sat(logic, index, texts, agents, timed):
    rows = []
    for n, text in enumerate(texts):
        f = reference.parse(text, agents)
        formula = parse(text, agents)
        sat = is_satisfiable(formula, logic, agents)
        seed = 7_000_000 + index * 100_000 + n
        if not sat:
            rows.append([text, False, 0, confirm_holds_everywhere(f, logic, agents, seed, True)])
            continue
        if timed:
            signal.alarm(SYNTH_SECONDS)
        try:
            pointed = synthesize(formula, logic, agents)
        except TooSlow:
            rows.append([text, True, None, f"synthesis over {SYNTH_SECONDS} s; not used"])
            continue
        finally:
            signal.alarm(0)
        model = ref_model(pointed.model, pointed.state)
        if not reference.fits(model, logic.name) or not reference.holds(model, pointed.state, f):
            raise SystemExit(f"synthesized model fails its check: {logic.name} {text}")
        rows.append([text, True, len(model.states), "synthesized model checked"])
    return rows


def main():
    signal.signal(signal.SIGALRM, _alarm)
    pools = {"decide": {}, "c5": {}, "draw3": {}}
    for index, logic in enumerate(ALL_LOGICS):
        started = time.time()
        pools["decide"][logic.name] = record_decide(logic, index)
        # The acceptance suite's criterion-5 pool: 2 agents, depth 2, seed 303 + index.
        rng = random.Random(303 + index)
        c5 = [render(random_formula(rng, 2, 2, ("p", "q"))) for _ in range(C5_PER_LOGIC)]
        pools["c5"][logic.name] = record_sat(logic, index, c5, 2, False)
        rng = random.Random(2409 + index)
        draws = [render(random_formula(rng, 3, 3, ("p", "q"), size=16)) for _ in range(DRAW3_PER_LOGIC)]
        pools["draw3"][logic.name] = record_sat(logic, 100 + index, draws, 3, True)
        print(f"{logic.name}: {time.time() - started:.0f} s", flush=True)
    lines = ["{"]
    for p, (pool, by_logic) in enumerate(pools.items()):
        lines.append(f'  "{pool}": {{')
        for l, (name, rows) in enumerate(by_logic.items()):
            lines.append(f'    "{name}": [')
            lines.append(",\n".join("      " + json.dumps(row) for row in rows))
            lines.append("    ]" + ("," if l < len(by_logic) - 1 else ""))
        lines.append("  }" + ("," if p < len(pools) - 1 else ""))
    lines.append("}")
    POOLS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {POOLS}")


if __name__ == "__main__":
    main()
