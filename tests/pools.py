"""Check every formula of the benchmark's recorded pools.

``bench/data/pools.json`` holds the formulas the benchmark's workloads draw
from, each with the verdict confirmed when it was recorded; a workload pass
sends only a sample of them.  This script reads every one, and checks that
it parses, renders back to its recorded text and gets its recorded verdict:

- ``decide``: validity over 3 agents;
- ``c5``: satisfiability over 2 agents;
- ``draw3``: satisfiability over 3 agents.

Run from the repository root::

    PYTHONPATH=src python tests/pools.py

It prints each mismatch and one summary line, changes nothing, and exits 1
if any formula fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from cglogic.decide import is_satisfiable, is_valid
from cglogic.logics import LogicId
from cglogic.syntax import parse, render

POOLS = Path(__file__).resolve().parent.parent / "bench" / "data" / "pools.json"

# pool -> (agents, the question its recorded verdict answers)
QUESTIONS = {"decide": (3, is_valid), "c5": (2, is_satisfiable), "draw3": (3, is_satisfiable)}


def problem(text: str, verdict: bool, logic: str, agents: int, question) -> str | None:
    """What is wrong with one recorded formula, or None."""
    try:
        f = parse(text, agents)
    except ValueError as error:
        return f"does not parse: {error}"
    if render(f) != text:
        return f"renders as {render(f)!r}"
    if question(f, LogicId.from_string(logic), agents) is not verdict:
        return f"{question.__name__} is not {verdict}"
    return None


def main() -> int:
    pools = json.loads(POOLS.read_text(encoding="utf-8"))
    if set(pools) != set(QUESTIONS):
        print(f"pools {sorted(pools)} are not {sorted(QUESTIONS)}")
        return 1
    start = time.perf_counter()
    checked = failed = 0
    for pool, (agents, question) in QUESTIONS.items():
        for logic, rows in pools[pool].items():
            for text, verdict, *_ in rows:
                checked += 1
                wrong = problem(text, verdict, logic, agents, question)
                if wrong is not None:
                    failed += 1
                    print(f"{pool} {logic} {text!r}: {wrong}")
    seconds = time.perf_counter() - start
    print(f"{checked} pool formulas checked, {failed} mismatches, {seconds:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
