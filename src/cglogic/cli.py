"""Command-line front end: check, sat, mc, props, gen, fuzz.

Each command returns its reply as one record, a dict, and prints nothing.
`main` prints the record as one JSON line under --json, and otherwise the text
lines rendered from it by `_text_lines`.  A command that raises prints an
`error: ...` line on stderr and nothing on stdout; under --json, stdout then
carries one record ``{command, result: "error", kind, message}``, whose kind
is parse, model, file, usage, clause_cap, profile_cap or depth.

Exit codes: 0 success, 1 fuzz discrepancy, 2 usage or parse error, a
malformed model, or a file that cannot be read or written (a missing model
file, a directory, a missing output directory), 3 resource cap exceeded (the
clause cap, the profile cap of 100000 on the profiles a random model or a
blueprint enumerates, on the agent count of a query or a model file and on a
random model's state and action counts, or, for `check` and `sat`, `<C>`
nested deeper than the recursion limit).

Parsing, formula traversals and model checking are iterative, so `mc`
answers `<0><0>...<0>p` at any nesting depth.  Only `check` and `sat` are
bounded by the recursion limit in nested `<C>` (modal depth), as deciding
and synthesis recurse once per level.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .decide import explain, is_satisfiable, is_valid
from .logics import LogicId
from .mcheck import satisfies, valid_on_model
from .models import (
    ModelError,
    ProfileCapError,
    RandomModelConfig,
    check_count,
    frame_properties,
    load_model,
    random_model,
    save_model,
    validate_model,
)
from .normalform import ClauseCapError, sd_to_formula
from .synth import synthesize
from .syntax import ParseError, parse, random_formula, render

# The bounds follow from the cost of a query.  Deciding tries, for each
# consequent of a clause, the maximal neat sets of its k antecedents, and each
# try is a truth table of 2^k rows over its atoms and `<C>` leaves.  A
# blueprint enumerates |base actions|^agents profiles; above
# `models.PROFILE_CAP` a query exits 3 before building any.  Deciding and
# synthesis recurse once per modal level.  `mc` and `props` make one pass over
# the model file, then one per `<C>` node or frame check.
SCALE_NOTE = (
    "check, sat and fuzz are intended for desk-scale formulas and countermodels"
    " (agents <= 3, actions <= 4, small modal depth); mc and props are linear in"
    " the model and handle models of hundreds of states"
)


def _witness_text(clause_index, clause, witness) -> str:
    head = f"clause {clause_index}: {render(sd_to_formula(clause))}"
    if witness is None:
        return head + " :: no reduction witness (clause invalid)"
    if witness.kind == "gamma":
        return head + " :: gamma is a tautology"
    neat = sorted(witness.neat)
    return (
        head
        + f" :: neat antecedent indices {neat}, consequent index {witness.positive},"
        + f" reduced to {render(witness.reduced)}"
    )


def _text_lines(record: dict) -> list[str]:
    """The lines that print a record without --json."""
    command = record["command"]
    if command == "props":
        frame = (f"{name}={str(value).lower()}" for name, value in record.items() if type(value) is bool)
        return [" ".join(frame)]
    if command == "gen":
        return [
            "wrote {out}: {states} states, {actions} actions, {agents} agents"
            " ({logic}-model, seed {seed})".format_map(record)
        ]
    if command == "fuzz":
        if record["result"] == "ok":
            return [f"ok: {record['iters']} iterations, no discrepancy"]
        return ["discrepancy at iteration {iteration} ({stage}); bundle: {bundle}".format_map(record)]
    lines = [*record.get("trace", ()), record["result"]]
    if "pointed" in record:
        lines.append(f"model written to {record['model']}")
    return lines


def _query(args):
    """The logic and formula of a `check` or `sat` query, and its record so far."""
    logic = LogicId.from_string(args.logic)
    formula = parse(args.formula, args.agents)
    record = {
        "command": args.command,
        "formula": render(formula),
        "logic": logic.name,
        "agents": args.agents,
    }
    return logic, formula, record


def cmd_check(args) -> dict:
    logic, formula, record = _query(args)
    if args.trace:
        verdict, details = explain(formula, logic, args.agents)
        record["trace"] = [_witness_text(i, clause, witness) for i, (clause, witness) in enumerate(details)]
    else:
        verdict = is_valid(formula, logic, args.agents)
    record["result"] = "valid" if verdict else "invalid"
    return record


def cmd_sat(args) -> dict:
    logic, formula, record = _query(args)
    pointed = synthesize(formula, logic, args.agents) if args.model else None
    if pointed is not None:
        save_model(pointed.model, args.model, pointed=pointed.state)
        record.update(model=args.model, pointed=pointed.state)
    sat = pointed is not None if args.model else is_satisfiable(formula, logic, args.agents)
    record["result"] = "satisfiable" if sat else "unsatisfiable"
    return record


def cmd_mc(args) -> dict:
    model = load_model(args.model)
    if args.state not in model.index:
        raise ModelError(f"unknown state {args.state!r}")
    formula = parse(args.formula, model.agents)
    verdict = satisfies(model, args.state, formula)
    return {
        "command": "mc",
        "model": args.model,
        "state": args.state,
        "formula": render(formula),
        "result": "true" if verdict else "false",
    }


def cmd_props(args) -> dict:
    return {"command": "props", "model": args.model, **vars(frame_properties(load_model(args.model)))}


def cmd_gen(args) -> dict:
    logic = LogicId.from_string(args.logic)
    cfg = RandomModelConfig(
        num_states=args.states,
        num_actions=args.actions,
        agents=args.agents,
        branching=args.branching,
    )
    model = random_model(cfg, logic, args.seed)
    save_model(model, args.out)
    return {
        "command": "gen",
        "logic": logic.name,
        "seed": args.seed,
        "out": args.out,
        "states": len(model.states),
        "actions": len(model.actions),
        "agents": model.agents,
    }


FUZZ_MODELS_PER_VALID = 3  # random models each formula declared valid is checked on


def _fuzz_iteration(logic, agents, depth, atoms, rng):
    """One differential round; returns (stage, detail) on discrepancy else None."""
    formula = random_formula(rng, depth, agents, atoms)
    sat = is_satisfiable(formula, logic, agents)
    valid = is_valid(formula, logic, agents)
    if valid and not sat:
        return formula, "consistency", "declared valid but unsatisfiable", None
    if sat:
        pointed = synthesize(formula, logic, agents)
        if pointed is None:
            return formula, "synthesize", "declared satisfiable but no model produced", None
        report = validate_model(pointed.model, logic)
        if not report.passed:
            return formula, "validate", report.violation.describe(), pointed
        if not satisfies(pointed.model, pointed.state, formula):
            return formula, "mcheck", "synthesized model does not satisfy the formula", pointed
    if valid:
        for _ in range(FUZZ_MODELS_PER_VALID):
            cfg = RandomModelConfig(
                num_states=rng.randint(1, 5),
                num_actions=rng.randint(1, 3),
                agents=agents,
                branching=2,
            )
            sample = random_model(cfg, logic, rng.randrange(2**30))
            if not valid_on_model(sample, formula):
                return formula, "soundness", "declared valid but fails on a random model", None
    return None


def cmd_fuzz(args) -> dict:
    logic = LogicId.from_string(args.logic)
    atoms = ("p", "q")
    for option, value in (("--iters", args.iters), ("--depth", args.depth)):
        if value < 0:
            raise ValueError(f"{option} must be >= 0, got {value}")
    check_count(args.agents, "agent")
    record = {
        "command": "fuzz",
        "logic": logic.name,
        "iters": args.iters,
        "seed": args.seed,
        "result": "ok",
    }
    for iteration in range(args.iters):
        rng = random.Random(args.seed * 1_000_003 + iteration)
        outcome = _fuzz_iteration(logic, args.agents, args.depth, atoms, rng)
        if outcome is not None:
            formula, stage, detail, pointed = outcome
            bundle = {
                "seed": args.seed,
                "iteration": iteration,
                "logic": logic.name,
                "agents": args.agents,
                "formula": render(formula),
                "stage": stage,
                "detail": detail,
            }
            if pointed is not None:
                model_path = args.bundle + ".model.json"
                save_model(pointed.model, model_path, pointed=pointed.state)
                bundle["model"] = model_path
            with open(args.bundle, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, indent=2)
            record.update(
                result="discrepancy", iteration=iteration, stage=stage, bundle=args.bundle
            )
            break
    return record


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: building costs about 15 times as much as
    # parsing, and parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="cglogic",
        description=(
            "Validity, satisfiability, model checking and countermodel synthesis "
            "for the eight coalition logics over general concurrent game models; "
            + SCALE_NOTE
            + "."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON record instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    logic_kw = dict(
        required=True,
        help="one of E, S, I, D, SI, SD, ID, SID (any letter order; MCL=E, CL=SID)",
    )

    p_check = sub.add_parser("check", help="decide validity of a formula")
    p_check.add_argument("--logic", **logic_kw)
    p_check.add_argument("--agents", type=int, required=True)
    p_check.add_argument("--trace", action="store_true", help="print per-clause reduction witnesses")
    p_check.add_argument("formula")
    p_check.set_defaults(func=cmd_check)

    p_sat = sub.add_parser("sat", help="decide satisfiability; optionally write a model")
    p_sat.add_argument("--logic", **logic_kw)
    p_sat.add_argument("--agents", type=int, required=True)
    p_sat.add_argument("--model", help="write a synthesized pointed model to this path")
    p_sat.add_argument("formula")
    p_sat.set_defaults(func=cmd_sat)

    p_mc = sub.add_parser("mc", help="model-check a formula at a state of a model file")
    p_mc.add_argument("model")
    p_mc.add_argument("state")
    p_mc.add_argument("formula")
    p_mc.set_defaults(func=cmd_mc)

    p_props = sub.add_parser("props", help="report the frame properties of a model file")
    p_props.add_argument("model")
    p_props.set_defaults(func=cmd_props)

    p_gen = sub.add_parser("gen", help="generate a seeded random model of a logic")
    p_gen.add_argument("--logic", **logic_kw)
    p_gen.add_argument("--states", type=int, default=4)
    p_gen.add_argument("--actions", type=int, default=2)
    p_gen.add_argument("--agents", type=int, default=2)
    p_gen.add_argument("--branching", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_fuzz = sub.add_parser("fuzz", help="differential loop over random formulas")
    p_fuzz.add_argument("--logic", **logic_kw)
    p_fuzz.add_argument("--iters", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--depth", type=int, default=2, help="modal depth cap for random formulas")
    p_fuzz.add_argument("--agents", type=int, default=2)
    p_fuzz.add_argument("--bundle", default="fuzz_failure.json", help="reproduction bundle path")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


# The error kind and exit code of each exception a command may raise; the
# first class that matches wins.
_ERRORS = {
    ParseError: ("parse", 2),
    ModelError: ("model", 2),
    OSError: ("file", 2),
    ValueError: ("usage", 2),
    ClauseCapError: ("clause_cap", 3),
    ProfileCapError: ("profile_cap", 3),
    RecursionError: ("depth", 3),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        record = args.func(args)
        print(json.dumps(record, sort_keys=True) if args.json else "\n".join(_text_lines(record)))
        return 1 if record.get("result") == "discrepancy" else 0
    except tuple(_ERRORS) as exc:
        kind, code = next(value for cls, value in _ERRORS.items() if isinstance(exc, cls))
        message = str(exc)
        if kind == "depth":
            message = f"formula nested too deeply (Python recursion limit {sys.getrecursionlimit()})"
        print(f"error: {message}", file=sys.stderr)
        if args.json:
            record = {"command": args.command, "result": "error", "kind": kind, "message": message}
            print(json.dumps(record, sort_keys=True))
        return code


if __name__ == "__main__":
    sys.exit(main())
