"""Command-line front end: check, sat, mc, props, gen, fuzz.

Exit codes: 0 success, 1 fuzz discrepancy, 2 usage or parse error, or a file
that cannot be read or written (a missing model file, a directory, a missing
output directory), 3 resource cap exceeded (the clause cap, the profile cap
of 100000 on the profiles a random model or a blueprint enumerates, on the
agent count of a query or a model file and on a random model's state and
action counts, or, for `check` and `sat`, `<C>` nested deeper than the
recursion limit).  Output is line-oriented text; --json switches each
command to one JSON record, and a discrepancy of `fuzz` too.

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
from .normalform import ClauseCapError
from .synth import synthesize
from .syntax import ParseError, parse, random_formula, render

# Desk-scale guidance for `check`, `sat` and `fuzz`, whose cost grows with the
# formula: for each consequent, `decide.reduction_witness` tries only the
# maximal neat sets of the clause's k antecedents that the consequent's
# coalition covers (by monotonicity a smaller set cannot succeed where a
# larger one failed): at most k sets without independence, and the maximal
# families of disjoint coalitions with it.  Each try decides a reduced
# implication; at depth 0 that is a truth table with one row per assignment
# to its atoms and `<C>` leaves (2^k rows for the fan family's k atoms).
# `synth.build_blueprint` enumerates |base actions|^agents profiles, one base
# action per antecedent and per consequent.  A blueprint or
# random model (`gen`, `fuzz`) that would enumerate more than
# `models.PROFILE_CAP` profiles exits 3 before building any (17 agents with two
# actions already do), as does an agent count above it.  `sat --model` decides
# all its levels with one validity oracle, realizes the clause that oracle
# found refuting each level's negation, synthesizes each listed formula
# once, and glues a copy per listed profile and formula by state offset;
# checking the glued model evaluates each `<C>` node of its listed formulas
# once.  `mc` and `props` are linear in the model file: loading is one
# validating pass over its outcome entries, with the cyclic collector paused
# (of a 500-state load, reading the file takes about 5%, JSON decoding 45%
# and the pass 50%), after which states are bits of an int, each `<C>` node
# of an `mc` formula is one pass over the listed profiles, each other node
# one mask operation, and each frame check of `props` one pass over the rows.
SCALE_NOTE = (
    "check, sat and fuzz are intended for desk-scale formulas and countermodels"
    " (agents <= 3, actions <= 4, small modal depth); mc and props are linear in"
    " the model and handle models of hundreds of states"
)


def _emit(args, record: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _witness_text(clause_index, clause, witness) -> str:
    from .normalform import sd_to_formula

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


def cmd_check(args) -> int:
    logic = LogicId.from_string(args.logic)
    formula = parse(args.formula, args.agents)
    trace = []
    if args.trace:
        verdict, details = explain(formula, logic, args.agents)
        trace = [_witness_text(i, clause, witness) for i, (clause, witness) in enumerate(details)]
    else:
        verdict = is_valid(formula, logic, args.agents)
    result = "valid" if verdict else "invalid"
    record = {
        "command": "check",
        "formula": render(formula),
        "logic": logic.name,
        "agents": args.agents,
        "result": result,
    }
    if args.trace:
        record["trace"] = trace
    _emit(args, record, [*trace, result])
    return 0


def cmd_sat(args) -> int:
    logic = LogicId.from_string(args.logic)
    formula = parse(args.formula, args.agents)
    if args.model:
        pointed = synthesize(formula, logic, args.agents)
        sat = pointed is not None
    else:
        sat = is_satisfiable(formula, logic, args.agents)
    result = "satisfiable" if sat else "unsatisfiable"
    lines = [result]
    record = {
        "command": "sat",
        "formula": render(formula),
        "logic": logic.name,
        "agents": args.agents,
        "result": result,
    }
    if sat and args.model:
        save_model(pointed.model, args.model, pointed=pointed.state)
        lines.append(f"model written to {args.model}")
        record["model"] = args.model
        record["pointed"] = pointed.state
    _emit(args, record, lines)
    return 0


def cmd_mc(args) -> int:
    model = load_model(args.model)
    if args.state not in model.index:
        raise ModelError(f"unknown state {args.state!r}")
    formula = parse(args.formula, model.agents)
    verdict = satisfies(model, args.state, formula)
    result = "true" if verdict else "false"
    record = {
        "command": "mc",
        "model": args.model,
        "state": args.state,
        "formula": render(formula),
        "result": result,
    }
    _emit(args, record, [result])
    return 0


def cmd_props(args) -> int:
    model = load_model(args.model)
    props = frame_properties(model)
    line = (
        f"serial={str(props.serial).lower()}"
        f" independent={str(props.independent).lower()}"
        f" deterministic={str(props.deterministic).lower()}"
    )
    record = {
        "command": "props",
        "model": args.model,
        "serial": props.serial,
        "independent": props.independent,
        "deterministic": props.deterministic,
    }
    _emit(args, record, [line])
    return 0


def cmd_gen(args) -> int:
    logic = LogicId.from_string(args.logic)
    cfg = RandomModelConfig(
        num_states=args.states,
        num_actions=args.actions,
        agents=args.agents,
        branching=args.branching,
    )
    model = random_model(cfg, logic, args.seed)
    save_model(model, args.out)
    line = (
        f"wrote {args.out}: {len(model.states)} states, {len(model.actions)} actions,"
        f" {model.agents} agents ({logic.name}-model, seed {args.seed})"
    )
    record = {
        "command": "gen",
        "logic": logic.name,
        "seed": args.seed,
        "out": args.out,
        "states": len(model.states),
        "actions": len(model.actions),
        "agents": model.agents,
    }
    _emit(args, record, [line])
    return 0


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


def cmd_fuzz(args) -> int:
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
            line = f"discrepancy at iteration {iteration} ({stage}); bundle: {args.bundle}"
            _emit(args, record, [line])
            return 1
    _emit(args, record, [f"ok: {args.iters} iterations, no discrepancy"])
    return 0


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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClauseCapError, ProfileCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(
            f"error: formula nested too deeply (Python recursion limit {sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return 3
    except (ParseError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
