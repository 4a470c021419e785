import itertools
import random
import re

import pytest

import helpers
from cglogic import ALL_LOGICS, decide
from cglogic.axioms import a_cea, a_det, a_ia, a_naaa, a_ser, a_sia, mon_conclusion, system_instances
from cglogic.cli import main
from cglogic.decide import (
    explain,
    is_neat,
    is_satisfiable,
    is_taut,
    is_valid,
    reduction_witness,
    validity_oracle,
)
from cglogic.logics import D, E, I, ID, LogicId, S, SD, SI, SID
from cglogic.mcheck import satisfies, valid_on_model
from cglogic.models import RandomModelConfig, random_model, validate_model
from cglogic.normalform import StandardDisjunction, to_standard_disjunctions
from cglogic.synth import synthesize
from cglogic.syntax import (
    And,
    Atom,
    BOT,
    Coal,
    Implies,
    Not,
    Or,
    TOP,
    modal_depth,
    parse,
    random_formula,
    render,
)

P, Q = Atom("p"), Atom("q")


def test_is_taut():
    assert is_taut(Or(P, Not(P)))
    assert not is_taut(P)
    assert is_taut(Implies(And(P, Q), P))
    # modal subformulas are opaque: <0>p | ~<0>p is a tautology,
    # <0>(p | ~p) is not decided true by shape alone
    m = Coal({0}, P)
    assert is_taut(Or(m, Not(m)))
    assert not is_taut(Coal({0}, Or(P, Not(P))))


NEG_DISJOINT = ((frozenset(), TOP), (frozenset({0}), P), (frozenset({1}), Q))
NEG_CLASH = ((frozenset(), TOP), (frozenset({0}), P), (frozenset({0}), Q))


def test_is_neat_paper_cases():
    # empty set: neat exactly when seriality is assumed
    for x in ALL_LOGICS:
        assert is_neat(frozenset(), NEG_DISJOINT, x) == x.has_S
    # two disjoint nonempty coalitions: needs independence
    pair = frozenset({1, 2})
    assert is_neat(pair, NEG_DISJOINT, I)
    assert not is_neat(pair, NEG_DISJOINT, E)
    assert not is_neat(pair, NEG_DISJOINT, SD)
    # overlapping coalitions are never neat
    for x in ALL_LOGICS:
        assert not is_neat(frozenset({1, 2}), NEG_CLASH, x)


def test_neatness_downward_closed():
    rng = random.Random(3)
    for _ in range(200):
        family = tuple(
            (frozenset(a for a in range(3) if rng.random() < 0.4), P) for _ in range(4)
        )
        x = rng.choice(ALL_LOGICS)
        indices = list(range(4))
        big = frozenset(i for i in indices if rng.random() < 0.6)
        if not is_neat(big, family, x):
            continue
        for size in range(len(big) + 1):
            for sub in itertools.combinations(sorted(big), size):
                sub = frozenset(sub)
                if not x.has_S and not sub:
                    continue  # the empty subset needs seriality
                assert is_neat(sub, family, x)


def test_reduction_witness_serial_clause():
    [clause] = to_standard_disjunctions(Coal({0}, TOP), 2)
    assert clause.positives == ((frozenset({0, 1}), BOT), (frozenset({0}), TOP))
    rec = validity_oracle(S, 2)
    witness = reduction_witness(clause, S, rec)
    assert witness is not None
    assert witness.neat == frozenset() and witness.positive == 1

    rec_e = validity_oracle(E, 2)
    assert reduction_witness(clause, E, rec_e) is None
    # confirmed by a countermodel with an empty outcome table
    empty = helpers.empty_table_model(agents=2, actions=("x",))
    assert not satisfies(empty, "s0", Coal({0}, TOP))


def test_reduction_witness_gamma():
    [clause] = to_standard_disjunctions(Or(Coal({0}, P), Or(P, Not(P))), 1)
    witness = reduction_witness(clause, E, validity_oracle(E, 1))
    assert witness is not None and witness.kind == "gamma"


def test_reduction_witness_deterministic_case():
    f = Or(Coal(frozenset(), Not(P)), Coal({0, 1}, P))
    [clause] = to_standard_disjunctions(f, 2)
    witness = reduction_witness(clause, SD, validity_oracle(SD, 2))
    assert witness is not None and witness.kind == "modal"
    picked = clause.positives[witness.positive]
    assert picked == (frozenset(), Not(P))


def test_validity_examples():
    for x in ALL_LOGICS:
        assert is_valid(parse("~<*>false", 2), x, 2)

    det_instance = parse("<0>(p|q) -> (<0>p | <*>q)", 2)
    for x in ALL_LOGICS:
        assert is_valid(det_instance, x, 2) == x.has_D

    remark = parse("~<>~p -> <*>p", 2)
    for x in ALL_LOGICS:
        assert is_valid(remark, x, 2) == (x.has_S and x.has_D)
    assert is_valid(remark, SD, 2) and is_valid(remark, SID, 2)
    assert not is_valid(remark, D, 2)


def test_characteristic_serial_and_independent():
    for x in ALL_LOGICS:
        assert is_valid(parse("<0>true", 2), x, 2) == x.has_S
        ia_instance = a_ia({0}, {1}, P, Q)
        assert is_valid(ia_instance, x, 2) == x.has_I


def test_axioms_valid_in_their_systems():
    rng = random.Random(31)
    for x in ALL_LOGICS:
        for agents in (1, 2):
            for _ in range(3):
                for name, instance in system_instances(x, agents, rng):
                    assert is_valid(instance, x, agents), (x.name, name, render(instance))


def test_derived_formulas_valid_everywhere():
    for x in ALL_LOGICS:
        assert is_valid(a_cea({0}, P), x, 2)
        assert is_valid(a_sia({1}, P, Q), x, 2)
        assert is_valid(mon_conclusion({0}, {0, 1}, And(P, Q), P), x, 2)
        assert is_valid(a_naaa({0, 1}), x, 2)


def test_satisfiability_examples():
    f = parse("<0>p & <0>~p", 1)
    assert is_satisfiable(f, E, 1)
    pointed = synthesize(f, E, 1)  # the stated oracle: model it and check it
    assert satisfies(pointed.model, pointed.state, f)
    assert validate_model(pointed.model, E).passed

    g = parse("<0>p & ~<*>p", 1)
    pool = helpers.enumerate_small_models()
    for x in ALL_LOGICS:
        assert not helpers.brute_force_satisfiable(pool, g, x)
        assert not is_satisfiable(g, x, 1)

    for x in ALL_LOGICS:
        assert not is_satisfiable(BOT, x, 1)


def test_satisfiable_iff_negation_invalid():
    rng = random.Random(37)
    for _ in range(60):
        f = random_formula(rng, 2, 2)
        x = rng.choice(ALL_LOGICS)
        assert is_satisfiable(f, x, 2) == (not is_valid(Not(f), x, 2))


def test_validity_monotone_in_logic():
    rng = random.Random(41)
    for _ in range(80):
        f = random_formula(rng, 2, 2)
        verdicts = {x: is_valid(f, x, 2) for x in ALL_LOGICS}
        for x in ALL_LOGICS:
            for y in ALL_LOGICS:
                if x <= y and verdicts[x]:
                    assert verdicts[y], render(f)


def test_soundness_sampled():
    rng = random.Random(43)
    hits = 0
    for _ in range(150):
        f = random_formula(rng, 2, 2)
        for x in ALL_LOGICS:
            if is_valid(f, x, 2):
                hits += 1
                for seed in range(10):
                    m = helpers.random_x_model(x, seed, agents=2)
                    assert valid_on_model(m, f), (x.name, render(f))
    assert hits > 0


def test_explain_trace():
    verdict, details = explain(parse("<0>true", 2), S, 2)
    assert verdict and len(details) == 1
    clause, witness = details[0]
    assert witness is not None and witness.positive == 1

    verdict, details = explain(parse("<0>true", 2), E, 2)
    assert not verdict and details[0][1] is None

    verdict, details = explain(parse("p | ~p", 2), E, 2)
    assert verdict and details == []


def test_agent_mismatch_and_bad_args():
    with pytest.raises(ValueError):
        is_valid(Coal({3}, P), E, 2)
    with pytest.raises(ValueError):
        is_valid(P, E, 0)


_F2 = Coal({0}, P)


@pytest.mark.parametrize("agents", [True, False, 2.0, "2", None, [2]])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: parse("<1> p", n),
        lambda n: is_valid(_F2, E, n),
        lambda n: is_satisfiable(_F2, SID, n),
        lambda n: explain(_F2, E, n),
        lambda n: validity_oracle(E, n)(_F2),
        lambda n: synthesize(_F2, E, n),
        lambda n: random_model(RandomModelConfig(agents=n), E, 0),
    ],
    ids=["parse", "is_valid", "is_satisfiable", "explain", "oracle", "synthesize", "random_model"],
)
def test_agent_count_must_be_an_int(call, agents):
    # A bool is not an agent count; every entry refuses a count that is not
    # an int with a ValueError before comparing it with anything.
    with pytest.raises(ValueError, match=rf"^agent count {re.escape(repr(agents))} must be an int$"):
        call(agents)


def test_deterministic_results():
    f = parse("(<0>p & <1>q) -> <0,1>(p & q)", 2)
    assert is_valid(f, SI, 2) == is_valid(f, SI, 2)
    assert [is_valid(f, x, 2) for x in ALL_LOGICS] == [x.has_I for x in ALL_LOGICS]


_POOL = (P, Q, Not(P), And(P, Q), Or(P, Q), TOP, BOT, Coal({0}, P), Not(Coal({1, 2}, Q)))
_COALITIONS = tuple(
    frozenset(c) for size in range(4) for c in itertools.combinations(range(3), size)
)


def _random_clause(rng):
    """A 3-agent clause whose antecedents may have empty coalitions, whose
    consequents may be ``<*>``, and whose antecedent family may be empty."""
    negatives = ()
    if rng.random() < 0.8:
        negatives = ((frozenset(), TOP),) + tuple(
            (rng.choice(_COALITIONS), rng.choice(_POOL)) for _ in range(rng.randint(0, 5))
        )
    positives = ((frozenset(range(3)), BOT),) + tuple(
        (rng.choice(_COALITIONS), rng.choice(_POOL)) for _ in range(rng.randint(0, 3))
    )
    return StandardDisjunction(3, frozenset(), negatives, positives)


def test_reduction_witness_matches_the_full_neat_set_search():
    rng = random.Random(53)
    clauses = [_random_clause(rng) for _ in range(250)]
    for _ in range(60):
        f = random_formula(rng, 2, 3)
        if modal_depth(f):
            clauses.extend(to_standard_disjunctions(f, 3))
    seen = {"modal": 0, "empty coalition kept": 0, "empty set": 0, "no-S none": 0}
    for x in ALL_LOGICS:
        rec = validity_oracle(x, 3)
        for clause in clauses:
            witness = reduction_witness(clause, x, rec)
            assert witness == helpers.reference_reduction_witness(clause, x, rec), (x.name, clause)
            if witness is not None and witness.kind == "modal":
                seen["modal"] += 1
                seen["empty coalition kept"] += any(
                    not clause.negatives[i][0] for i in witness.neat
                ) and len(witness.neat) > 1
                seen["empty set"] += not witness.neat
            if not clause.negatives and not x.has_S:
                seen["no-S none"] += witness is None
    assert min(seen.values()) >= 20, seen


def test_maximal_neat_sets_are_the_maximal_covered_neat_sets():
    rng = random.Random(59)
    for _ in range(300):
        negatives = tuple((rng.choice(_COALITIONS), P) for _ in range(rng.randint(0, 6)))
        cover = rng.choice(_COALITIONS)
        empty = frozenset(i for i, (c, _) in enumerate(negatives) if not c)
        nonempty = [(i, c) for i, (c, _) in enumerate(negatives) if c]

        def covered(neat):
            return all(negatives[i][0] <= cover for i in neat)

        for x in ALL_LOGICS:
            got = list(decide._maximal_neat_sets(empty, nonempty, cover, x))
            every = [n for n in helpers.reference_neat_subsets(negatives, x) if covered(n)]
            for neat in got:
                assert is_neat(neat, negatives, x) and covered(neat)
                for i in set(range(len(negatives))) - neat:
                    bigger = neat | {i}
                    assert not (is_neat(bigger, negatives, x) and covered(bigger))
            for neat in every:
                assert any(neat <= maximal for maximal in got)
            # no repeats, and the order of the full search
            assert got == [n for n in every if n in got]


def _fan(k: int) -> str:
    antecedent = " & ".join(f"<{i % 3}>x{i}" for i in range(k))
    return f"{antecedent} -> <0,1,2>({' & '.join(f'x{i}' for i in range(k))})"


def test_check_trace_on_fans_matches_the_full_neat_set_search(capsys, monkeypatch):
    def traces():
        out = []
        for k in range(1, 10):
            for text in (_fan(k), f"~({_fan(k)})"):
                for x in ALL_LOGICS:
                    assert main(["check", "--trace", "--logic", x.name, "--agents", "3", text]) == 0
                    out.append(capsys.readouterr().out)
        return out

    got = traces()
    monkeypatch.setattr(decide, "reduction_witness", helpers.reference_reduction_witness)
    assert got == traces()


def _refutation_cases():
    cases = []
    rng = random.Random(61)
    for agents in (1, 2, 3):
        for depth in range(4):
            cases += [(random_formula(rng, depth, agents), agents) for _ in range(8)]
    # the first draws of each criterion-5 pool
    for index in range(len(ALL_LOGICS)):
        rng = random.Random(303 + index)
        cases += [(random_formula(rng, 2, 2, ("p", "q")), 2) for _ in range(6)]
    return cases


def test_oracle_refutation_is_the_first_clause_with_no_witness():
    # One oracle per logic serves every case, so many answers are read from
    # its cache; each is held to a fresh oracle's search.
    cases = _refutation_cases()
    seen = {"valid": 0, "False": 0, "clause": 0}
    for x in ALL_LOGICS:
        oracles = {agents: validity_oracle(x, agents) for agents in (1, 2, 3)}
        for f, agents in cases:
            for g in (f, Not(f)):
                rec = oracles[agents]
                refutation = rec.refutation(g)
                assert (refutation is True) == rec(g), (x.name, render(g))
                if refutation is True:
                    seen["valid"] += 1
                elif modal_depth(g) == 0:
                    assert refutation is False and not is_taut(g), render(g)
                    seen["False"] += 1
                else:
                    fresh = validity_oracle(x, agents)
                    first = next(
                        c
                        for c in to_standard_disjunctions(g, agents)
                        if reduction_witness(c, x, fresh) is None
                    )
                    assert refutation == first, (x.name, render(g))
                    seen["clause"] += 1
    assert min(seen.values()) >= 20, seen
