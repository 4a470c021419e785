"""Tier-1 run of the bounded-exhaustive check (``exhaustive.py``): every
formula of up to 4 nodes over 2 agents, in all eight logics."""

import exhaustive


def test_formula_pool_is_every_small_formula_once():
    pool = exhaustive.formula_pool(2, 4)
    assert len(pool) == len(set(pool)) == 352
    assert all(f.depth >= 1 for f in pool)
    assert len(exhaustive.formula_pool(1, 6)) == 2132


def test_every_verdict_up_to_size_4_over_2_agents_is_confirmed():
    result = exhaustive.run(2, 4)
    assert result["failures"] == []
    counts = result["formulas"], result["valid_verdicts"], result["countermodels"]
    assert counts == (352, 448, 2368)
