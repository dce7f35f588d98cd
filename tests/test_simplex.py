"""The integer packing simplex against the two-phase ``Fraction`` simplex."""

from fractions import Fraction

import pytest

from spjopt.errors import SpjError
from spjopt.simplex import solve_lp

from oracles import two_phase_solve_lp


def assert_same_as_oracle(objective, rows) -> str:
    """Solve the packing LP both ways; the oracle's status."""
    ref = two_phase_solve_lp(objective, [(row, "<=", 1) for row in rows])
    if ref.status == "unbounded":
        with pytest.raises(SpjError, match="^packing LP unbounded"):
            solve_lp(objective, rows)
    else:
        got = solve_lp(objective, rows)
        assert (got.value, got.solution) == (ref.value, ref.solution)
    return ref.status


def random_01_lp(rng, n, m, density):
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    return [1] * n, rows


def test_01_packing_lps(rng):
    statuses = set()
    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        objective, rows = random_01_lp(rng, n, m, rng.choice((0.3, 0.5, 0.8)))
        statuses.add(assert_same_as_oracle(objective, rows))
    assert statuses == {"optimal", "unbounded"}


def test_degenerate_01_lps_with_ratio_ties(rng):
    """Few distinct rows, repeated, and integer costs of either sign: many
    pivots tie in the ratio test and Bland's tie-break decides."""
    ties = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        pool = [[rng.randint(0, 1) for _ in range(n)] for _ in range(3)]
        for row in pool:
            row[rng.randrange(n)] = 1
        rows = [list(rng.choice(pool)) for _ in range(rng.randint(2, 9))]
        objective = [rng.randint(-1, 2) for _ in range(n)]
        assert_same_as_oracle(objective, rows)
        ties += len(set(map(tuple, rows))) < len(rows)
    assert ties >= 100


def test_all_zero_rows(rng):
    for _ in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        objective, rows = random_01_lp(rng, n, m, 0.6)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        if assert_same_as_oracle(objective, rows) == "optimal":
            # Leaving the zero rows out changes no pivot.
            pruned = [row for row in rows if any(row)]
            assert solve_lp(objective, pruned) == solve_lp(objective, rows)


def test_column_without_coefficients_is_unbounded(rng):
    for _ in range(50):
        n, m = rng.randint(2, 6), rng.randint(1, 6)
        objective, rows = random_01_lp(rng, n, m, 0.7)
        free = rng.randrange(n)
        for row in rows:
            row[free] = 0
        assert assert_same_as_oracle(objective, rows) == "unbounded"


def test_known_values():
    # The triangle's fractional edge packing: 3/2 at (1/2, 1/2, 1/2).
    res = solve_lp([1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert (res.value, res.solution) == (Fraction(3, 2), [Fraction(1, 2)] * 3)
    assert solve_lp([2, 3], [[1, 1]]).value == 3
    assert solve_lp([0, -1], []).value == 0
    with pytest.raises(SpjError, match="^packing LP unbounded: column 0 meets no row$"):
        solve_lp([1], [])
