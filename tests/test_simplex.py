"""The integer packing simplex against the two-phase ``Fraction`` simplex."""

from fractions import Fraction

import pytest

from spjopt.simplex import solve_lp

from oracles import two_phase_solve_lp


def assert_same_as_oracle(objective, rows):
    got = solve_lp(objective, rows)
    ref = two_phase_solve_lp(objective, rows)
    assert (got.status, got.value, got.solution) == (ref.status, ref.value, ref.solution)
    return got


def random_01_lp(rng, n, m, density):
    rows = []
    for _ in range(m):
        rows.append(([1 if rng.random() < density else 0 for _ in range(n)], "<=", 1))
    return [1] * n, rows


def test_01_packing_lps(rng):
    statuses = set()
    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        objective, rows = random_01_lp(rng, n, m, rng.choice((0.3, 0.5, 0.8)))
        statuses.add(assert_same_as_oracle(objective, rows).status)
    assert statuses == {"optimal", "unbounded"}


def test_degenerate_01_lps_with_ratio_ties(rng):
    """Few distinct rows, repeated, and some zero right-hand sides: many
    pivots tie in the ratio test and Bland's tie-break decides."""
    ties = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        pool = [[rng.randint(0, 1) for _ in range(n)] for _ in range(3)]
        for row in pool:
            row[rng.randrange(n)] = 1
        rows = []
        for _ in range(rng.randint(2, 9)):
            rows.append((list(rng.choice(pool)), "<=", rng.choice((0, 1, 1, 1))))
        objective = [rng.randint(0, 2) for _ in range(n)]
        assert_same_as_oracle(objective, rows)
        ties += len({tuple(c) for c, _, _ in rows}) < len(rows)
    assert ties >= 100


def test_rational_coefficients_and_right_hand_sides(rng):
    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

    optimal = 0
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        objective = [q(-2, 5) for _ in range(n)]
        rows = [([q(-2, 6) for _ in range(n)], "<=", q(0, 8)) for _ in range(m)]
        optimal += assert_same_as_oracle(objective, rows).status == "optimal"
    assert optimal >= 100


def test_all_zero_rows(rng):
    for _ in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        objective, rows = random_01_lp(rng, n, m, 0.6)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), ([0] * n, "<=", rng.choice((0, 1))))
        with_zeros = assert_same_as_oracle(objective, rows)
        pruned = [row for row in rows if any(row[0])]
        if pruned:
            # Leaving the zero rows out changes no pivot.
            without = solve_lp(objective, pruned)
            assert (without.status, without.value, without.solution) == (
                with_zeros.status,
                with_zeros.value,
                with_zeros.solution,
            )


def test_column_without_coefficients_is_unbounded(rng):
    for _ in range(50):
        n, m = rng.randint(2, 6), rng.randint(1, 6)
        objective, rows = random_01_lp(rng, n, m, 0.7)
        free = rng.randrange(n)
        for coeffs, _, _ in rows:
            coeffs[free] = 0
        assert assert_same_as_oracle(objective, rows).status == "unbounded"


def test_known_values():
    # The triangle's fractional edge packing: 3/2 at (1/2, 1/2, 1/2).
    tri = [([1, 1, 0], "<=", 1), ([0, 1, 1], "<=", 1), ([1, 0, 1], "<=", 1)]
    res = solve_lp([1, 1, 1], tri)
    assert (res.status, res.value, res.solution) == ("optimal", Fraction(3, 2), [Fraction(1, 2)] * 3)
    assert solve_lp([Fraction(1, 3)], [([Fraction(2, 5)], "<=", Fraction(1, 7))]).value == Fraction(5, 42)
    assert solve_lp([0, -1], []).value == 0
    assert solve_lp([1], []).status == "unbounded"


@pytest.mark.parametrize("rel", [">=", "="])
def test_rejects_rows_other_than_packing(rel):
    with pytest.raises(ValueError):
        solve_lp([1, 1], [([1, 0], "<=", 1), ([1, 1], rel, 1)])


def test_rejects_negative_right_hand_side():
    with pytest.raises(ValueError):
        solve_lp([1, 1], [([1, 1], "<=", Fraction(-1, 2))])
    with pytest.raises(ValueError):
        solve_lp([1], [([1], "<=", -1)])


def test_rejects_row_of_wrong_length():
    with pytest.raises(ValueError):
        solve_lp([1, 1], [([1], "<=", 1)])
