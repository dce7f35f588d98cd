"""Primal simplex for packing LPs over an exact integer tableau.

The library only solves ``max c.x`` subject to rows ``a.x <= b`` with
``b >= 0`` and ``x >= 0``, so the all-slack basis is feasible from the start
and one phase suffices.  Width values are exponents, so float drift is
unacceptable and the arithmetic is exact: each row is scaled to integers by
the lcm of its denominators (its slack stays a unit column), and pivots are
fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  The tableau
holds integers ``T`` and one common denominator ``d``, the previous pivot,
which is always positive; the true tableau is ``T / d``.  A pivot on
``(r, c)`` with value ``p`` sets every other row ``i`` to
``(p*T[i] - T[i][c]*T[r]) // d``, an exact division, and then ``d = p``.

Pivoting follows Bland's rule, which rules out cycling.  Signs are read off
``T`` directly and ratios are compared by cross-multiplying, so every
comparison, and with it the pivot sequence and the optimal basic solution,
is that of the same simplex over ``Fraction`` entries.  Problem sizes here
are tiny (tens of rows/columns), so the dense tableau is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded"
    value: Optional[Fraction]
    solution: Optional[list[Fraction]]


def _integers(values: Sequence) -> tuple[list[int], int]:
    """``values`` scaled to integers by the lcm of their denominators, and
    that lcm."""
    if all(type(v) is int for v in values):
        return list(values), 1
    exact = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in exact))
    return [int(v * scale) for v in exact], scale


def solve_lp(objective: Sequence, constraints: Sequence[tuple[Sequence, str, object]]) -> LpResult:
    """Solve max objective . x  subject to rows (coeffs, "<=", rhs), x >= 0.

    Every ``rhs`` must be nonnegative; any other relation, a negative
    right-hand side or a row of the wrong length raises ``ValueError``.
    Returns an exact optimal basic solution when one exists.
    """
    n = len(objective)
    m = len(constraints)
    cost, cost_scale = _integers(objective)
    ncols = n + m
    tableau: list[list[int]] = []
    for i, (coeffs, rel, rhs) in enumerate(constraints):
        if rel != "<=":
            raise ValueError(f"packing rows only: relation {rel!r} is not '<='")
        if len(coeffs) != n:
            raise ValueError(f"row {i} has {len(coeffs)} coefficients, expected {n}")
        if rhs < 0:
            raise ValueError(f"packing rows only: row {i} has negative right-hand side {rhs}")
        row, _ = _integers(list(coeffs) + [rhs])
        vec = row[:n] + [0] * m + row[n:]
        vec[n + i] = 1
        tableau.append(vec)
    tableau.append([-v for v in cost] + [0] * (m + 1))
    obj_row = m  # reduced costs, then d * value
    basis = list(range(n, ncols))
    d = 1
    while True:
        reduced = tableau[obj_row]
        entering = next((j for j in range(ncols) if reduced[j] < 0), None)  # Bland
        if entering is None:
            break
        leaving = None
        for r in range(m):
            a = tableau[r][entering]
            if a <= 0:
                continue
            if leaving is not None:
                # Compare b_r / a with the best ratio num / den so far.
                here, best = tableau[r][-1] * den, num * a
                if here > best or (here == best and basis[r] > basis[leaving]):
                    continue
            leaving, num, den = r, tableau[r][-1], a
        if leaving is None:
            return LpResult("unbounded", None, None)
        prow = tableau[leaving]
        p = prow[entering]
        for i, vec in enumerate(tableau):
            if i == leaving:
                continue
            f = vec[entering]
            if f:
                tableau[i] = [(p * x - f * y) // d for x, y in zip(vec, prow)]
            elif p != d:
                tableau[i] = [p * x // d for x in vec]
        d = p
        basis[leaving] = entering
    solution = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = Fraction(tableau[r][-1], d)
    return LpResult("optimal", Fraction(tableau[obj_row][-1], d * cost_scale), solution)
