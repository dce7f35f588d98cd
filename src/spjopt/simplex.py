"""Primal simplex for packing LPs over an exact integer tableau.

The library only solves ``max c.x`` subject to rows ``a.x <= 1`` with 0/1
coefficients ``a``, integer costs ``c`` and ``x >= 0``: a color number is a
packing of key-closed classes where the classes that meet a tuple weigh at
most 1 in total.  The all-slack basis is feasible from the start, so one
phase suffices.  Width values are exponents, so float drift is unacceptable
and the arithmetic is exact: pivots are fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math. Comp.
1968).  The tableau holds integers ``T`` and one common denominator ``d``,
the previous pivot, which is always positive; the true tableau is ``T / d``.
A pivot on ``(r, c)`` with value ``p`` sets every other row ``i`` to
``(p*T[i] - T[i][c]*T[r]) // d``, an exact division, and then ``d = p``.

Pivoting follows Bland's rule, which rules out cycling.  Signs are read off
``T`` directly and ratios are compared by cross-multiplying, so every
comparison, and with it the pivot sequence and the optimal basic solution,
is that of the same simplex over ``Fraction`` entries.  Problem sizes here
are tiny (tens of rows/columns), so the dense tableau is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import Record, SpjError, set_field


class LpResult(Record):
    __slots__ = ("value", "solution")

    def __init__(self, value: Fraction, solution: list[Fraction]):
        set_field(self, "value", value)
        set_field(self, "solution", solution)


def solve_lp(objective: Sequence[int], rows: Sequence[Sequence[int]]) -> LpResult:
    """Solve max objective . x  subject to  a . x <= 1  for each 0/1 row
    ``a`` of ``rows``, x >= 0.  Returns an exact optimal basic solution; an
    unbounded LP raises :class:`SpjError`."""
    n = len(objective)
    m = len(rows)
    ncols = n + m
    tableau: list[list[int]] = []
    for i, coeffs in enumerate(rows):
        vec = list(coeffs) + [0] * m + [1]
        vec[n + i] = 1
        tableau.append(vec)
    tableau.append([-v for v in objective] + [0] * (m + 1))
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
            raise SpjError(f"packing LP unbounded: column {entering} meets no row")
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
    return LpResult(Fraction(tableau[obj_row][-1], d), solution)
