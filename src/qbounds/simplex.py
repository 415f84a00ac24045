"""Exact two-phase simplex by fraction-free integer pivoting.

Solves  min c.x  subject to  A x = b, x >= 0  exactly with Bland's rule.
When the constraints are infeasible, a Farkas certificate y is returned
with y.A <= 0 componentwise and y.b > 0, proving infeasibility exactly.
Entries of c, A and b are ``int`` or ``Fraction``: both carry
``numerator`` and ``denominator``, so integer rows are scaled into the
tableau as they are, with no conversion.

The tableau is integer rows plus an integer reduced-cost row R over one
denominator d > 0 (Edmonds-Bareiss, as in ``lrs``): the rational tableau
is T/d.  A pivot on (r, k) with p = T[r][k] sets each other row, R too, to
(T[i][j] p - T[i][k] T[r][j]) / d and then d to p.  The division is exact,
as every entry is a minor of the scaled input and d the basis determinant.
A negative pivot (only when a zero-level artificial is driven out) negates
the tableau to keep d > 0.  So each test reads as over the rationals:
R[j] < 0 enters, ratios compare by cross-products and ties break on the
smallest basis index.  Phase 1 scales A and b by L, the lcm of their
denominators, with the artificial columns left at 1.  That substitutes
a' = L a and changes no sign, ratio or tie, so the pivots, x, objective
and Farkas vector are those of the rational tableau.  Meant for small
dense systems (tens of rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None


def _scale(values: Sequence[int | Fraction], L: int) -> list[int]:
    """L * values as integers; L is a multiple of every denominator."""
    return [v.numerator * (L // v.denominator) for v in values]


def _pivot(
    tableau: list[list[int]], red: list[int], basis: list[int], d: int, row: int, col: int
) -> int:
    """Pivot on (row, col) over denominator d; returns the new denominator."""
    pr = tableau[row]
    p = pr[col]
    if p < 0:
        tableau[row] = [-v for v in pr]
        d = -d
    for i, other in enumerate(tableau):
        if i != row:
            f = other[col]
            tableau[i] = [(v * p - f * w) // d for v, w in zip(other, pr)]
    f = red[col]
    red[:] = [(v * p - f * w) // d for v, w in zip(red, pr)]
    basis[row] = col
    return abs(p)


def _iterate(
    tableau: list[list[int]], red: list[int], basis: list[int], d: int, ncols: int
) -> tuple[str, int]:
    """Run simplex to optimality with Bland's rule; may report 'unbounded'."""
    while True:
        col = next((j for j in range(ncols) if red[j] < 0), None)
        if col is None:
            return "optimal", d
        row = br = None
        for i, tr in enumerate(tableau):
            if tr[col] > 0:
                # sign of ratio_i - ratio_row, both denominators positive
                cmp = -1 if row is None else tr[-1] * br[col] - br[-1] * tr[col]
                if cmp < 0 or (cmp == 0 and basis[i] < basis[row]):
                    row, br = i, tr
        if row is None:
            return "unbounded", d
        d = _pivot(tableau, red, basis, d, row, col)


def solve_lp(
    c: Sequence[int | Fraction],
    A: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> LPSolution:
    m, nv = len(A), len(c)
    rows = [[*row, v] for row, v in zip(A, b, strict=True)]
    L = math.lcm(*(v.denominator for row in rows for v in row))
    sign = [-1 if row[-1] < 0 else 1 for row in rows]

    ncols = nv + m  # original variables then one artificial per row
    tableau = []
    for i, row in enumerate(rows):
        scaled = _scale(row, sign[i] * L)
        tableau.append(scaled[:-1] + [int(j == i) for j in range(m)] + scaled[-1:])
    basis = list(range(nv, nv + m))

    # phase 1: min sum of artificials; reduced costs relative to that basis
    red = [int(j >= nv) - sum(tr[j] for tr in tableau) for j in range(ncols)]
    red.append(-sum(tr[-1] for tr in tableau))
    _, d = _iterate(tableau, red, basis, 1, ncols)
    if red[-1] < 0:
        farkas = [sign[i] * (1 - Fraction(red[nv + i], d)) for i in range(m)]
        return LPSolution(status="infeasible", farkas=farkas)

    # drive leftover zero-level artificials out of the basis
    for i in range(m - 1, -1, -1):
        if basis[i] >= nv:
            col = next((j for j in range(nv) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i], basis[i]  # redundant row
            else:
                d = _pivot(tableau, red, basis, d, i, col)

    # phase 2 on the original columns only, costs scaled to integers
    ci = _scale(c, math.lcm(*(v.denominator for v in c)))
    tableau = [row[:nv] + [row[-1]] for row in tableau]
    red = [ci[j] * d - sum(ci[v] * tr[j] for v, tr in zip(basis, tableau)) for j in range(nv)]
    red.append(-sum(ci[v] * tr[-1] for v, tr in zip(basis, tableau)))
    status, d = _iterate(tableau, red, basis, d, nv)
    if status == "unbounded":
        return LPSolution(status="unbounded")
    x = [Fraction(0)] * nv
    for i, var in enumerate(basis):
        if var >= nv:
            raise InvariantError("artificial variable survived phase 2")
        x[var] = Fraction(tableau[i][-1], d)
    objective = sum((cv * xv for cv, xv in zip(c, x)), Fraction(0))
    return LPSolution(status="optimal", x=x, objective=objective)
