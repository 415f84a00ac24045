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
smallest basis index.  Phase 1 scales A by L_A, the lcm of its
denominators, and b by L, the lcm of A's and b's, with the artificial
columns left at 1.  That substitutes a' = L a and x' = (L / L_A) x and
changes no sign, ratio or tie, so the pivots, objective and Farkas vector
are those of the rational tableau, and x is read off over d L / L_A.  Only
the right-hand side carries L, so integer rows with a rational b, as in
the enumerator LP at a rational K, pivot on integers as small as for an
integer b.  Meant for small dense systems (tens of rows).

``solve_lp_then_free_row0`` solves A x = b for feasibility exactly as
``solve_lp`` does, then continues from that final tableau to min c.x with
row 0 dropped, instead of building a second tableau: row 0's artificial
becomes a free variable, and phase 1 on the other artificials starts at
the vertex just found.  Both entries run the same phase-1, drive-out and
phase-2 helpers over one pivot loop.  On the enumerator LP (``bounds``),
feasibility at K and max sum B at the critical K, this removes the second
phase 1: a seed-1 ``lp_grid`` benchmark batch makes 1,734 pivots instead
of 3,267.
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


def _tableau(
    A: Sequence[Sequence[int | Fraction]], b: Sequence[int | Fraction]
) -> tuple[list[list[int]], list[int], int]:
    """Phase-1 tableau [L_A s_i A_i | e_i | L s_i b_i], the row signs s_i and L / L_A.

    s_i = -1 where b_i < 0, so every right-hand side starts nonnegative and
    the artificials, one per row after the original columns, form a
    feasible basis.
    """
    m = len(A)
    LA = math.lcm(*(v.denominator for row in A for v in row))
    L = math.lcm(LA, *(v.denominator for v in b))
    sign = [-1 if v < 0 else 1 for v in b]
    tableau = []
    for i, (row, v) in enumerate(zip(A, b, strict=True)):
        unit = [int(j == i) for j in range(m)]
        tableau.append(_scale(row, sign[i] * LA) + unit + _scale([v], sign[i] * L))
    return tableau, sign, L // LA


def _reduced(cost: Sequence[int], tableau: list[list[int]], basis: list[int], d: int) -> list[int]:
    """Reduced costs of the integer costs over denominator d, the objective's negative last."""
    red = [
        cost[j] * d - sum(cost[v] * tr[j] for v, tr in zip(basis, tableau))
        for j in range(len(cost))
    ]
    red.append(-sum(cost[v] * tr[-1] for v, tr in zip(basis, tableau)))
    return red


def _phase1(
    tableau: list[list[int]], basis: list[int], d: int, nreal: int, ncols: int
) -> tuple[list[int], int]:
    """Minimize the sum of the artificials, columns nreal .. ncols - 1, from a feasible basis."""
    red = _reduced([int(j >= nreal) for j in range(ncols)], tableau, basis, d)
    _, d = _iterate(tableau, red, basis, d, ncols)
    return red, d


def _farkas(red: list[int], d: int, sign: list[int], columns: range) -> LPSolution:
    """The infeasibility certificate read off phase 1's artificial reduced costs."""
    farkas = [s * (1 - Fraction(red[j], d)) for s, j in zip(sign, columns, strict=True)]
    return LPSolution(status="infeasible", farkas=farkas)


def _drive_out(
    tableau: list[list[int]], red: list[int], basis: list[int], d: int, nreal: int
) -> int:
    """Pivot each zero-level artificial out on the row's first nonzero real column.

    A row with no such column is redundant; its artificial stays basic at
    zero and :func:`_phase2` leaves the row out.
    """
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= nreal:
            col = next((j for j in range(nreal) if tableau[i][j] != 0), None)
            if col is not None:
                d = _pivot(tableau, red, basis, d, i, col)
    return d


def _phase2(
    tableau: list[list[int]],
    basis: list[int],
    d: int,
    c: Sequence[int | Fraction],
    nreal: int,
    rhs_scale: int,
) -> LPSolution:
    """min c.x over the real columns, on a copy without the redundant rows.

    Real columns past len(c) cost nothing and are left out of x, which is
    read off over d * rhs_scale (see :func:`_tableau`).
    """
    keep = [i for i, var in enumerate(basis) if var < nreal]
    if any(row[-1] for var, row in zip(basis, tableau) if var >= nreal):
        raise InvariantError("artificial variable left at a nonzero level")
    basis = [basis[i] for i in keep]
    tableau = [tableau[i][:nreal] + tableau[i][-1:] for i in keep]
    ci = _scale(c, math.lcm(*(v.denominator for v in c))) + [0] * (nreal - len(c))
    red = _reduced(ci, tableau, basis, d)
    status, d = _iterate(tableau, red, basis, d, nreal)
    if status == "unbounded":
        return LPSolution(status="unbounded")
    x = [Fraction(0)] * len(c)
    for i, var in enumerate(basis):
        if var < len(c):
            x[var] = Fraction(tableau[i][-1], d * rhs_scale)
    objective = sum((cv * xv for cv, xv in zip(c, x)), Fraction(0))
    return LPSolution(status="optimal", x=x, objective=objective)


def _solve(
    c: Sequence[int | Fraction],
    A: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> tuple[LPSolution, list[list[int]], list[int], int, list[int], int]:
    """:func:`solve_lp`'s result and the state it leaves for a continuation.

    That is the tableau, basis and denominator after phase 1 and the
    drive-out (phase 2 runs on a copy), the row signs and the right-hand
    side's extra scale L / L_A.
    """
    nv, m = len(c), len(A)
    tableau, sign, rhs_scale = _tableau(A, b)
    basis = list(range(nv, nv + m))
    red, d = _phase1(tableau, basis, 1, nv, nv + m)
    if red[-1] < 0:
        sol = _farkas(red, d, sign, range(nv, nv + m))
    else:
        d = _drive_out(tableau, red, basis, d, nv)
        sol = _phase2(tableau, basis, d, c, nv, rhs_scale)
    return sol, tableau, basis, d, sign, rhs_scale


def solve_lp(
    c: Sequence[int | Fraction],
    A: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> LPSolution:
    return _solve(c, A, b)[0]


def solve_lp_then_free_row0(
    c: Sequence[int | Fraction],
    A: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> tuple[LPSolution, LPSolution]:
    """Feasibility of A x = b, then min c.x subject to A[1:] x = b[1:], x >= 0.

    The first result is ``solve_lp([0] * len(c), A, b)``.  The second
    continues from its tableau: row 0's artificial u becomes a real
    variable, free in sign as u - v with v's column the negated u column,
    so row 0 no longer binds.  Phase 1 reruns on the other artificials
    (already at zero when A x = b is feasible), the zero-level ones are
    driven out, this time also on u or v, and phase 2 minimizes c.x.  When
    A[1:] x = b[1:] is infeasible, the Farkas vector is over rows 1 and up.
    """
    nv, m = len(c), len(A)
    feasibility, tableau, basis, d, sign, rhs_scale = _solve([0] * nv, A, b)
    for row in tableau:
        row.insert(nv + 1, -row[nv])
    basis = [var + (var > nv) for var in basis]
    red, d = _phase1(tableau, basis, d, nv + 2, nv + 1 + m)
    if red[-1] < 0:
        return feasibility, _farkas(red, d, sign[1:], range(nv + 2, nv + 1 + m))
    d = _drive_out(tableau, red, basis, d, nv + 2)
    return feasibility, _phase2(tableau, basis, d, c, nv + 2, rhs_scale)
