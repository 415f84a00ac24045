"""Exact two-phase simplex by fraction-free integer pivoting.

Solves  min c.x  subject to  A x = b, x >= 0  exactly with Bland's rule.
When the constraints are infeasible, a Farkas certificate y is returned
with y.A <= 0 componentwise and y.b > 0, proving infeasibility exactly.
Entries of c, A and b are ``int`` or ``Fraction``: both carry
``numerator`` and ``denominator``, so integer rows are scaled into the
tableau as they are, with no conversion.

The tableau is an integer dictionary over one denominator d > 0
(Edmonds-Bareiss, as in ``lrs``): one row per basic variable, holding its
entries in the nonbasic columns and then its right-hand side, plus an
integer reduced-cost row R in the same layout.  ``basis[i]`` names row i's
variable and ``nonbasic[k]`` column k's; the unit columns of the basic
variables are never stored, so the tableau is nv + 1 wide, not nv + m + 1.
The rational tableau is T/d.  A pivot on (r, k) with p = T[r][k] and s its
sign sets each cell of another row, R's too, to
(T[i][j] |p| - T[i][k] s T[r][j]) / d, multiplies row r by s and sets d
to |p|.  The division is exact, as every entry is a minor of the scaled
input and d the basis determinant.  Column k then holds the leaving variable: -s T[i][k] in row i != r, s d in
row r and -s R[k] in R, which is the Bareiss update of its unit column d e_r.
So each test reads as over the rationals: among the nonbasic variables the
one with the smallest index and R < 0 enters, ratios compare by
cross-products and ties break on the smallest basis index.  A negative
pivot occurs only when a zero-level artificial is driven out.  Phase 1
scales A by L_A, the lcm of its denominators, and b by L, the lcm of A's
and b's, with the artificials basic on unit columns.  That substitutes
a' = L a and x' = (L / L_A) x and changes no sign, ratio or tie, so the
pivots, objective and Farkas vector are those of the rational tableau, and
x is read off over d L / L_A.  Only the right-hand side carries L, so
integer rows with a rational b, as in the enumerator LP at a rational K,
pivot on integers as small as for an integer b.  Meant for small dense
systems (tens of rows).

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
    tableau: list[list[int]],
    red: list[int],
    basis: list[int],
    nonbasic: list[int],
    d: int,
    row: int,
    col: int,
) -> int:
    """Pivot on (row, col) over denominator d; returns the new denominator.

    The leaving variable ``basis[row]`` takes over column ``col``.
    """
    pr = tableau[row]
    p = pr[col]
    s = 1 if p > 0 else -1
    if s < 0:
        tableau[row] = pr = [-v for v in pr]
        p = -p
    for i, other in enumerate(tableau):
        if i != row:
            f = other[col]
            tableau[i] = new = [(v * p - f * w) // d for v, w in zip(other, pr)]
            new[col] = -s * f
    f = red[col]
    red[:] = [(v * p - f * w) // d for v, w in zip(red, pr)]
    red[col] = -s * f
    pr[col] = s * d
    basis[row], nonbasic[col] = nonbasic[col], basis[row]
    return p


def _iterate(
    tableau: list[list[int]], red: list[int], basis: list[int], nonbasic: list[int], d: int
) -> tuple[str, int]:
    """Run simplex to optimality with Bland's rule; may report 'unbounded'."""
    while True:
        entering = [(var, k) for k, (var, r) in enumerate(zip(nonbasic, red)) if r < 0]
        if not entering:
            return "optimal", d
        col = min(entering)[1]
        row = br = None
        for i, tr in enumerate(tableau):
            if tr[col] > 0:
                # sign of ratio_i - ratio_row, both denominators positive
                cmp = -1 if row is None else tr[-1] * br[col] - br[-1] * tr[col]
                if cmp < 0 or (cmp == 0 and basis[i] < basis[row]):
                    row, br = i, tr
        if row is None:
            return "unbounded", d
        d = _pivot(tableau, red, basis, nonbasic, d, row, col)


def _tableau(
    A: Sequence[Sequence[int | Fraction]], b: Sequence[int | Fraction]
) -> tuple[list[list[int]], list[int], int]:
    """Phase-1 tableau [L_A s_i A_i | L s_i b_i], the row signs s_i and L / L_A.

    s_i = -1 where b_i < 0, so every right-hand side starts nonnegative and
    the artificials, one per row and numbered after the original columns,
    form a feasible basis.
    """
    LA = math.lcm(*(v.denominator for row in A for v in row))
    L = math.lcm(LA, *(v.denominator for v in b))
    sign = [-1 if v < 0 else 1 for v in b]
    tableau = [
        _scale(row, s * LA) + _scale([v], s * L) for row, v, s in zip(A, b, sign, strict=True)
    ]
    return tableau, sign, L // LA


def _reduced(
    cost: Sequence[int], tableau: list[list[int]], basis: list[int], nonbasic: list[int], d: int
) -> list[int]:
    """Reduced costs of the integer costs over denominator d, the objective's negative last."""
    red = [
        cost[var] * d - sum(cost[v] * tr[k] for v, tr in zip(basis, tableau))
        for k, var in enumerate(nonbasic)
    ]
    red.append(-sum(cost[v] * tr[-1] for v, tr in zip(basis, tableau)))
    return red


def _phase1(
    tableau: list[list[int]], basis: list[int], nonbasic: list[int], d: int, nreal: int, nvars: int
) -> tuple[list[int], int]:
    """Minimize the sum of the artificials, variables nreal .. nvars - 1, from a feasible basis."""
    red = _reduced([int(j >= nreal) for j in range(nvars)], tableau, basis, nonbasic, d)
    _, d = _iterate(tableau, red, basis, nonbasic, d)
    return red, d


def _farkas(
    red: list[int], nonbasic: list[int], d: int, sign: list[int], artificials: range
) -> LPSolution:
    """The infeasibility certificate read off phase 1's artificial reduced costs.

    A basic artificial's reduced cost is 0.
    """
    reduced = dict(zip(nonbasic, red))
    farkas = [
        s * (1 - Fraction(reduced.get(j, 0), d)) for s, j in zip(sign, artificials, strict=True)
    ]
    return LPSolution(status="infeasible", farkas=farkas)


def _drive_out(
    tableau: list[list[int]],
    red: list[int],
    basis: list[int],
    nonbasic: list[int],
    d: int,
    nreal: int,
) -> int:
    """Pivot each zero-level artificial out on the row's smallest nonzero real variable.

    A row with no such variable is redundant; its artificial stays basic at
    zero and :func:`_phase2` leaves the row out.
    """
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= nreal:
            tr = tableau[i]
            real = [(var, k) for k, var in enumerate(nonbasic) if var < nreal and tr[k]]
            if real:
                d = _pivot(tableau, red, basis, nonbasic, d, i, min(real)[1])
    return d


def _phase2(
    tableau: list[list[int]],
    basis: list[int],
    nonbasic: list[int],
    d: int,
    c: Sequence[int | Fraction],
    nreal: int,
    rhs_scale: int,
) -> LPSolution:
    """min c.x over the real variables, on a copy without the redundant rows.

    Artificial columns are dropped.  Real variables past len(c) cost
    nothing and are left out of x, which is read off over d * rhs_scale
    (see :func:`_tableau`).
    """
    if any(row[-1] for var, row in zip(basis, tableau) if var >= nreal):
        raise InvariantError("artificial variable left at a nonzero level")
    keep = [i for i, var in enumerate(basis) if var < nreal]
    cols = [k for k, var in enumerate(nonbasic) if var < nreal] + [len(nonbasic)]
    basis = [basis[i] for i in keep]
    nonbasic = [nonbasic[k] for k in cols[:-1]]
    tableau = [[tableau[i][k] for k in cols] for i in keep]
    ci = _scale(c, math.lcm(*(v.denominator for v in c))) + [0] * (nreal - len(c))
    red = _reduced(ci, tableau, basis, nonbasic, d)
    status, d = _iterate(tableau, red, basis, nonbasic, d)
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
) -> tuple[LPSolution, list[list[int]], list[int], list[int], int, list[int], int]:
    """:func:`solve_lp`'s result and the state it leaves for a continuation.

    That is the tableau, basis, nonbasic columns and denominator after
    phase 1 and the drive-out (phase 2 runs on a copy), the row signs and
    the right-hand side's extra scale L / L_A.
    """
    nv, m = len(c), len(A)
    tableau, sign, rhs_scale = _tableau(A, b)
    basis, nonbasic = list(range(nv, nv + m)), list(range(nv))
    red, d = _phase1(tableau, basis, nonbasic, 1, nv, nv + m)
    if red[-1] < 0:
        sol = _farkas(red, nonbasic, d, sign, range(nv, nv + m))
    else:
        d = _drive_out(tableau, red, basis, nonbasic, d, nv)
        sol = _phase2(tableau, basis, nonbasic, d, c, nv, rhs_scale)
    return sol, tableau, basis, nonbasic, d, sign, rhs_scale


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
    variable, free in sign as u - v, so row 0 no longer binds.  v's column
    is -u's: the negated column when u is nonbasic, -d e_r when u is basic
    in row r.  Phase 1 reruns on the other artificials (already at zero
    when A x = b is feasible), the zero-level ones are driven out, this
    time also on u or v, and phase 2 minimizes c.x.  When A[1:] x = b[1:]
    is infeasible, the Farkas vector is over rows 1 and up.
    """
    nv, m = len(c), len(A)
    feasibility, tableau, basis, nonbasic, d, sign, rhs_scale = _solve([0] * nv, A, b)
    basis = [var + (var > nv) for var in basis]
    nonbasic = [var + (var > nv) for var in nonbasic]
    if nv in basis:
        r = basis.index(nv)
        for i, row in enumerate(tableau):
            row.insert(-1, -d if i == r else 0)
    else:
        k = nonbasic.index(nv)
        for row in tableau:
            row.insert(-1, -row[k])
    nonbasic.append(nv + 1)
    red, d = _phase1(tableau, basis, nonbasic, d, nv + 2, nv + 1 + m)
    if red[-1] < 0:
        return feasibility, _farkas(red, nonbasic, d, sign[1:], range(nv + 2, nv + 1 + m))
    d = _drive_out(tableau, red, basis, nonbasic, d, nv + 2)
    return feasibility, _phase2(tableau, basis, nonbasic, d, c, nv + 2, rhs_scale)
