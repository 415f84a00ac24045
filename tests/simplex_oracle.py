"""Reference exact two-phase simplex over ``fractions.Fraction``.

This is the rational-tableau solver that ``qbounds.simplex`` replaced with
fraction-free integer pivoting, kept unchanged as the oracle that solver is
checked against: same Bland path, so the same status, x, objective and
Farkas vector on every LP.

Solves  min c.x  subject to  A x = b, x >= 0  entirely in
``fractions.Fraction`` arithmetic with Bland's anti-cycling rule.  When
the constraints are infeasible, a Farkas certificate y is returned with
y.A <= 0 componentwise and y.b > 0, proving infeasibility exactly.

Intended for the small, dense systems produced by the distribution
feasibility problems in this package (tens of rows); no sparsity or
revised-simplex machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from qbounds.errors import InvariantError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None


def _pivot(
    tableau: list[list[Fraction]], red: list[Fraction], basis: list[int], row: int, col: int
) -> None:
    pr = tableau[row]
    inv = _ONE / pr[col]
    tableau[row] = pr = [v * inv for v in pr]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [v - factor * p for v, p in zip(other, pr)]
    factor = red[col]
    if factor:
        red[:] = [v - factor * p for v, p in zip(red, pr)]
    basis[row] = col


def _iterate(
    tableau: list[list[Fraction]],
    red: list[Fraction],
    basis: list[int],
    ncols: int,
) -> str:
    """Run simplex to optimality with Bland's rule; may report 'unbounded'."""
    while True:
        col = next((j for j in range(ncols) if red[j] < 0), None)
        if col is None:
            return "optimal"
        row = None
        best: Fraction | None = None
        for i, tr in enumerate(tableau):
            if tr[col] > 0:
                ratio = tr[-1] / tr[col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row is None:
            return "unbounded"
        _pivot(tableau, red, basis, row, col)


def solve_lp(
    c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> LPSolution:
    m, nv = len(A), len(c)
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    sign = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            sign[i] = -1

    ncols = nv + m  # original variables then one artificial per row
    tableau = [
        rows[i] + [_ONE if j == i else _ZERO for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = list(range(nv, nv + m))

    # phase 1: min sum of artificials; reduced costs relative to that basis
    red = [
        (_ONE if j >= nv else _ZERO) - sum(tableau[i][j] for i in range(m))
        for j in range(ncols)
    ]
    red.append(-sum(rhs))
    _iterate(tableau, red, basis, ncols)
    if -red[-1] > 0:
        farkas = [sign[i] * (_ONE - red[nv + i]) for i in range(m)]
        return LPSolution(status="infeasible", farkas=farkas)

    # drive leftover zero-level artificials out of the basis
    for i in range(m - 1, -1, -1):
        if basis[i] >= nv:
            col = next((j for j in range(nv) if tableau[i][j] != 0), None)
            if col is None:
                del tableau[i], basis[i]  # redundant row
            else:
                _pivot(tableau, red, basis, i, col)

    # phase 2 on the original columns only
    cc = [Fraction(v) for v in c]
    red = [
        cc[j] - sum(cc[basis[i]] * tableau[i][j] for i in range(len(tableau)))
        for j in range(nv)
    ]
    red.append(-sum(cc[basis[i]] * tableau[i][-1] for i in range(len(tableau))))
    tableau = [row[:nv] + [row[-1]] for row in tableau]
    status = _iterate(tableau, red, basis, nv)
    if status == "unbounded":
        return LPSolution(status="unbounded")
    x = [_ZERO] * nv
    for i, var in enumerate(basis):
        if var >= nv:
            raise InvariantError("artificial variable survived phase 2")
        x[var] = tableau[i][-1]
    objective = sum((cv * xv for cv, xv in zip(cc, x)), _ZERO)
    return LPSolution(status="optimal", x=x, objective=objective)
