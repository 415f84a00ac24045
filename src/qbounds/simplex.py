"""Exact two-phase simplex by fraction-free integer pivoting.

Solves  min c.x  subject to  A x = b, x >= 0  exactly with Bland's rule.
When the constraints are infeasible, a Farkas certificate y is returned
with y.A <= 0 componentwise and y.b > 0, proving infeasibility exactly.
Entries of c, A and b are ``int`` or ``Fraction``: both carry
``numerator`` and ``denominator``, so integer rows are scaled into the
tableau as they are, with no conversion.

One private object, :class:`_Dictionary`, holds the solver's state and
steps: a pivot, a Bland's-rule run from integer costs, phase 1 and phase
2.  It is an integer dictionary over one denominator d > 0
(Edmonds-Bareiss, as in ``lrs``) with one row per basic variable, holding
its entries in the nonbasic columns and then its right-hand side, plus an
integer reduced-cost row R in the same layout.  ``basis[i]`` names row
i's variable and ``nonbasic[k]`` column k's; the unit columns of the basic
variables are never stored, so the tableau is nv + 1 wide, not nv + m + 1.
The rational tableau is T/d.  A pivot on (r, k) with p = T[r][k] and s its
sign sets each cell of another row, R's too, to
(T[i][j] |p| - T[i][k] s T[r][j]) / d, multiplies row r by s and sets d
to |p|.  The division is exact, as every entry is a minor of the scaled
input and d the basis determinant.  Column k then holds the leaving
variable: -s T[i][k] in row i != r, s d in row r and -s R[k] in R, which
is the Bareiss update of its unit column d e_r.
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
``solve_lp`` does, then continues from the phase-1 dictionary (phase 2
runs on a copy) to min c.x with row 0 dropped: row 0's artificial becomes
a free variable, and phase 1 on the other artificials starts at the vertex
just found.  On the enumerator LP (``bounds``), feasibility at K and max
sum B at the critical K, this removes the second phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError
from .exact import over_common_denominator


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None


@dataclass
class _Dictionary:
    """An integer simplex dictionary over denominator d (see the module docstring).

    ``sign[i]`` is the sign row i's equation was multiplied by; the
    artificials, one per entry of ``sign``, are the last variables.
    ``rhs_scale`` is L / L_A.
    """

    rows: list[list[int]]
    basis: list[int]
    nonbasic: list[int]
    sign: list[int]
    rhs_scale: int
    d: int
    red: list[int] = field(default_factory=list)

    @classmethod
    def phase1_start(
        cls, A: Sequence[Sequence[int | Fraction]], b: Sequence[int | Fraction], nv: int
    ) -> _Dictionary:
        """Rows [L_A s_i A_i | L s_i b_i] over nv real variables, the artificials basic.

        s_i = -1 where b_i < 0, so every right-hand side starts nonnegative.
        """
        sign = [-1 if v < 0 else 1 for v in b]
        entries, LA = over_common_denominator([v for row in A for v in row])
        # 1 / L_A makes L a multiple of L_A, and L scales it to L / L_A
        [rhs_scale, *rhs], _ = over_common_denominator([Fraction(1, LA), *b])
        rows = [
            [s * v for v in entries[i * nv:(i + 1) * nv]] + [abs(r)]
            for i, (_, s, r) in enumerate(zip(A, sign, rhs, strict=True))
        ]
        return cls(rows, list(range(nv, nv + len(rows))), list(range(nv)), sign, rhs_scale, d=1)

    @property
    def nreal(self) -> int:
        """The number of real variables, numbered before the artificials."""
        return len(self.basis) + len(self.nonbasic) - len(self.sign)

    def pivot(self, row: int, col: int) -> None:
        """Pivot on (row, col); the leaving variable ``basis[row]`` takes over column ``col``."""
        rows, d = self.rows, self.d
        pr = rows[row]
        p = pr[col]
        s = 1 if p > 0 else -1
        if s < 0:
            rows[row] = pr = [-v for v in pr]
            p = -p
        for i, other in enumerate(rows):
            if i != row:
                f = other[col]
                rows[i] = new = [(v * p - f * w) // d for v, w in zip(other, pr)]
                new[col] = -s * f
        f = self.red[col]
        self.red = red = [(v * p - f * w) // d for v, w in zip(self.red, pr)]
        red[col] = -s * f
        pr[col] = s * d
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]
        self.d = p

    def run(self, cost: Sequence[int]) -> str:
        """Minimize the variables' integer costs by Bland's rule; 'optimal' or 'unbounded'.

        ``red`` starts as their reduced costs over d, the objective's negative last.
        """
        rows, basis, nonbasic, d = self.rows, self.basis, self.nonbasic, self.d
        self.red = [
            cost[var] * d - sum(cost[v] * tr[k] for v, tr in zip(basis, rows))
            for k, var in enumerate(nonbasic)
        ]
        self.red.append(-sum(cost[v] * tr[-1] for v, tr in zip(basis, rows)))
        while True:
            entering = [(var, k) for k, (var, r) in enumerate(zip(nonbasic, self.red)) if r < 0]
            if not entering:
                return "optimal"
            col = min(entering)[1]
            row = br = None
            for i, tr in enumerate(rows):
                if tr[col] > 0:
                    # sign of ratio_i - ratio_row, both denominators positive
                    cmp = -1 if row is None else tr[-1] * br[col] - br[-1] * tr[col]
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[row]):
                        row, br = i, tr
            if row is None:
                return "unbounded"
            self.pivot(row, col)

    def phase1(self) -> LPSolution | None:
        """Minimize the sum of the artificials; 'infeasible' when it stays positive.

        The Farkas vector is read off the artificials' reduced costs, 0 for
        a basic one.  Otherwise each zero-level artificial is pivoted out on
        its row's smallest nonzero real variable and None is returned.  A
        row with no such variable is redundant; its artificial stays basic
        at zero and :meth:`phase2` leaves the row out.
        """
        nreal = self.nreal
        artificials = range(nreal, nreal + len(self.sign))
        self.run([int(j >= nreal) for j in range(artificials.stop)])
        if self.red[-1] < 0:
            reduced = dict(zip(self.nonbasic, self.red))
            farkas = [
                s * (1 - Fraction(reduced.get(j, 0), self.d))
                for s, j in zip(self.sign, artificials, strict=True)
            ]
            return LPSolution(status="infeasible", farkas=farkas)
        for i in range(len(self.rows) - 1, -1, -1):
            if self.basis[i] >= nreal:
                tr = self.rows[i]
                real = [(var, k) for k, var in enumerate(self.nonbasic) if var < nreal and tr[k]]
                if real:
                    self.pivot(i, min(real)[1])
        return None

    def phase2(self, c: Sequence[int | Fraction]) -> LPSolution:
        """min c.x over the real variables, on a copy without the redundant rows.

        Artificial columns are dropped.  Real variables past len(c) cost
        nothing and are left out of x, which is read off over d L / L_A.
        """
        nreal = self.nreal
        if any(tr[-1] for var, tr in zip(self.basis, self.rows) if var >= nreal):
            raise InvariantError("artificial variable left at a nonzero level")
        keep = [i for i, var in enumerate(self.basis) if var < nreal]
        cols = [k for k, var in enumerate(self.nonbasic) if var < nreal] + [len(self.nonbasic)]
        real = _Dictionary(
            rows=[[self.rows[i][k] for k in cols] for i in keep],
            basis=[self.basis[i] for i in keep],
            nonbasic=[self.nonbasic[k] for k in cols[:-1]],
            sign=[],
            rhs_scale=self.rhs_scale,
            d=self.d,
        )
        cost, _ = over_common_denominator(c)
        if real.run(cost + [0] * (nreal - len(c))) == "unbounded":
            return LPSolution(status="unbounded")
        x = [Fraction(0)] * len(c)
        for var, tr in zip(real.basis, real.rows):
            if var < len(c):
                x[var] = Fraction(tr[-1], real.d * real.rhs_scale)
        objective = sum((cv * xv for cv, xv in zip(c, x)), Fraction(0))
        return LPSolution(status="optimal", x=x, objective=objective)

    def solve(self, c: Sequence[int | Fraction]) -> LPSolution:
        """Phase 1, then phase 2 to min c.x when A x = b is feasible."""
        return self.phase1() or self.phase2(c)


def solve_lp(
    c: Sequence[int | Fraction],
    A: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> LPSolution:
    return _Dictionary.phase1_start(A, b, len(c)).solve(c)


def solve_lp_then_free_row0(
    c: Sequence[int | Fraction],
    A: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
) -> tuple[LPSolution, LPSolution]:
    """Feasibility of A x = b, then min c.x subject to A[1:] x = b[1:], x >= 0.

    The first result is ``solve_lp([0] * len(c), A, b)``.  The second
    continues from its dictionary: row 0's artificial u becomes a real
    variable, free in sign as u - v, so row 0 no longer binds.  v's column
    is -u's: the negated column when u is nonbasic, -d e_r when u is basic
    in row r.  Phase 1 reruns on the other artificials (already at zero
    when A x = b is feasible), the zero-level ones are driven out, this
    time also on u or v, and phase 2 minimizes c.x.  When A[1:] x = b[1:]
    is infeasible, the Farkas vector is over rows 1 and up.
    """
    u = len(c)
    dictionary = _Dictionary.phase1_start(A, b, u)
    feasibility = dictionary.solve([0] * u)
    basis = dictionary.basis = [var + (var > u) for var in dictionary.basis]
    nonbasic = dictionary.nonbasic = [var + (var > u) for var in dictionary.nonbasic]
    if u in basis:
        r = basis.index(u)
        for i, row in enumerate(dictionary.rows):
            row.insert(-1, -dictionary.d if i == r else 0)
    else:
        k = nonbasic.index(u)
        for row in dictionary.rows:
            row.insert(-1, -row[k])
    nonbasic.append(u + 1)
    dictionary.sign = dictionary.sign[1:]
    return feasibility, dictionary.solve(c)
