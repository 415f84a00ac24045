"""Finite-length upper bounds on ((n, K, d)) code parameters.

The workhorse is the polynomial method: any f with a nonnegative
Krawtchouk expansion (f_0 > 0, f_i >= 0) that is positive at 0 and
nonpositive on the integers [d, n] forces 2^n K <= f(0) / f_0 for every
nondegenerate ((n, K, d)) code.  This module builds the classical
instantiations (Singleton-type product polynomial, Hamming-type squared
kernel, the piecewise Levenshtein-type evaluation), decides exact LP
feasibility of weight distributions with an exact simplex, and checks the
sphere-packing inequality for mixed additive codes together with its
(k0, k1)-parameterized version for degenerate stabilizer codes.

Every comparison, pivot and certificate in this module is exact; nothing
is rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import CapacityError, InvariantError, ParameterError
from .exact import (
    KrawtchoukExpansion,
    binomial,
    krawtchouk_eval,
    krawtchouk_table,
    krawtchouk_values,
    macwilliams_transform,
    over_common_denominator,
    smallest_root_index,
)

if TYPE_CHECKING:
    from .simplex import LPSolution

LP_SIZE_CAP = 24  # worst-d `lp --n 24 --K 1` (d = 4) about 0.2 s on a 2-vCPU host

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_d(n: int, d: int) -> None:
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")


def floor_log2(x: Fraction) -> int:
    """Largest integer m with 2**m <= x, for rational x > 0."""
    if x <= 0:
        raise ParameterError(f"floor_log2 needs a positive value, got {x}")
    p, q = x.numerator, x.denominator
    # 2^(m-1) < p/q < 2^(m+1), so the floor is m or m - 1
    m = p.bit_length() - q.bit_length()
    at_least = (q << m) <= p if m >= 0 else q <= (p << -m)
    return m if at_least else m - 1


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


class BoundVerdict:
    """Outcome of one bound: exact value on 2^n K and derived k ceiling.

    ``value_on_2nK`` is None when the bound is inapplicable.  ``passed``
    is filled only when the verdict was evaluated against a queried code.
    """

    def __init__(
        self,
        bound_name: str,
        applicable: bool,
        value_on_2nK: Fraction | None = None,
        k_max: int | None = None,
        passed: bool | None = None,
        reason: str = "",
        notes: tuple[str, ...] = (),
        details: dict | None = None,
    ) -> None:
        self.bound_name, self.applicable = bound_name, applicable
        self.value_on_2nK, self.k_max, self.passed = value_on_2nK, k_max, passed
        self.reason, self.notes = reason, notes
        self.details = {} if details is None else details

    def allows_K(self, n: int, K: Fraction) -> bool | None:
        if not self.applicable or self.value_on_2nK is None:
            return None
        return (Fraction(2) ** n) * K <= self.value_on_2nK

    def judged_against(self, n: int, K: Fraction) -> "BoundVerdict":
        self.passed = self.allows_K(n, K)
        return self


# ---------------------------------------------------------------------------
# the polynomial method
# ---------------------------------------------------------------------------


class FeasiblePolynomial(NamedTuple):
    """A polynomial checked against the sign conditions of the method.

    ``accepted`` is False when any condition fails; every violated index is
    listed in ``violations``.  ``values`` records f(i) for i = 0 .. n.
    """

    expansion: KrawtchoukExpansion
    n: int
    d: int
    accepted: bool
    violations: tuple[str, ...]
    values: tuple[Fraction, ...]


def check_conditions(values: Sequence[Fraction | int], d: int) -> FeasiblePolynomial:
    """Exact sign certificate: f_0 > 0, f_i >= 0, f(0) > 0, f(i) <= 0 on [d, n].

    f is the polynomial of degree <= n taking ``values`` at 0 .. n, so n is
    ``len(values) - 1``; f_0 .. f_n are its Krawtchouk coefficients for q = 4.
    """
    n = len(values) - 1
    _require_d(n, d)
    values = [Fraction(v) for v in values]
    return _sign_certificate(values, KrawtchoukExpansion.from_values(values, n), d)


def _sign_certificate(
    values: Sequence[Fraction], expansion: KrawtchoukExpansion, d: int
) -> FeasiblePolynomial:
    """The conditions of :func:`check_conditions` on the values and coefficients of f."""
    n = expansion.n
    violations: list[str] = []
    if expansion.coeffs[0] <= 0:
        violations.append(f"f_0 = {expansion.coeffs[0]} is not positive")
    for i in range(1, n + 1):
        if expansion.coeffs[i] < 0:
            violations.append(f"f_{i} = {expansion.coeffs[i]} is negative")
    if values[0] <= 0:
        violations.append(f"f(0) = {values[0]} is not positive")
    for i in range(d, n + 1):
        if values[i] > 0:
            violations.append(f"f({i}) = {values[i]} is positive")
    return FeasiblePolynomial(
        expansion=expansion,
        n=n,
        d=d,
        accepted=not violations,
        violations=tuple(violations),
        values=tuple(values),
    )


def polynomial_bound(fp: FeasiblePolynomial, bound_name: str = "custom_poly") -> BoundVerdict:
    """2^n K <= f(0) / f_0 for an accepted polynomial."""
    if not fp.accepted:
        raise ParameterError(
            "polynomial rejected by the sign conditions: " + "; ".join(fp.violations)
        )
    value = fp.values[0] / fp.expansion.coeffs[0]
    return BoundVerdict(
        bound_name=bound_name,
        applicable=True,
        value_on_2nK=value,
        k_max=floor_log2(value) - fp.n,
    )


# ---------------------------------------------------------------------------
# named polynomials
# ---------------------------------------------------------------------------


def singleton_bound(n: int, d: int) -> BoundVerdict:
    """K <= 2^{n-2d+2} via the product polynomial; closed form asserted."""
    _require_d(n, d)
    # the product at the integers 0 .. n; it vanishes from d on
    top, den = Fraction(4) ** (n - d + 1), math.prod(range(d, n + 1))
    values = [top * math.prod(j - i for j in range(d, n + 1)) / den for i in range(n + 1)]
    fp = check_conditions(values, d)
    if not fp.accepted:
        raise InvariantError(
            "Singleton polynomial rejected: " + "; ".join(fp.violations)
        )
    verdict = polynomial_bound(fp, "singleton")
    if verdict.value_on_2nK != Fraction(4) ** (n - d + 1):
        raise InvariantError(
            f"Singleton pipeline value {verdict.value_on_2nK} != 4^{n - d + 1}"
        )
    return verdict


def hamming_expansion(n: int, d: int) -> KrawtchoukExpansion:
    """Krawtchouk coefficients f_i = (P_e(i-1, n-1) / V)^2, V the ball size."""
    e = (d - 1) // 2
    ball = mixed_hamming_ball(0, n, e)
    coeffs = tuple(
        (krawtchouk_eval(e, i - 1, n - 1) / ball) ** 2 for i in range(n + 1)
    )
    return KrawtchoukExpansion(coeffs, n)


def hamming_bound(n: int, d: int) -> BoundVerdict:
    """K <= 2^n / sum_{s<=e} 3^s C(n, s), with e = floor((d-1)/2)."""
    _require_d(n, d)
    e = (d - 1) // 2
    ball = mixed_hamming_ball(0, n, e)
    expansion = hamming_expansion(n, d)
    fp = _sign_certificate(krawtchouk_values(expansion.coeffs, n), expansion, d)
    if not fp.accepted:
        raise InvariantError("Hamming polynomial rejected: " + "; ".join(fp.violations))
    if d == 2 * e + 1 and any(fp.values[i] != 0 for i in range(d, n + 1)):
        raise InvariantError("Hamming polynomial must vanish on [d, n] for odd d")
    if fp.expansion.coeffs[0] != 1 or fp.values[0] != Fraction(4**n, ball):
        raise InvariantError("Hamming polynomial normalization failed")
    verdict = polynomial_bound(fp, "hamming")
    verdict.details["ball"] = ball
    verdict.details["radius"] = e
    if d != 2 * e + 1:
        verdict.notes = (
            f"even d={d} uses packing radius e=floor((d-1)/2)={e}; "
            f"the bound equals the one for d={d - 1}",
        )
    return verdict


# ---------------------------------------------------------------------------
# Levenshtein-type piecewise bound
# ---------------------------------------------------------------------------


def _lev_value(k: int, n: int, x: int) -> Fraction | None:
    """Branch value sum_{i=0}^{k-1} C(n,i) 3^i - C(n,k) 3^k P_{k-1}(x-1,n-1)/P_k(x,n).

    The partial ball starts at i = 0: that normalization is the one whose
    k = 1 branch reproduces the Plotkin-type value 4d/(4d - 3n) and that
    never undercuts the exact LP optimum (see the dominance tests).
    Returns None when the Krawtchouk denominator vanishes.
    """
    denom = krawtchouk_eval(k, x, n)
    if denom == 0:
        return None
    head = mixed_hamming_ball(0, n, k - 1)
    tail = (
        Fraction(binomial(n, k) * 3**k)
        * krawtchouk_eval(k - 1, x - 1, n - 1)
        / denom
    )
    return head - tail


def levenshtein_bound(n: int, d: int) -> BoundVerdict:
    """K <= L^n(d) / 2^n on the piecewise branch containing x = d.

    Write y = d - 1, and d_k(m) for the smallest root of P_k(x, m).  The
    branches tile the line as d_k(n-2) < d_k(n-1) < d_{k-1}(n-2): x lies in
    the odd-type branch k when d_k(n-1) <= y < d_{k-1}(n-2), and in the
    even-type branch k when d_k(n-2) <= y < d_k(n-1).  The smallest-root
    indices (k, on_k) of y at length n-1 and (j, on_j) at length n-2 decide
    it exactly: k == j is the odd-type branch k, and k == j + 1 the
    even-type branch j; any other pair means the roots failed to interlace.
    When y is that branch's lower root (on_k, resp. on_j), x = d falls
    exactly on a branch boundary: both neighboring branch values are
    reported and the weaker (larger) one is used, since validity of the
    sharper branch is ambiguous there.
    """
    if d < 2 or d > n:
        return BoundVerdict(
            bound_name="levenshtein",
            applicable=False,
            reason=f"needs 2 <= d <= n, got d={d}",
        )
    k, on_k = smallest_root_index(n - 1, 4, d - 1)
    j, on_j = smallest_root_index(n - 2, 4, d - 1)
    odd = _lev_value(k, n, d)
    even = _lev_value(j, n - 1, d)
    even = None if even is None else 4 * even
    if k == j:
        inner, outer, on_boundary = odd, even, on_k
    elif k == j + 1:
        inner, outer, on_boundary = even, odd, on_j
    else:
        raise InvariantError(
            f"smallest Krawtchouk roots fail to interlace at n={n}, d={d}: "
            f"index {k} at length {n - 1}, {j} at length {n - 2}"
        )
    value, notes = inner, ()
    if on_boundary:
        value = max((v for v in (inner, outer) if v is not None), default=None)
        if value is not None:
            notes = (
                f"x=d lies exactly on a branch boundary; adjacent branch "
                f"values {inner} and {outer}, the weaker one used",
            )
    if value is None or value <= 0:
        return BoundVerdict(
            bound_name="levenshtein",
            applicable=False,
            reason="branch evaluation degenerate at this point",
            notes=notes,
        )
    return BoundVerdict(
        bound_name="levenshtein",
        applicable=True,
        value_on_2nK=value,
        k_max=floor_log2(value) - n,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# exact LP feasibility of enumerator pairs
# ---------------------------------------------------------------------------


class LPVerdict(NamedTuple):
    """Feasibility of a nondegenerate enumerator pair at (n, K, d).

    Feasible: ``witness_B`` is a distribution satisfying every constraint
    (verified exactly before return).  Infeasible: ``certificate`` holds
    Krawtchouk coefficients y_0 .. y_n of an excluding polynomial with
    y_t >= 0 for t >= d, f(i) <= 0 on [d, n] and f(0) < y_0 2^n K, which
    contradicts the transform identity for any valid code (verified
    exactly before return).
    """

    n: int
    K: Fraction
    d: int
    feasible: bool
    witness_B: tuple[Fraction, ...] | None = None
    witness_A: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


class _EnumeratorLP:
    """The enumerator LP of nondegenerate ((n, K, d)) codes and its exact checks.

    Inputs are checked once: K, then d, then the size cap (``capped``, for
    a solve), before any Krawtchouk table is built.  The variables are
    B_d .. B_n, then a surplus per row t >= d.  Row t is the transform
    identity with B_0 = 1 and B_1 .. B_{d-1} = 0,
    sum_{i >= d} B_i P_t(i) = 2^n K A_t - P_t(0): A_t = 0 for 0 < t < d,
    and for t >= d the surplus stands for 2^n K A_t >= 0.  The rows are
    integers; K enters only row 0's right-hand side (A_0 = 1), which reads
    sum_{i >= d} B_i = 2^n K - 1, so below K = 2^-n row 0 alone excludes
    K.  Without K it is -1: the critical-K LP drops row 0.
    """

    def __init__(self, n: int, d: int, K: Fraction | int | None = None, capped: bool = True):
        if K is not None:
            try:
                K = Fraction(K)
            except (OverflowError, ValueError) as exc:  # an infinity or NaN
                raise ParameterError(f"K must be a finite number, got {K}") from exc
            if K <= 0:
                raise ParameterError(f"K must be positive, got {K}")
        _require_d(n, d)
        if capped and n > LP_SIZE_CAP:
            raise CapacityError(f"n={n} exceeds the exact-LP cap {LP_SIZE_CAP}")
        self.n, self.d, self.K, self.nb = n, d, K, n - d + 1
        table = krawtchouk_table(n)
        self.rows = [[*row[d:], *[0] * self.nb] for row in table]
        for t in range(d, n + 1):
            self.rows[t][self.nb + t - d] = -1
        self.rhs: list[int | Fraction] = [-row[0] for row in table]
        if K is not None:
            self.rhs[0] += (Fraction(2) ** n) * K
        self.max_sum_B = [-1] * self.nb + [0] * self.nb  # the critical-K LP's cost

    def witness_A(self, K: Fraction, B: Sequence[Fraction]) -> list[Fraction] | None:
        """A = T(B), T the transform at scale 2^n K, if B is valid at K; else None."""
        n, d = self.n, self.d
        if len(B) != n + 1 or B[0] != 1 or any(v < 0 for v in B) or any(B[1:d]):
            return None
        A = macwilliams_transform(B, n, 4, (Fraction(2) ** n) * K)
        if A[0] != 1 or any(A[1:d]) or any(v < 0 for v in A[d:]):
            return None
        return A

    def excludes(self, y: Sequence[Fraction]) -> bool:
        """Farkas: y.M <= 0 and y.b > 0, read off integers over y's and b's denominators."""
        if len(y) != len(self.rows):
            return False
        m, _ = over_common_denominator(y)
        b, _ = over_common_denominator(self.rhs)
        return (
            all(sum(map(mul, column, m)) <= 0 for column in zip(*self.rows))
            and sum(map(mul, m, b)) > 0
        )

    def _B(self, sol: LPSolution) -> list[Fraction]:
        assert sol.x is not None
        return [_ONE] + [_ZERO] * (self.d - 1) + list(sol.x[: self.nb])

    def verdict(self, sol: LPSolution | None) -> LPVerdict:
        """The verdict from the feasibility LP's solution, checked before it is returned.

        ``sol`` is None below K = 2^-n, where the normalization row alone
        excludes K (B_0 = 1 and B_i >= 0 give 2^n K = sum B_i >= 1) with the
        certificate y = (-1, 0, ..., 0).
        """
        n, K, d = self.n, self.K, self.d
        if sol is not None and sol.status == "optimal":
            B = self._B(sol)
            A = self.witness_A(K, B)
            if A is None:
                raise InvariantError("simplex produced an invalid feasibility witness")
            return LPVerdict(n, K, d, True, witness_B=tuple(B), witness_A=tuple(A))
        if sol is not None and sol.status != "infeasible":
            raise InvariantError(f"feasibility LP reported {sol.status}")
        cert = (-_ONE,) + (_ZERO,) * n if sol is None else tuple(sol.farkas or ())
        if not self.excludes(cert):
            raise InvariantError("invalid dual certificate")
        return LPVerdict(n, K, d, False, certificate=cert)

    def critical_K(self, sol: LPSolution) -> Fraction | None:
        """The critical K from the max-sum-B solution; its optimal B is checked as a witness."""
        if sol.status == "infeasible":
            return None
        if sol.status == "unbounded":
            raise InvariantError("distribution polytope is provably bounded")
        assert sol.objective is not None
        critical = (1 - sol.objective) / (Fraction(2) ** self.n)
        if critical <= 0 or self.witness_A(critical, self._B(sol)) is None:
            raise InvariantError("simplex produced an invalid critical-K witness")
        return critical


def verify_lp_witness(n: int, K: Fraction, d: int, B: Sequence[Fraction]) -> bool:
    """Exact check that B is a valid nondegenerate distribution at (n, K, d)."""
    lp = _EnumeratorLP(n, d, K, capped=False)
    return lp.witness_A(lp.K, B) is not None


def verify_lp_certificate(n: int, K: Fraction, d: int, y: Sequence[Fraction]) -> bool:
    """Exact check of an excluding dual vector.

    This is the Farkas check y.M <= 0, y.b > 0 on the LP's rows.  Read as
    a polynomial f(i) = sum_t y_t P_t(i): the columns of B_i give
    f(i) <= 0 on [d, n], the surplus columns give y_t >= 0 for t >= d, and
    y.b > 0 is f(0) < y_0 2^n K.
    """
    return _EnumeratorLP(n, d, K, capped=False).excludes(y)


def lp_feasible(n: int, K: Fraction | int, d: int) -> LPVerdict:
    """Decide the enumerator LP exactly; witness or dual certificate attached.

    Below K = 2^-n no simplex runs (see :meth:`_EnumeratorLP.verdict`).
    """
    from .simplex import solve_lp

    lp = _EnumeratorLP(n, d, K)
    sol = solve_lp([0] * len(lp.rows[0]), lp.rows, lp.rhs) if lp.rhs[0] >= 0 else None
    return lp.verdict(sol)


def lp_critical_K(n: int, d: int) -> Fraction | None:
    """Largest K for which the enumerator LP is feasible; None when no K is.

    The zero-forcing and nonnegativity constraints do not involve K, so the
    feasible K form an interval whose top is (1 + max sum B_i) / 2^n.  The
    optimal B is verified as a witness at that K before it is returned.
    """
    from .simplex import solve_lp

    lp = _EnumeratorLP(n, d)
    # without the K-dependent normalization row
    return lp.critical_K(solve_lp(lp.max_sum_B, lp.rows[1:], lp.rhs[1:]))


def lp_feasible_and_critical_K(
    n: int, K: Fraction | int, d: int
) -> tuple[LPVerdict, Fraction | None]:
    """``(lp_feasible(n, K, d), lp_critical_K(n, d))`` from one simplex tableau.

    The feasibility solve is :func:`lp_feasible`'s, pivot for pivot.  The
    critical-K LP, max sum B without the normalization row, continues from
    its final tableau (:func:`simplex.solve_lp_then_free_row0`), so its
    phase 1 starts at the vertex the feasibility solve found.  Both results
    pass the same checks as from the two functions.  Below K = 2^-n no
    feasibility simplex runs, and the critical K comes from
    :func:`lp_critical_K`'s own solve.
    """
    from .simplex import solve_lp_then_free_row0

    lp = _EnumeratorLP(n, d, K)
    if lp.rhs[0] < 0:
        return lp.verdict(None), lp_critical_K(n, d)
    feasibility, freed = solve_lp_then_free_row0(lp.max_sum_B, lp.rows, lp.rhs)
    return lp.verdict(feasibility), lp.critical_K(freed)


# ---------------------------------------------------------------------------
# sphere packing for mixed additive codes
# ---------------------------------------------------------------------------


def mixed_hamming_ball(l: int, n_total: int, e: int) -> int:
    """Words of symplectic weight <= e when l coordinates allow one symbol.

    A weight-i word hitting j restricted coordinates has one symbol choice
    there and three per unrestricted coordinate: C(l, j) 3^{i-j} C(n-l, i-j).
    """
    total = 0
    for i in range(e + 1):
        for j in range(min(i, l) + 1):
            total += binomial(l, j) * 3 ** (i - j) * binomial(n_total - l, i - j)
    return total


def mixed_hamming_check(l: int, n_total: int, dim: int, d: int) -> BoundVerdict:
    """ball(e) <= 2^{2 n - l - dim} for a mixed code of dimension dim."""
    if not 0 <= l <= n_total:
        raise ParameterError(f"need 0 <= l <= n_total, got l={l}, n_total={n_total}")
    if dim < 0 or dim > 2 * n_total - l:
        raise ParameterError(
            f"dimension {dim} outside [0, {2 * n_total - l}] for these lengths"
        )
    if d < 1:
        raise ParameterError(f"distance must be >= 1, got {d}")
    e = (d - 1) // 2
    ball = mixed_hamming_ball(l, n_total, e)
    rhs = 1 << (2 * n_total - l - dim)
    verdict = BoundVerdict(
        bound_name="mixed_hamming",
        applicable=True,
        passed=ball <= rhs,
        details={
            "ball": ball,
            "rhs": rhs,
            "radius": e,
            "dim_max": 2 * n_total - l - (ball - 1).bit_length(),  # ceil(log2 ball)
        },
    )
    if d % 2 == 0:
        verdict.notes = (
            f"even d={d} uses packing radius e=floor((d-1)/2)={e}",
        )
    return verdict


def degenerate_hamming_check(
    n: int, k: int, k0: int, k1: int, d: int
) -> BoundVerdict:
    """Sphere packing for a stabilizer code of type (k0, k1).

    Delegates to the mixed-code ball with l = k1 over n - k0 coordinates and
    dimension 2k.  Two right-hand sides are reported: the tight one,
    2^{2(n-k0) - k1 - 2k} = 4^{(n-k)/2} 2^{-k1}, which governs the verdict,
    and the looser 2^{2 k0 + 3 k1} = 4^{(n-k)/2 + k1}; they differ by
    4^{k1} and the divergence is flagged whenever k1 > 0.
    """
    if min(n, k, k0, k1) < 0 or k != n - 2 * k0 - k1:
        raise ParameterError(
            f"inconsistent parameters: expect k = n - 2 k0 - k1, got "
            f"n={n}, k={k}, k0={k0}, k1={k1}"
        )
    verdict = mixed_hamming_check(l=k1, n_total=n - k0, dim=2 * k, d=d)
    verdict.bound_name = "degenerate_hamming"
    tight_rhs = verdict.details["rhs"]
    loose_rhs = 1 << (2 * k0 + 3 * k1)
    verdict.details["rhs_tight"] = tight_rhs
    verdict.details["rhs_loose"] = loose_rhs
    if k1 > 0:
        verdict.notes = verdict.notes + (
            f"tight right-hand side {tight_rhs} differs from the loose "
            f"{loose_rhs} by 4^k1; the tight one governs",
        )
    return verdict


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def strongest(verdicts: Sequence[BoundVerdict]) -> BoundVerdict | None:
    """The applicable verdict with the smallest exact value on 2^n K."""
    best = None
    for v in verdicts:
        if v.applicable and v.value_on_2nK is not None:
            if best is None or v.value_on_2nK < best.value_on_2nK:
                best = v
    return best
