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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import CapacityError, InvariantError, ParameterError
from .exact import (
    ExactPolynomial,
    KrawtchoukExpansion,
    binomial,
    compare_smallest_root,
    krawtchouk_eval,
    krawtchouk_table,
    krawtchouk_values,
    macwilliams_transform,
)

LP_SIZE_CAP = 24  # worst-d `lp` command about 0.3 s on a 2-vCPU host

_ZERO = Fraction(0)
_ONE = Fraction(1)


def floor_log2(x: Fraction) -> int:
    """Largest integer m with 2**m <= x, for rational x > 0."""
    if x <= 0:
        raise ParameterError(f"floor_log2 needs a positive value, got {x}")
    p, q = x.numerator, x.denominator
    m = p.bit_length() - q.bit_length()
    while not _le_pow2(m, p, q):
        m -= 1
    while _le_pow2(m + 1, p, q):
        m += 1
    return m


def _le_pow2(m: int, p: int, q: int) -> bool:
    # 2^m <= p/q
    return (q << m) <= p if m >= 0 else q <= (p << -m)


def ceil_log2(x: Fraction) -> int:
    m = floor_log2(x)
    p, q = x.numerator, x.denominator
    exact = (q << m) == p if m >= 0 else q == (p << -m)
    return m if exact else m + 1


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class BoundVerdict:
    """Outcome of one bound: exact value on 2^n K and derived k ceiling.

    ``value_on_2nK`` is None when the bound is inapplicable.  ``passed``
    is filled only when the verdict was evaluated against a queried code.
    """

    bound_name: str
    applicable: bool
    value_on_2nK: Fraction | None = None
    k_max: int | None = None
    passed: bool | None = None
    reason: str = ""
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

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


@dataclass(frozen=True)
class FeasiblePolynomial:
    """A polynomial checked against the sign conditions of the method.

    ``accepted`` is False when any condition fails; every violated index is
    listed in ``violations``.  ``values`` records f(i) for i = 0 .. n.
    ``f`` is None for the named bounds, which build ``values`` and
    ``expansion`` directly and never form the power basis.
    """

    f: ExactPolynomial | None
    expansion: KrawtchoukExpansion
    n: int
    d: int
    accepted: bool
    violations: tuple[str, ...]
    values: tuple[Fraction, ...]


def check_conditions(f: ExactPolynomial, n: int, d: int) -> FeasiblePolynomial:
    """Exact sign certificate: f_0 > 0, f_i >= 0, f(0) > 0, f(i) <= 0 on [d, n]."""
    if f.n != n:
        raise ParameterError(f"polynomial ambient length {f.n} does not match n={n}")
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    values = [f(i) for i in range(n + 1)]
    return _sign_certificate(values, KrawtchoukExpansion.from_values(values, n, f.q), d, f)


def _sign_certificate(
    values: Sequence[Fraction],
    expansion: KrawtchoukExpansion,
    d: int,
    f: ExactPolynomial | None = None,
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
        f=f,
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
        inputs={"n": fp.n, "d": fp.d},
    )


# ---------------------------------------------------------------------------
# named polynomials
# ---------------------------------------------------------------------------


def singleton_bound(n: int, d: int) -> BoundVerdict:
    """K <= 2^{n-2d+2} via the product polynomial; closed form asserted."""
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    # the product at the integers 0 .. n; it vanishes from d on
    top, den = Fraction(4) ** (n - d + 1), math.prod(range(d, n + 1))
    values = [top * math.prod(j - i for j in range(d, n + 1)) / den for i in range(n + 1)]
    fp = _sign_certificate(values, KrawtchoukExpansion.from_values(values, n), d)
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
    ball = sum(3**s * binomial(n, s) for s in range(e + 1))
    coeffs = tuple(
        (krawtchouk_eval(e, i - 1, n - 1) / ball) ** 2 for i in range(n + 1)
    )
    return KrawtchoukExpansion(coeffs, n)


def hamming_bound(n: int, d: int) -> BoundVerdict:
    """K <= 2^n / sum_{s<=e} 3^s C(n, s), with e = floor((d-1)/2)."""
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    e = (d - 1) // 2
    ball = sum(3**s * binomial(n, s) for s in range(e + 1))
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
    head = sum(Fraction(binomial(n, i) * 3**i) for i in range(k))
    tail = (
        Fraction(binomial(n, k) * 3**k)
        * krawtchouk_eval(k - 1, x - 1, n - 1)
        / denom
    )
    return head - tail


def levenshtein_bound(n: int, d: int) -> BoundVerdict:
    """K <= L^n(d) / 2^n on the piecewise branch containing x = d.

    Branch membership is decided exactly against the smallest Krawtchouk
    roots.  When d falls exactly on a branch boundary both neighboring
    branch values are reported and the weaker (larger) one is used, since
    validity of the sharper branch is ambiguous there.
    """
    inputs = {"n": n, "d": d}
    if d < 2 or d > n:
        return BoundVerdict(
            bound_name="levenshtein",
            applicable=False,
            reason=f"needs 2 <= d <= n, got d={d}",
            inputs=inputs,
        )

    def finish(value: Fraction | None, notes: tuple[str, ...] = ()) -> BoundVerdict:
        if value is None or value <= 0:
            return BoundVerdict(
                bound_name="levenshtein",
                applicable=False,
                reason="branch evaluation degenerate at this point",
                notes=notes,
                inputs=inputs,
            )
        return BoundVerdict(
            bound_name="levenshtein",
            applicable=True,
            value_on_2nK=value,
            k_max=floor_log2(value) - n,
            notes=notes,
            inputs=inputs,
        )

    def scaled(value: Fraction | None) -> Fraction | None:
        return None if value is None else 4 * value

    def boundary(inner: Fraction | None, outer: Fraction | None) -> BoundVerdict:
        candidates = [v for v in (inner, outer) if v is not None]
        if not candidates:
            return finish(None)
        return finish(
            max(candidates),
            notes=(
                f"x=d lies exactly on a branch boundary; adjacent branch "
                f"values {inner} and {outer}, the weaker one used",
            ),
        )

    for k in range(1, n):
        # odd-type branch: d_k(n-1) + 1 < x < d_{k-1}(n-2) + 1
        if k <= n - 1:
            lower = compare_smallest_root(k, n - 1, 4, d - 1)
            upper = -1 if k == 1 else compare_smallest_root(k - 1, n - 2, 4, d - 1)
            if lower > 0 and upper < 0:
                return finish(_lev_value(k, n, d))
            if lower == 0:
                # boundary shared with the even-type branch of the same k
                return boundary(_lev_value(k, n, d), scaled(_lev_value(k, n - 1, d)))
            if upper == 0:
                return boundary(_lev_value(k, n, d), scaled(_lev_value(k - 1, n - 1, d)))
        # even-type branch: d_k(n-2) + 1 < x < d_k(n-1) + 1
        if k <= n - 2:
            lower = compare_smallest_root(k, n - 2, 4, d - 1)
            upper = compare_smallest_root(k, n - 1, 4, d - 1)
            if lower > 0 and upper < 0:
                return finish(scaled(_lev_value(k, n - 1, d)))
            if lower == 0:
                outer = _lev_value(k + 1, n, d) if k + 1 <= n - 1 else None
                return boundary(scaled(_lev_value(k, n - 1, d)), outer)
    return BoundVerdict(
        bound_name="levenshtein",
        applicable=False,
        reason="x=d falls outside every piecewise branch at this length",
        inputs=inputs,
    )


# ---------------------------------------------------------------------------
# exact LP feasibility of enumerator pairs
# ---------------------------------------------------------------------------


@dataclass
class LPVerdict:
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


def _lp_rows(n: int, d: int) -> tuple[list[list[Fraction]], int]:
    """Constraint matrix over variables B_d .. B_n plus surplus columns."""
    nb = n - d + 1
    ns = n - d + 1  # one surplus per inequality row t = d .. n
    rows = []
    for t, values in enumerate(krawtchouk_table(n)):
        row = [Fraction(v) for v in values[d:]]
        row += [_ZERO] * ns
        if t >= d:
            row[nb + (t - d)] = Fraction(-1)
        rows.append(row)
    return rows, nb


def verify_lp_witness(n: int, K: Fraction, d: int, B: Sequence[Fraction]) -> bool:
    """Exact check that B is a valid nondegenerate distribution at (n, K, d)."""
    K = Fraction(K)
    if len(B) != n + 1 or B[0] != 1:
        return False
    if any(Fraction(v) < 0 for v in B):
        return False
    if any(Fraction(B[i]) != 0 for i in range(1, d)):
        return False
    scale = (Fraction(2) ** n) * K
    A = macwilliams_transform(B, n, 4, scale)
    if A[0] != 1:
        return False
    if any(A[t] != 0 for t in range(1, d)):
        return False
    return all(A[t] >= 0 for t in range(d, n + 1))


def verify_lp_certificate(n: int, K: Fraction, d: int, y: Sequence[Fraction]) -> bool:
    """Exact check of an excluding dual vector."""
    K = Fraction(K)
    if len(y) != n + 1:
        return False
    if any(y[t] < 0 for t in range(d, n + 1)):
        return False
    values = krawtchouk_values(y, n)
    if any(values[i] > 0 for i in range(d, n + 1)):
        return False
    return values[0] < y[0] * (Fraction(2) ** n) * K


def lp_feasible(n: int, K: Fraction | int, d: int) -> LPVerdict:
    """Decide the enumerator LP exactly; witness or dual certificate attached."""
    K = Fraction(K)
    if K <= 0:
        raise ParameterError(f"K must be positive, got {K}")
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    if n > LP_SIZE_CAP:
        raise CapacityError(f"n={n} exceeds the exact-LP cap {LP_SIZE_CAP}")
    from .simplex import solve_lp

    rows, nb = _lp_rows(n, d)
    scale = (Fraction(2) ** n) * K
    rhs = [scale - 1] + [-krawtchouk_eval(t, 0, n) for t in range(1, n + 1)]
    nvars = len(rows[0])
    sol = solve_lp([_ZERO] * nvars, rows, rhs)
    if sol.status == "infeasible":
        assert sol.farkas is not None
        cert = tuple(sol.farkas)
        if not verify_lp_certificate(n, K, d, cert):
            raise InvariantError("simplex produced an invalid dual certificate")
        return LPVerdict(n=n, K=K, d=d, feasible=False, certificate=cert)
    if sol.status != "optimal":
        raise InvariantError(f"feasibility LP reported {sol.status}")
    assert sol.x is not None
    B = [_ONE] + [_ZERO] * (d - 1) + list(sol.x[:nb])
    if not verify_lp_witness(n, K, d, B):
        raise InvariantError("simplex produced an invalid feasibility witness")
    A = macwilliams_transform(B, n, 4, scale)
    return LPVerdict(
        n=n, K=K, d=d, feasible=True, witness_B=tuple(B), witness_A=tuple(A)
    )


def lp_critical_K(n: int, d: int) -> Fraction | None:
    """Largest K for which the enumerator LP is feasible; None when no K is.

    The zero-forcing and nonnegativity constraints do not involve K, so the
    feasible K form an interval whose top is (1 + max sum B_i) / 2^n.
    """
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    if n > LP_SIZE_CAP:
        raise CapacityError(f"n={n} exceeds the exact-LP cap {LP_SIZE_CAP}")
    from .simplex import solve_lp

    rows, nb = _lp_rows(n, d)
    rows = rows[1:]  # drop the K-dependent normalization row
    rhs = [-krawtchouk_eval(t, 0, n) for t in range(1, n + 1)]
    cost = [Fraction(-1)] * nb + [_ZERO] * (len(rows[0]) - nb)
    sol = solve_lp(cost, rows, rhs)
    if sol.status == "infeasible":
        return None
    if sol.status == "unbounded":
        raise InvariantError("distribution polytope is provably bounded")
    assert sol.objective is not None
    return (1 - sol.objective) / (Fraction(2) ** n)


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
        for j in range(i + 1):
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
            "dim_max": 2 * n_total - l - ceil_log2(Fraction(ball)),
        },
        inputs={"l": l, "n_total": n_total, "dim": dim, "d": d},
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
    verdict.inputs = {"n": n, "k": k, "k0": k0, "k1": k1, "d": d}
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
