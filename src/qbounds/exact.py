"""Exact rational arithmetic for Hamming-scheme polynomial machinery.

Everything here is computed with integers and ``fractions.Fraction``; no
floating point is used anywhere in this module, so results are exact and
usable as bound certificates.

The degree-t Krawtchouk polynomial used throughout is

    P_t(x, n) = sum_{j=0}^{t} (-1)^j (q-1)^{t-j} C(x, j) C(n-x, t-j),

a polynomial of exact degree t in x with leading coefficient
(-1)^t q^t / t!.  Its n+1 members P_0 .. P_n are orthogonal under the
weight (q-1)^x C(n, x) on {0, .., n}, which is the identity every other
convention choice is validated against.

One source supplies every value: the three-term recurrence

    (t+1) P_{t+1}(x) = ((q-1)(n-t) + t - q x) P_t(x) - (q-1)(n-t+1) P_{t-1}(x).

At the integers 0 .. n it fills the integer table P[t][i] = P_t(i, n)
(cached, bounded), which drives point evaluation, the dual
weight-distribution transform and the change between a polynomial's
values f(0 .. n) and its Krawtchouk coefficients (the matrix
M[i][t] = P_t(i, n) satisfies M^2 = q^n I).  At other x the recurrence
runs in ints (integer x) or Fractions.  The power-basis coefficients of
an expansion are interpolated from its values at 0 .. n
(:meth:`KrawtchoukExpansion.synthesize`).  Because (-1)^t P_t has a
positive leading coefficient and the recurrence's last coefficient is
negative, P_0 .. P_k is a Sturm sequence: its sign changes at x count
the roots of P_k above x.  So x lies below the smallest root of P_k
exactly when P_0 .. P_k are all positive at x, and one scan of the column
P_0(x) .. P_n(x) for its first nonpositive entry (the smallest-root index
of x) places x against the smallest root of every P_k at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import ParameterError

# Integer tables kept at once.  A bound at length n reads the tables for n,
# n-1 and n-2; one table at n = 200 holds about 4 MB.
TABLE_CACHE_SIZE = 8


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ParameterError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def over_common_denominator(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Integers m and D > 0 with values[i] = m[i] / D, D the lcm of the denominators.

    ``int`` and ``Fraction`` both carry ``numerator`` and ``denominator``,
    so neither is converted first.
    """
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


# ---------------------------------------------------------------------------
# Krawtchouk polynomials
# ---------------------------------------------------------------------------


def _validate_tnq(t: int, n: int, q: int) -> None:
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    if q < 2:
        raise ParameterError(f"alphabet size q must be >= 2, got {q}")
    if t < 0 or t > n:
        raise ParameterError(f"Krawtchouk degree t={t} outside [0, n={n}]")


def _recurrence(k: int, x: int | Fraction, n: int, q: int) -> list:
    """P_0(x) .. P_k(x); ints for int x (the division is exact), else Fractions."""
    values, prev = [1], 0
    for t in range(k):
        step = ((q - 1) * (n - t) + t - q * x) * values[t] - (q - 1) * (n - t + 1) * prev
        prev = values[t]
        values.append(step // (t + 1) if isinstance(step, int) else step / (t + 1))
    return values


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def krawtchouk_table(n: int, q: int = 4) -> tuple[tuple[int, ...], ...]:
    """The integer table P[t][i] = P_t(i, n) for 0 <= t, i <= n."""
    _validate_tnq(0, n, q)
    return tuple(zip(*(_recurrence(n, i, n, q) for i in range(n + 1))))


def _column(k: int, x: Fraction, n: int, q: int) -> list:
    """P_0(x) .. P_k(x): from the table at integer x in [0, n], else by the recurrence."""
    if x.denominator == 1:
        x = x.numerator
        if 0 <= x <= n:
            table = krawtchouk_table(n, q)
            return [table[t][x] for t in range(k + 1)]
    return _recurrence(k, x, n, q)


def krawtchouk_eval(t: int, x: Fraction | int, n: int, q: int = 4) -> Fraction:
    """Exact value of the degree-t Krawtchouk polynomial at rational x."""
    _validate_tnq(t, n, q)
    return Fraction(_column(t, Fraction(x), n, q)[t])


def krawtchouk_values(
    coeffs: Sequence[Fraction | int], n: int, q: int = 4, scale: Fraction | int = 1
) -> list[Fraction]:
    """f(0) .. f(n), divided by scale, for f = sum_t coeffs[t] P_t(x, n).

    M[i][t] = P_t(i, n) squares to q^n I, so applied to the values f(0 .. n)
    with scale = q^n this returns the Krawtchouk coefficients of f.
    """
    if len(coeffs) != n + 1:
        raise ParameterError(f"expected {n + 1} entries, got {len(coeffs)}")
    coeffs = [Fraction(c) for c in coeffs]
    return [sum(map(mul, column, coeffs)) / scale for column in zip(*krawtchouk_table(n, q))]


# ---------------------------------------------------------------------------
# polynomials carried in both bases
# ---------------------------------------------------------------------------


class ExactPolynomial:
    """A univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x**i; trailing zeros are trimmed on
    construction.  ``n`` is the ambient length (the polynomial lives in the
    degree-<=n space spanned by P_0 .. P_n) and ``q`` the alphabet size.
    """

    def __init__(self, coeffs: Sequence[Fraction | int], n: int, q: int = 4) -> None:
        if n < 0:
            raise ParameterError(f"ambient length must be nonnegative, got {n}")
        if q < 2:
            raise ParameterError(f"alphabet size q must be >= 2, got {q}")
        cleaned = [Fraction(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if len(cleaned) - 1 > n:
            raise ParameterError(f"degree {len(cleaned) - 1} exceeds ambient length {n}")
        self.coeffs: tuple[Fraction, ...] = tuple(cleaned)
        self.n, self.q = n, q

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Fraction | int) -> Fraction:
        """f(x) by Horner's rule."""
        x, acc = Fraction(x), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class KrawtchoukExpansion:
    """Coefficients f_0 .. f_n of an expansion f(x) = sum f_t P_t(x, n)."""

    def __init__(self, coeffs: Sequence[Fraction | int], n: int, q: int = 4) -> None:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != n + 1:
            raise ParameterError(f"expected {n + 1} Krawtchouk coefficients, got {len(coeffs)}")
        self.coeffs: tuple[Fraction, ...] = coeffs
        self.n, self.q = n, q

    @classmethod
    def from_values(
        cls, values: Sequence[Fraction | int], n: int, q: int = 4
    ) -> "KrawtchoukExpansion":
        """The expansion of the degree-<=n polynomial taking these values at 0 .. n."""
        return cls(tuple(krawtchouk_values(values, n, q, q**n)), n, q)

    def synthesize(self) -> ExactPolynomial:
        """Re-expand into the power basis: sum f_t P_t(x, n).

        f is interpolated from its values at 0 .. n.  Newton's forward
        differences give a_k = Delta^k f(0) / k!, its coefficients on the
        falling factorials x (x-1) .. (x-k+1), and Horner's rule in that
        basis, f = a_0 + x (a_1 + (x-1) (a_2 + ...)), collects the
        power-basis coefficients.
        """
        diffs = krawtchouk_values(self.coeffs, self.n, self.q)
        a = []
        for k in range(self.n + 1):
            a.append(diffs[0] / math.factorial(k))
            diffs = [v - u for u, v in zip(diffs, diffs[1:])]
        coeffs = [a[-1]]
        for k in range(self.n - 1, -1, -1):
            # coeffs * (x - k) + a_k
            coeffs = [
                a[k] - k * coeffs[0],
                *(u - k * v for u, v in zip(coeffs, coeffs[1:])),
                coeffs[-1],
            ]
        return ExactPolynomial(tuple(coeffs), self.n, self.q)


def krawtchouk_expand(f: ExactPolynomial) -> KrawtchoukExpansion:
    """Expand f in the Krawtchouk basis from its values at 0 .. n.

    A polynomial of degree <= n is fixed by those n+1 values, and the
    integer table inverts the evaluation map exactly.
    """
    if f.degree > f.n:
        raise ParameterError(f"degree {f.degree} exceeds ambient length {f.n}")
    return KrawtchoukExpansion.from_values([f(i) for i in range(f.n + 1)], f.n, f.q)


# ---------------------------------------------------------------------------
# the smallest root
# ---------------------------------------------------------------------------


def smallest_root_index(n: int, q: int, x: Fraction | int) -> tuple[int, bool]:
    """The least t with P_t(x, n) <= 0 (n + 1 if none), and whether that value is 0.

    Exact, from the signs of P_0(x) .. P_n(x).  For 1 <= k <= n, x lies
    below the smallest root of P_k when k < t: the sign changes of
    (-1)^s P_s(x), s = 0 .. k, count the roots of P_k above x, so x is
    below all k of them exactly when every P_s(x) is positive.  x is that
    smallest root when k == t and P_t(x) = 0 (the roots of P_{k-1}
    interlace those of P_k, and x lies below all of them), and above it
    otherwise.
    """
    _validate_tnq(0, n, q)
    values = _column(n, Fraction(x), n, q)
    t = next((t for t, v in enumerate(values) if v <= 0), n + 1)
    return t, t <= n and values[t] == 0


def compare_smallest_root(k: int, n: int, q: int, x: Fraction | int) -> int:
    """Trichotomy of rational x against the smallest root of P_k(x, n).

    Returns -1 when x is strictly below the smallest root, 0 when x equals
    it exactly, +1 when strictly above; read off :func:`smallest_root_index`.
    """
    if k == 0:
        raise ParameterError("P_0 is constant and has no roots")
    _validate_tnq(k, n, q)
    t, on_root = smallest_root_index(n, q, x)
    if k < t:
        return -1
    return 0 if k == t and on_root else 1


# ---------------------------------------------------------------------------
# weight-distribution transform
# ---------------------------------------------------------------------------


def macwilliams_transform(
    B: Sequence[Fraction | int],
    n: int,
    q: int = 4,
    scale: Fraction | int = 1,
) -> list[Fraction]:
    """A_t = (1/scale) * sum_i B_i P_t(i, n), exactly.

    With B = b / D over its common denominator, each A_t is one fraction:
    the integer dot product of the table row P_t(0 .. n) with b, over
    D * scale.

    With B the weight distribution of a code of size M over a q-letter
    alphabet and scale = M, this yields the distribution of the dual code;
    applying the transform twice with scales (s, q**n / s) is the identity.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    if len(B) != n + 1:
        raise ParameterError(f"expected {n + 1} entries, got {len(B)}")
    b, D = over_common_denominator(B)
    scale *= D
    return [sum(map(mul, row, b)) / scale for row in krawtchouk_table(n, q)]
