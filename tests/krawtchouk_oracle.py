"""Slow reference implementations the fast Krawtchouk paths are checked against.

* :func:`krawtchouk_sum` evaluates P_t(x, n) from its defining sum of
  falling binomials, at any rational x.
* :func:`compare_smallest_root_sturm` places x against the smallest root of
  P_k(x, n) by counting real roots with a Sturm chain built from the
  power-basis coefficients by polynomial remainders.
* :func:`singleton_polynomial` builds the Singleton-type product
  polynomial in the power basis, for the polynomial-method tests.

Neither shares code with the recurrence that ``qbounds.exact`` uses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from qbounds.exact import ExactPolynomial, _poly_add, _poly_eval, _poly_mul, _poly_scale, _trim

_ONE = Fraction(1)


def falling_binomial(x: Fraction | int, j: int) -> Fraction:
    """C(x, j) = x (x-1) ... (x-j+1) / j! at rational x."""
    if j < 0:
        return Fraction(0)
    x = Fraction(x)
    p, r = x.numerator, x.denominator
    return Fraction(math.prod(p - t * r for t in range(j)), r**j * math.factorial(j))


def krawtchouk_sum(t: int, x: Fraction | int, n: int, q: int = 4) -> Fraction:
    """sum_{j=0}^{t} (-1)^j (q-1)^{t-j} C(x, j) C(n-x, t-j)."""
    return sum(
        (
            (-1) ** j * (q - 1) ** (t - j) * falling_binomial(x, j) * falling_binomial(n - x, t - j)
            for j in range(t + 1)
        ),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def _falling_poly(j: int) -> tuple[Fraction, ...]:
    """Power-basis coefficients of C(x, j)."""
    coeffs: list[Fraction] = [_ONE]
    for t in range(j):
        coeffs = _poly_mul(coeffs, [Fraction(-t), _ONE])
    return tuple(_poly_scale(coeffs, Fraction(1, math.factorial(j))))


def krawtchouk_power_coeffs(t: int, n: int, q: int = 4) -> list[Fraction]:
    """Power-basis coefficients of P_t(x, n), expanded from the defining sum."""
    total: list[Fraction] = []
    for j in range(t + 1):
        m = t - j
        cnx: list[Fraction] = [_ONE]
        for s in range(m):
            cnx = _poly_mul(cnx, [Fraction(n - s), Fraction(-1)])
        cnx = _poly_scale(cnx, Fraction(1, math.factorial(m)))
        term = _poly_mul(list(_falling_poly(j)), cnx)
        total = _poly_add(total, _poly_scale(term, Fraction((-1) ** j * (q - 1) ** m)))
    return total


def _poly_deriv(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return _trim([coeffs[i] * i for i in range(1, len(coeffs))])


def _poly_rem(num: Sequence[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    """Remainder of polynomial division; den must be nonzero."""
    rem = list(num)
    dn = len(den) - 1
    lead = den[-1]
    while len(rem) - 1 >= dn and rem:
        factor = rem[-1] / lead
        shift = len(rem) - 1 - dn
        for i, dv in enumerate(den):
            rem[shift + i] -= factor * dv
        _trim(rem)
    return rem


@lru_cache(maxsize=None)
def _sturm_chain(t: int, n: int, q: int) -> tuple[tuple[Fraction, ...], ...]:
    p0 = krawtchouk_power_coeffs(t, n, q)
    chain = [p0, _poly_deriv(p0)]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return tuple(tuple(p) for p in chain)


def _sign_variations(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v > 0:
            signs.append(1)
        elif v < 0:
            signs.append(-1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def compare_smallest_root_sturm(k: int, n: int, q: int, x: Fraction | int) -> int:
    """-1, 0 or +1 as x lies below, on or above the smallest root of P_k(x, n)."""
    x = Fraction(x)
    if x <= 0:
        return -1
    chain = _sturm_chain(k, n, q)
    # distinct roots in (0, x]; P_k(0) = (q-1)^k C(n, k) != 0
    roots_up_to_x = _sign_variations(chain, Fraction(0)) - _sign_variations(chain, x)
    if _poly_eval(chain[0], x) == 0:
        return 0 if roots_up_to_x == 1 else 1
    return -1 if roots_up_to_x == 0 else 1


def singleton_polynomial(n: int, d: int) -> ExactPolynomial:
    """f(x) = 4^{n-d+1} prod_{j=d}^{n} (1 - x/j)."""
    coeffs: list[Fraction] = [Fraction(4) ** (n - d + 1)]
    for j in range(d, n + 1):
        coeffs = _poly_mul(coeffs, [_ONE, Fraction(-1, j)])
    return ExactPolynomial(tuple(coeffs), n)
