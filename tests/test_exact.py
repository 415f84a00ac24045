"""Krawtchouk arithmetic: evaluation, basis changes, roots, transform."""

import random
from fractions import Fraction as F

import pytest

from krawtchouk_oracle import (
    compare_smallest_root_sturm,
    falling_binomial,
    krawtchouk_power_coeffs,
    krawtchouk_sum,
    singleton_polynomial,
)
from qbounds.errors import ParameterError
from qbounds.exact import (
    ExactPolynomial,
    KrawtchoukExpansion,
    binomial,
    compare_smallest_root,
    krawtchouk_coeffs,
    krawtchouk_eval,
    krawtchouk_expand,
    krawtchouk_table,
    macwilliams_transform,
)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ParameterError):
        binomial(-1, 0)


def test_falling_binomial_extends_integers():
    assert falling_binomial(6, 2) == binomial(6, 2)
    assert falling_binomial(-1, 3) == -1
    assert falling_binomial(F(1, 2), 2) == F(-1, 8)


def test_krawtchouk_degree_zero_is_one():
    for x in (0, 3, F(7, 3), -2):
        assert krawtchouk_eval(0, x, 5) == 1


def test_krawtchouk_at_zero_collapses():
    # P_t(0, n) = 3^t C(n, t) for q = 4
    assert krawtchouk_eval(2, 0, 5) == 9 * binomial(5, 2) == 90
    for t in range(8):
        assert krawtchouk_eval(t, 0, 7) == 3**t * binomial(7, t)


def test_krawtchouk_linear_case():
    # P_1(x, n) = (q-1) n - q x, checked at rational points
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 12)
        q = rng.choice((2, 3, 4))
        x = F(rng.randint(-20, 40), rng.randint(1, 9))
        assert krawtchouk_eval(1, x, n, q) == (q - 1) * n - q * x
    assert krawtchouk_eval(1, 2, 5) == 7


def test_table_matches_defining_sum():
    for n in range(31):
        table = krawtchouk_table(n)
        assert len(table) == n + 1
        for t, row in enumerate(table):
            assert list(row) == [krawtchouk_sum(t, i, n) for i in range(n + 1)], (n, t)
    for q in (2, 3, 5):
        for n in range(9):
            table = krawtchouk_table(n, q)
            for t, row in enumerate(table):
                assert list(row) == [krawtchouk_sum(t, i, n, q) for i in range(n + 1)]


def test_recurrence_off_the_table_matches_defining_sum():
    # rational points and integers outside [0, n] take the Fraction recurrence
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 14)
        q = rng.choice((2, 3, 4))
        t = rng.randint(0, n)
        x = F(rng.randint(-30, 60), rng.choice((1, 1, 2, 3, 7)))
        assert krawtchouk_eval(t, x, n, q) == krawtchouk_sum(t, x, n, q), (t, x, n, q)


def test_coeffs_match_defining_sum():
    for q in (2, 4):
        for n in range(11):
            for t in range(n + 1):
                assert list(krawtchouk_coeffs(t, n, q)) == krawtchouk_power_coeffs(t, n, q)


def test_krawtchouk_rejects_degree_above_n():
    with pytest.raises(ParameterError):
        krawtchouk_eval(6, 1, 5)


@pytest.mark.parametrize("n", range(0, 7))
def test_orthogonality(n):
    q = 4
    for r in range(n + 1):
        for s in range(r, n + 1):
            total = sum(
                F(3**x * binomial(n, x))
                * krawtchouk_eval(r, x, n)
                * krawtchouk_eval(s, x, n)
                for x in range(n + 1)
            )
            expected = F(q**n * 3**r * binomial(n, r)) if r == s else F(0)
            assert total == expected, (n, r, s)


@pytest.mark.parametrize("n", range(1, 9))
def test_column_sums(n):
    # sum_t P_t(i, n) = q^n for i = 0 and 0 for every 1 <= i <= n
    assert sum(krawtchouk_eval(t, 0, n) for t in range(n + 1)) == 4**n
    for i in range(1, n + 1):
        assert sum(krawtchouk_eval(t, i, n) for t in range(n + 1)) == 0


def test_expand_constant():
    f = ExactPolynomial((F(1),), 5)
    assert krawtchouk_expand(f).coeffs == (1, 0, 0, 0, 0, 0)


def test_expand_singleton_polynomial_closed_form():
    # f(x) = 4^{n-d+1} prod_{j=d}^{n}(1 - x/j) expands to C(n-i, d-1)/C(n, d-1)
    e = krawtchouk_expand(singleton_polynomial(5, 3))
    assert e.coeffs == (1, F(3, 5), F(3, 10), F(1, 10), 0, 0)
    for n in range(1, 10):
        for d in range(1, n + 1):
            e = krawtchouk_expand(singleton_polynomial(n, d))
            closed = tuple(
                F(binomial(n - i, d - 1), binomial(n, d - 1)) for i in range(n + 1)
            )
            assert e.coeffs == closed, (n, d)


def test_expand_synthesize_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(0, 9)
        deg = rng.randint(0, n)
        coeffs = [F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(deg + 1)]
        f = ExactPolynomial(tuple(coeffs), n)
        back = krawtchouk_expand(f).synthesize()
        assert back.coeffs == f.coeffs
        # and the reverse direction: coefficients -> polynomial -> coefficients
        kcoeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1))
        e = KrawtchoukExpansion(kcoeffs, n)
        assert krawtchouk_expand(e.synthesize()).coeffs == kcoeffs


def test_expand_rejects_degree_above_ambient():
    with pytest.raises(ParameterError):
        ExactPolynomial(tuple(F(1) for _ in range(7)), 5)


def test_compare_smallest_root_rejects_constant():
    with pytest.raises(ParameterError):
        compare_smallest_root(0, 5, 4, 1)


def test_compare_smallest_root_matches_sturm_oracle():
    points = exact_roots = 0
    for n in range(1, 15):
        grid = [F(j, 4) for j in range(-2, 4 * n + 3)]
        for k in range(1, n + 1):
            for x in grid:
                expected = compare_smallest_root_sturm(k, n, 4, x)
                assert compare_smallest_root(k, n, 4, x) == expected, (k, n, x)
                points += 1
                exact_roots += krawtchouk_eval(k, x, n) == 0
    assert points == 4585
    assert exact_roots > 0  # the interlacing case is exercised


def test_compare_smallest_root_trichotomy():
    assert compare_smallest_root(2, 5, 4, 2) == -1
    assert compare_smallest_root(2, 5, 4, F(5, 2)) == 0
    assert compare_smallest_root(2, 5, 4, 3) == 1
    # the larger root of P_2(x, 5) is 9/2: a root, but not the smallest
    assert compare_smallest_root(2, 5, 4, F(9, 2)) == 1


def test_transform_single_symbol_space():
    assert macwilliams_transform([1, 3], 1, 4, 4) == [1, 0]


def test_transform_five_qubit_pair():
    # derived in test_gf4 by exhaustive enumeration; frozen here
    B = [1, 0, 0, 30, 15, 18]
    assert macwilliams_transform(B, 5, 4, 64) == [1, 0, 0, 0, 15, 0]


def test_transform_involution_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 8)
        B = [rng.randint(0, 99) for _ in range(n + 1)]
        scale = F(rng.randint(1, 40), rng.randint(1, 6))
        forward = macwilliams_transform(B, n, 4, scale)
        back = macwilliams_transform(forward, n, 4, F(4**n) / scale)
        assert back == [F(v) for v in B]


def test_transform_parameter_errors():
    with pytest.raises(ParameterError):
        macwilliams_transform([1, 0], 1, 4, 0)
    with pytest.raises(ParameterError):
        macwilliams_transform([1, 0, 0], 1, 4, 1)
