"""Finite-length bounds: polynomial method, LP feasibility, sphere packing."""

import random
from fractions import Fraction as F

import pytest

from krawtchouk_oracle import singleton_polynomial
from qbounds.bounds import (
    LP_SIZE_CAP,
    ceil_log2,
    check_conditions,
    degenerate_hamming_check,
    floor_log2,
    hamming_bound,
    hamming_expansion,
    levenshtein_bound,
    lp_critical_K,
    lp_feasible,
    mixed_hamming_ball,
    mixed_hamming_check,
    polynomial_bound,
    singleton_bound,
    strongest,
    verify_lp_certificate,
    verify_lp_witness,
)
from qbounds.errors import CapacityError, ParameterError
from qbounds.exact import ExactPolynomial, binomial

FIVE_QUBIT_B = (1, 0, 0, 30, 15, 18)


def test_floor_ceil_log2():
    assert floor_log2(F(64)) == 6
    assert floor_log2(F(63)) == 5
    assert floor_log2(F(1, 3)) == -2
    assert ceil_log2(F(64)) == 6
    assert ceil_log2(F(65)) == 7
    assert ceil_log2(F(1)) == 0


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------


def test_singleton_polynomial_accepted():
    fp = check_conditions(singleton_polynomial(5, 3), 5, 3)
    assert fp.accepted
    assert all(c >= 0 for c in fp.expansion.coeffs)


def test_constant_polynomial_rejected_with_indices():
    fp = check_conditions(ExactPolynomial((F(1),), 5), 5, 3)
    assert not fp.accepted
    assert any("f(3)" in v for v in fp.violations)
    assert any("f(5)" in v for v in fp.violations)
    with pytest.raises(ParameterError):
        polynomial_bound(fp)


def test_hamming_polynomial_vanishes_exactly():
    fp = check_conditions(hamming_expansion(5, 3).synthesize(), 5, 3)
    assert fp.accepted
    assert fp.values[3] == fp.values[4] == fp.values[5] == 0


def test_check_conditions_parameter_errors():
    with pytest.raises(ParameterError):
        check_conditions(ExactPolynomial((F(1),), 5), 5, 0)
    with pytest.raises(ParameterError):
        check_conditions(ExactPolynomial((F(1),), 4), 5, 3)


# ---------------------------------------------------------------------------
# named bounds
# ---------------------------------------------------------------------------


def test_singleton_examples():
    v = singleton_bound(5, 3)
    assert v.value_on_2nK == 64 and v.k_max == 1
    assert singleton_bound(7, 4).k_max == 1  # K <= 2^{7-8+2} = 2
    assert singleton_bound(6, 1).k_max == 6  # K <= 2^n


def test_singleton_closed_form_sweep():
    for n in range(1, 13):
        for d in range(1, n // 2 + 2):
            v = singleton_bound(n, d)
            assert v.value_on_2nK == F(4) ** (n - d + 1)
            assert v.k_max == n - 2 * d + 2


def test_hamming_examples():
    v = hamming_bound(5, 3)
    assert v.value_on_2nK == 64  # K <= 2, tight for the five-qubit code
    assert v.details["ball"] == 16
    v = hamming_bound(7, 3)
    assert v.value_on_2nK == F(4**7, 22)  # K <= 2^7/22
    assert v.k_max == 2
    assert hamming_bound(6, 1).k_max == 6


def test_hamming_even_d_flagged():
    v = hamming_bound(6, 4)
    assert v.notes and "radius" in v.notes[0]
    assert v.value_on_2nK == hamming_bound(6, 3).value_on_2nK


def test_verdict_kmax_invariant():
    for v in (singleton_bound(9, 3), hamming_bound(9, 3), levenshtein_bound(9, 3)):
        assert v.applicable
        assert v.k_max == floor_log2(v.value_on_2nK) - 9


# ---------------------------------------------------------------------------
# Levenshtein-type bound
# ---------------------------------------------------------------------------


def test_levenshtein_first_branch_is_plotkin_type():
    # on the k = 1 branch the value collapses to 4d/(4d - 3n): here
    # 1 + 15/(16 - 15) = 16; x = 4 sits exactly on a branch boundary, so
    # both neighboring values are reported (they agree, as continuity of
    # the piecewise bound demands) and the weaker one governs.
    v = levenshtein_bound(5, 4)
    assert v.applicable
    assert v.value_on_2nK == F(4 * 4, 4 * 4 - 3 * 5) == 16
    assert v.notes and "boundary" in v.notes[0]

    v = levenshtein_bound(2, 2)
    assert v.value_on_2nK == F(4 * 2, 4 * 2 - 3 * 2) == 4


def test_levenshtein_interior_branch():
    v = levenshtein_bound(5, 3)
    assert v.applicable and not v.notes
    assert v.value_on_2nK == 76
    assert v.k_max == 1


def test_levenshtein_small_d_guard():
    v = levenshtein_bound(5, 1)
    assert not v.applicable


def test_levenshtein_never_excludes_fixture_codes():
    # [[5,1,3]], [[4,2,2]], [[7,1,3]] must survive every applicable bound
    for n, k, d in ((5, 1, 3), (4, 2, 2), (7, 1, 3)):
        for v in (singleton_bound(n, d), hamming_bound(n, d), levenshtein_bound(n, d)):
            if v.applicable:
                assert v.allows_K(n, F(2) ** k), (n, k, d, v.bound_name)


def test_levenshtein_dominated_by_lp():
    # LP critical K is the tightest over the constraint system, so any
    # polynomial-method value must sit at or above it.
    for n in range(2, 9):
        for d in range(2, n + 1):
            v = levenshtein_bound(n, d)
            if not v.applicable:
                continue
            critical = lp_critical_K(n, d)
            if critical is None:
                continue
            assert (F(2) ** n) * critical <= v.value_on_2nK, (n, d)


# ---------------------------------------------------------------------------
# LP feasibility
# ---------------------------------------------------------------------------


def test_lp_five_qubit_feasible_with_fixture_witness():
    result = lp_feasible(5, 2, 3)
    assert result.feasible
    assert verify_lp_witness(5, F(2), 3, result.witness_B)
    assert verify_lp_witness(5, F(2), 3, FIVE_QUBIT_B)


def test_lp_excludes_K4_with_certificate():
    result = lp_feasible(5, 4, 3)
    assert not result.feasible
    assert verify_lp_certificate(5, F(4), 3, result.certificate)


def test_hamming_expansion_is_dual_certificate():
    coeffs = hamming_expansion(5, 3).coeffs
    assert verify_lp_certificate(5, F(4), 3, coeffs)
    assert not verify_lp_certificate(5, F(2), 3, coeffs)  # cannot exclude K = 2


def test_lp_distance_one_feasible_up_to_full_space():
    assert lp_feasible(6, 2**6, 1).feasible
    assert not lp_feasible(6, 2**6 + 1, 1).feasible


def test_lp_rational_K():
    assert lp_feasible(5, F(5, 2), 3).feasible is False
    assert lp_feasible(5, F(3, 2), 3).feasible is True


def test_lp_critical_values():
    assert lp_critical_K(5, 3) == 2
    assert lp_critical_K(5, 4) is None  # zero-forcing system infeasible
    critical = lp_critical_K(7, 3)
    assert critical is not None
    assert lp_feasible(7, critical, 3).feasible
    assert not lp_feasible(7, critical + F(1, 1000), 3).feasible


def test_lp_capacity_cap():
    with pytest.raises(CapacityError):
        lp_feasible(LP_SIZE_CAP + 1, 2, 3)
    with pytest.raises(ParameterError):
        lp_feasible(5, 0, 3)


# ---------------------------------------------------------------------------
# sphere packing for mixed codes
# ---------------------------------------------------------------------------


def test_mixed_ball_reductions():
    # l = 0: plain quaternary ball; l = n: binary ball
    for n in range(1, 11):
        for e in range(0, n + 1):
            assert mixed_hamming_ball(0, n, e) == sum(
                3**i * binomial(n, i) for i in range(e + 1)
            )
            assert mixed_hamming_ball(n, n, e) == sum(
                binomial(n, i) for i in range(e + 1)
            )


def test_mixed_hamming_check_five_qubit_instance():
    v = mixed_hamming_check(0, 3, 2, 3)
    assert v.passed
    assert v.details["ball"] == 10 and v.details["rhs"] == 16


def test_mixed_hamming_check_parameter_errors():
    with pytest.raises(ParameterError):
        mixed_hamming_check(4, 3, 1, 3)
    with pytest.raises(ParameterError):
        mixed_hamming_check(1, 3, 6, 3)


def test_degenerate_hamming_five_qubit():
    v = degenerate_hamming_check(5, 1, 2, 0, 3)
    assert v.passed
    assert v.details["rhs_tight"] == v.details["rhs_loose"] == 16
    assert not v.notes  # k1 = 0: no divergence flag


def test_degenerate_hamming_flags_k1_divergence():
    v = degenerate_hamming_check(7, 1, 2, 2, 3)
    assert v.details["rhs_loose"] == v.details["rhs_tight"] * 4**2
    assert v.notes


def test_degenerate_hamming_trivial_distance():
    v = degenerate_hamming_check(5, 1, 2, 0, 1)
    assert v.passed and v.details["ball"] == 1


def test_degenerate_hamming_rejects_inconsistent():
    with pytest.raises(ParameterError):
        degenerate_hamming_check(5, 2, 2, 0, 3)


# ---------------------------------------------------------------------------
# soundness and duality sweeps
# ---------------------------------------------------------------------------


def test_bounds_never_exclude_brute_forced_codes():
    from qbounds.gf4 import quantum_distance, random_self_orthogonal_code, standard_form

    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 7)
        code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
        params = quantum_distance(code)
        K = F(2) ** params.k
        for v in (
            singleton_bound(params.n, params.d),
            hamming_bound(params.n, params.d),
            levenshtein_bound(params.n, params.d),
        ):
            if v.applicable:
                assert v.allows_K(params.n, K), (code, params, v.bound_name)
        if params.n <= LP_SIZE_CAP and not params.degenerate:
            assert lp_feasible(params.n, K, params.d).feasible, (code, params)
        sf = standard_form(code)
        verdict = degenerate_hamming_check(params.n, params.k, sf.k0, sf.k1, params.d)
        assert verdict.passed, (code, params)


def test_weak_duality_sweep():
    for n in range(2, 7):
        for d in range(1, n + 1):
            critical = lp_critical_K(n, d)
            if critical is None:
                continue
            scale = (F(2) ** n) * critical
            assert scale <= singleton_bound(n, d).value_on_2nK
            assert scale <= hamming_bound(n, d).value_on_2nK


def test_strongest_selection():
    verdicts = [singleton_bound(7, 3), hamming_bound(7, 3), levenshtein_bound(7, 3)]
    best = strongest(verdicts)
    assert best is not None
    assert best.value_on_2nK == min(v.value_on_2nK for v in verdicts if v.applicable)
