"""Finite-length bounds: polynomial method, LP feasibility, sphere packing."""

import hashlib
import random
import re
from fractions import Fraction as F

import pytest

from krawtchouk_oracle import singleton_polynomial
from qbounds import bounds
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
    lp_feasible_and_critical_K,
    mixed_hamming_ball,
    mixed_hamming_check,
    polynomial_bound,
    singleton_bound,
    strongest,
    verify_lp_certificate,
    verify_lp_witness,
)
from qbounds.errors import CapacityError, InvariantError, ParameterError
from qbounds.exact import (
    ExactPolynomial,
    binomial,
    krawtchouk_table,
    krawtchouk_values,
    macwilliams_transform,
)

FIVE_QUBIT_B = (1, 0, 0, 30, 15, 18)

# sha256 over (n, d, applicable, value_on_2nK, k_max, reason, notes) of
# levenshtein_bound(n, d) for 1 <= n <= 80 and 1 <= d <= n + 1, recorded from
# the implementation that compared x = d - 1 against each smallest root per k
GOLDEN_LEVENSHTEIN = "d55048824a4a8dddcabb4d4871540f5beea890fd522611c5c5298531c7d15064"


def test_floor_ceil_log2():
    assert floor_log2(F(64)) == 6
    assert floor_log2(F(63)) == 5
    assert floor_log2(F(1, 3)) == -2
    assert ceil_log2(F(64)) == 6
    assert ceil_log2(F(65)) == 7
    assert ceil_log2(F(1)) == 0
    big = [F(2**300), F(2**300 - 1), F(2**300 + 1), F(1, 2**301), F(1, 2**301 - 1),
           F(3**200, 5**130), F(5**130, 3**200), F(2**400 + 1, 2**100 - 1)]
    small = [F(p, q) for p in range(1, 201) for q in range(1, 201)]
    for x in small + big:
        m, c = floor_log2(x), ceil_log2(x)
        assert F(2) ** m <= x < F(2) ** (m + 1)
        assert F(2) ** (c - 1) < x <= F(2) ** c


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------


def _values(f):
    """f(0) .. f(n) of a power-basis polynomial of ambient length n."""
    return [f(i) for i in range(f.n + 1)]


def test_singleton_polynomial_accepted():
    fp = check_conditions(_values(singleton_polynomial(5, 3)), 3)
    assert fp.accepted
    assert all(c >= 0 for c in fp.expansion.coeffs)


def test_constant_polynomial_rejected_with_indices():
    fp = check_conditions(_values(ExactPolynomial((F(1),), 5)), 3)
    assert not fp.accepted
    assert any("f(3)" in v for v in fp.violations)
    assert any("f(5)" in v for v in fp.violations)
    with pytest.raises(ParameterError):
        polynomial_bound(fp)


def test_hamming_polynomial_vanishes_exactly():
    fp = check_conditions(_values(hamming_expansion(5, 3).synthesize()), 3)
    assert fp.accepted
    assert fp.values[3] == fp.values[4] == fp.values[5] == 0


def test_check_conditions_parameter_errors():
    with pytest.raises(ParameterError):
        check_conditions(_values(ExactPolynomial((F(1),), 5)), 0)


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


def test_golden_levenshtein_verdicts():
    digest = hashlib.sha256()
    for n in range(1, 81):
        for d in range(1, n + 2):
            v = levenshtein_bound(n, d)
            fields = (n, d, v.applicable, v.value_on_2nK, v.k_max, v.reason, v.notes)
            digest.update(repr(fields).encode())
    assert digest.hexdigest() == GOLDEN_LEVENSHTEIN


def test_levenshtein_rejects_roots_that_fail_to_interlace(monkeypatch):
    # indices 1 at length 4 and 3 at length 3 name no branch
    indices = {4: (1, False), 3: (3, False)}
    monkeypatch.setattr(bounds, "smallest_root_index", lambda m, q, x: indices[m])
    with pytest.raises(InvariantError, match="interlace"):
        levenshtein_bound(5, 3)


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


def test_lp_below_two_to_minus_n_needs_no_simplex(monkeypatch):
    """The normalization row alone excludes K < 2^-n: sum B_i = 2^n K - 1 < 0."""
    from qbounds import simplex

    def refuse(*args):
        raise AssertionError("simplex ran for K < 2^-n")

    monkeypatch.setattr(simplex, "solve_lp", refuse)
    for n, K, d in [(1, F(1, 3), 1), (5, F(1, 33), 3), (24, F(1, 2**24 - 1) / 2, 2)]:
        result = lp_feasible(n, K, d)
        assert not result.feasible
        assert result.certificate == (-1,) + (0,) * n
        assert verify_lp_certificate(n, K, d, result.certificate)
    with pytest.raises(AssertionError, match="simplex ran"):
        lp_feasible(5, F(1, 32), 3)  # K = 2^-n is left to the simplex


def _witness_faults(n, K, d, B):
    """The witness conditions that B fails at (n, K, d), checked over Fractions."""
    A = macwilliams_transform(B, n, 4, F(2) ** n * K)
    faults = {
        "B_0 = 1": B[0] != 1,
        "B >= 0": any(v < 0 for v in B),
        "B = 0 below d": any(B[1:d]),
        "A_0 = 1": A[0] != 1,
        "A = 0 below d": any(A[1:d]),
        "A >= 0 from d": any(a < 0 for a in A[d:]),
    }
    return {name for name, failed in faults.items() if failed}, A


def _certificate_faults(n, K, d, y):
    """The certificate conditions that y fails at (n, K, d), checked over Fractions."""
    f = krawtchouk_values(y, n)
    faults = {
        "y >= 0 from d": any(v < 0 for v in y[d:]),
        "f <= 0 from d": any(v > 0 for v in f[d:]),
        "f(0) < y_0 2^n K": not f[0] < y[0] * F(2) ** n * K,
    }
    return {name for name, failed in faults.items() if failed}


def _small(rng):
    return F(rng.randint(1, 9), rng.randint(1, 9))


def test_lp_witness_check_matches_fraction_reference():
    """The integer witness check agrees with the Fraction one, condition by condition."""
    rng = random.Random(14)
    alone = set()
    for n, d in [(5, 3), (7, 3), (9, 4), (12, 5)]:
        result = lp_feasible(n, lp_critical_K(n, d), d)
        faults, A = _witness_faults(n, result.K, d, result.witness_B)
        assert not faults and result.witness_A == tuple(A)
    for _ in range(400):
        # d = 2: B_n is solved so that A_1 = 0 and K so that A_0 = 1,
        # then at most one condition is broken on purpose
        n, d = rng.randint(4, 10), 2
        B = [F(1), F(0)] + [_small(rng) if rng.random() < 0.6 else F(0) for _ in range(n - 2)]
        broken = rng.choice(["none", "B_0", "B", "B_1", "A_0", "A_1"])
        if broken == "B_0":
            B[0] = F(2)
        elif broken == "B":
            B[rng.randint(2, n - 1)] = -_small(rng) / 10
        elif broken == "B_1":
            B[1] = _small(rng)
        p1 = [3 * n - 4 * i for i in range(n + 1)]  # P_1(i)
        B.append(sum(b * p for b, p in zip(B, p1)) / n + (_small(rng) if broken == "A_1" else 0))
        K = sum(B) / F(2) ** n * (2 if broken == "A_0" else 1)
        faults, A = _witness_faults(n, K, d, B)
        assert bounds._EnumeratorLP(n, d, K).witness_A(K, B) == (None if faults else A)
        assert verify_lp_witness(n, K, d, B) == (not faults)
        if len(faults) < 2:
            alone.add(next(iter(faults), "none"))
    assert alone == {
        "none", "B_0 = 1", "B >= 0", "B = 0 below d", "A_0 = 1", "A = 0 below d", "A >= 0 from d"
    }


def test_lp_certificate_check_matches_fraction_reference():
    """The integer certificate check agrees with the Fraction one, condition by condition."""
    rng = random.Random(14)
    alone = set()
    for _ in range(300):
        n = rng.randint(4, 10)
        d = rng.randint(2, (n + 1) // 2)
        K = lp_critical_K(n, d) + _small(rng)
        y = list(lp_feasible(n, K, d).certificate)
        assert not _certificate_faults(n, K, d, y) and verify_lp_certificate(n, K, d, y)
        broken = rng.choice(["y", "f", "K"])
        if broken == "y":  # y_t < 0 for one t >= d, and y_0 lowered to keep f <= 0
            t = rng.randint(d, n)
            top = max(map(abs, krawtchouk_table(n)[t]))  # max |P_t(i)|
            eps = 1 / (4 * top * F(2) ** n * K)
            y[t] -= eps
            y[0] -= eps * top
        elif broken == "f":
            y[rng.randint(0, d - 1)] += _small(rng)
        else:
            K = krawtchouk_values(y, n)[0] / (y[0] * F(2) ** n) if y[0] else K
        faults = _certificate_faults(n, K, d, y)
        assert verify_lp_certificate(n, K, d, y) == (not faults)
        if len(faults) == 1:
            alone |= faults
    assert alone == {"y >= 0 from d", "f <= 0 from d", "f(0) < y_0 2^n K"}


# a wrong optimal x, a wrong objective, and objectives 1 and 2, which put the
# critical K, (1 - objective) / 2^n, at or below 0
PERTURBATIONS = ["x", "objective", "objective = 1", "objective = 2"]


def _perturb(sol, perturb):
    if perturb == "x":
        sol.x[0] += 1
    elif perturb == "objective":
        sol.objective -= 1
    else:
        sol.objective = F(perturb.rpartition(" ")[2])


@pytest.mark.parametrize("perturb", PERTURBATIONS)
def test_critical_K_refuses_a_wrong_optimum(monkeypatch, perturb):
    from qbounds import simplex

    solve = simplex.solve_lp

    def perturbed(c, A, b):
        sol = solve(c, A, b)
        _perturb(sol, perturb)
        return sol

    monkeypatch.setattr(simplex, "solve_lp", perturbed)
    with pytest.raises(InvariantError, match="critical-K witness"):
        lp_critical_K(7, 3)


@pytest.mark.parametrize("perturb", PERTURBATIONS)
def test_warm_critical_K_refuses_a_wrong_optimum(monkeypatch, perturb):
    from qbounds import simplex

    solve = simplex.solve_lp_then_free_row0

    def perturbed(c, A, b):
        feasibility, freed = solve(c, A, b)
        _perturb(freed, perturb)
        return feasibility, freed

    monkeypatch.setattr(simplex, "solve_lp_then_free_row0", perturbed)
    for K in (F(2), F(5)):  # feasible, then infeasible (the critical K is 24/5)
        with pytest.raises(InvariantError, match="critical-K witness"):
            lp_feasible_and_critical_K(7, K, 3)


def test_lp_feasible_and_critical_K_agree_with_separate_solves():
    """Exhaustive for n <= 12: one tableau gives what the two cold solves give,
    and the Fraction references find no fault in any witness or certificate."""
    for n in range(1, 13):
        for d in range(1, n + 1):
            critical = lp_critical_K(n, d)
            Ks = {F(1), F(3, 2), F(1, 2**n), F(2, 2**n), F(2**n), F(2) ** (n - 2 * d + 2)}
            if critical is not None:
                Ks |= {critical, critical + F(1, 64), critical - F(1, 64), critical / 2}
            for K in sorted(K for K in Ks if K > 0):
                result = lp_feasible(n, K, d)
                assert lp_feasible_and_critical_K(n, K, d) == (result, critical)
                if result.feasible:
                    faults, A = _witness_faults(n, K, d, result.witness_B)
                    assert not faults and result.witness_A == tuple(A)
                else:
                    assert not _certificate_faults(n, K, d, result.certificate)


@pytest.mark.parametrize("n, d", [(2, 2), (4, 3)])
def test_freed_normalization_row_pivots_on_its_own_column(monkeypatch, n, d):
    """Rows 1 .. d-1 imply row 0 here, so phase 1 leaves an artificial basic in
    a row that is zero on the original columns but not on row 0's.  Once row 0
    is freed that row must pivot on u or v; deleting it leaves u unbounded."""
    from qbounds import simplex

    nv = len(bounds._EnumeratorLP(n, d).rows[0])
    pivot, columns = simplex._Dictionary.pivot, []

    def recorded(dictionary, row, col):
        columns.append(dictionary.nonbasic[col])
        return pivot(dictionary, row, col)

    separate = (lp_feasible(n, 1, d), lp_critical_K(n, d))
    monkeypatch.setattr(simplex._Dictionary, "pivot", recorded)
    lp_feasible(n, 1, d)
    feasibility = columns[:]
    columns.clear()
    assert lp_feasible_and_critical_K(n, 1, d) == separate
    assert columns[:len(feasibility)] == feasibility
    assert {nv, nv + 1} & set(columns[len(feasibility):])


def test_lp_capacity_cap(monkeypatch):
    def refuse(*_):
        raise AssertionError("a Krawtchouk table was built")

    # the cap is checked before any table is built
    monkeypatch.setattr(bounds, "krawtchouk_table", refuse)
    n = LP_SIZE_CAP + 1
    for solve in (lambda: lp_feasible(n, 2, 3), lambda: lp_critical_K(n, 3),
                  lambda: lp_feasible_and_critical_K(n, 2, 3)):
        with pytest.raises(CapacityError, match=f"n={n} exceeds the exact-LP cap"):
            solve()
    with pytest.raises(ParameterError):
        lp_feasible(5, 0, 3)


# (n, K, d) outside the LP's domain and the line lp_feasible refuses it with;
# K is checked before d
OUT_OF_DOMAIN = [
    (5, 1, 9, "need 1 <= d <= n, got d=9, n=5"),
    (5, 1, 6, "need 1 <= d <= n, got d=6, n=5"),
    (5, 1, 0, "need 1 <= d <= n, got d=0, n=5"),
    (5, 0, 3, "K must be positive, got 0"),
    (5, -1, 3, "K must be positive, got -1"),
    (5, F(-1, 3), 3, "K must be positive, got -1/3"),
    (5, 0, 9, "K must be positive, got 0"),
    (LP_SIZE_CAP + 1, 1, LP_SIZE_CAP + 2, f"need 1 <= d <= n, got d={LP_SIZE_CAP + 2}"),
]


@pytest.mark.parametrize("n, K, d, message", OUT_OF_DOMAIN)
def test_verifiers_refuse_what_lp_feasible_refuses(n, K, d, message):
    for solve in (lp_feasible, lp_feasible_and_critical_K):
        with pytest.raises(ParameterError, match=re.escape(message)):
            solve(n, K, d)
    one = (1,) + (0,) * n
    for verify, vector in [
        (verify_lp_witness, one),
        (verify_lp_certificate, one),
        (verify_lp_certificate, (-1,) + (0,) * n),
    ]:
        with pytest.raises(ParameterError, match=re.escape(message)):
            verify(n, K, d, vector)


def test_verifiers_skip_the_lp_size_cap():
    # no solve runs, so the verifiers check inputs past LP_SIZE_CAP
    n = LP_SIZE_CAP + 1
    # B = (1, 0, .., 0) is the trivial code's distribution at K = 2^-n, d = 1
    assert verify_lp_witness(n, F(1, 2**n), 1, (1,) + (0,) * n)
    # y = (-1, 0, .., 0) excludes every K below 2^-n
    assert verify_lp_certificate(n, F(1, 2 ** (n + 1)), 3, (-1,) + (0,) * n)
    assert not verify_lp_certificate(n, F(1, 2**n), 3, (-1,) + (0,) * n)


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
            # every l: j restricted coordinates among the i nonzero ones
            for l in range(n + 1):
                assert mixed_hamming_ball(l, n, e) == sum(
                    binomial(l, j) * 3 ** (i - j) * binomial(n - l, i - j)
                    for i in range(e + 1)
                    for j in range(i + 1)
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
