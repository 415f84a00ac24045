"""Fraction-free simplex against the Fraction-tableau oracle it replaced.

Both follow Bland's rule on the same tableau, so they must agree exactly on
status, x, objective and Farkas vector, not merely on the optimum value.
The continuation ``solve_lp_then_free_row0`` leaves the oracle's path
after its feasibility solve, so its second LP is held to the oracle's
status and optimum, and its x and Farkas vector are checked directly.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import simplex_oracle
from qbounds import simplex
from qbounds.bounds import lp_critical_K, lp_feasible, lp_feasible_and_critical_K
from qbounds.errors import InvariantError


def outcome(sol):
    return sol.status, sol.x, sol.objective, sol.farkas


def check_continuation(c, A, b, feasibility, freed):
    """The continuation's two results against the oracle and the constraints."""
    assert outcome(feasibility) == outcome(simplex_oracle.solve_lp([0] * len(c), A, b))
    want = simplex_oracle.solve_lp(c, A[1:], b[1:])
    assert (freed.status, freed.objective) == (want.status, want.objective)
    if freed.status == "optimal":
        assert all(v >= 0 for v in freed.x)
        assert all(sum(a * v for a, v in zip(row, freed.x)) == bi for row, bi in zip(A[1:], b[1:]))
    elif freed.status == "infeasible":
        y = freed.farkas
        assert len(y) == len(A) - 1
        assert all(sum(yi * row[j] for yi, row in zip(y, A[1:])) <= 0 for j in range(len(c)))
        assert sum(yi * bi for yi, bi in zip(y, b[1:])) > 0


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerator_lps_match_oracle(monkeypatch, n):
    solve = simplex.solve_lp
    solve_then_free = simplex.solve_lp_then_free_row0
    statuses = []

    def checked(c, A, b):
        sol = solve(c, A, b)
        assert outcome(sol) == outcome(simplex_oracle.solve_lp(c, A, b))
        statuses.append(sol.status)
        return sol

    def checked_then_free(c, A, b):
        feasibility, freed = solve_then_free(c, A, b)
        check_continuation(c, A, b, feasibility, freed)
        statuses.append(feasibility.status)
        return feasibility, freed

    monkeypatch.setattr(simplex, "solve_lp", checked)
    monkeypatch.setattr(simplex, "solve_lp_then_free_row0", checked_then_free)
    for d in range(1, n + 1):
        critical = lp_critical_K(n, d)
        Ks = {F(1), F(3, 2), F(2) ** (n - 2 * d + 2)}  # the last is the Singleton ceiling
        if critical is not None:
            Ks |= {critical, critical + F(1, 16)}
        for K in sorted(Ks):
            lp_feasible(n, K, d)
            lp_feasible_and_critical_K(n, K, d)
    assert {"optimal", "infeasible"} <= set(statuses)


# few distinct small values, so ties, zero levels and degenerate pivots are common
SMALL = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3)])
ENTRY = st.one_of(SMALL, st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def lps(draw):
    m = draw(st.integers(1, 4))
    nv = draw(st.integers(1, 5))
    A = [draw(st.lists(ENTRY, min_size=nv, max_size=nv)) for _ in range(m)]
    if draw(st.booleans()):
        b = draw(st.lists(ENTRY, min_size=m, max_size=m))
    else:  # b = A x0 for some x0 >= 0 with zeros: feasible and often degenerate
        x0 = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3)]),
                           min_size=nv, max_size=nv))
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    # multiples of earlier rows (zero rows included) leave redundant rows behind
    for i, k in draw(st.lists(st.tuples(st.integers(0, m - 1), SMALL), max_size=2)):
        A.append([k * v for v in A[i]])
        b.append(k * b[i])
    c = draw(st.lists(ENTRY, min_size=nv, max_size=nv))
    return c, A, b


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(lps())
# a zero-level artificial driven out on a negative pivot, then phase 2
@example(([F(-1), F(1)], [[F(1), F(1)], [F(-1), F(2)]], [F(0), F(0)]))
# a repeated row: its artificial stays at zero level in an all-zero row and is deleted
@example(([F(1), F(1)], [[F(1), F(2)], [F(1), F(2)]], [F(3), F(3)]))
# integer rows with a rational right-hand side: only b carries its denominator
@example(([F(1), F(-1)], [[F(1), F(2)], [F(3), F(1)]], [F(1, 3), F(2, 3)]))
# infeasible, and unbounded
@example(([F(0)], [[F(1)], [F(2)]], [F(1), F(1)]))
@example(([F(-1), F(0)], [[F(1), F(-1)]], [F(1)]))
def test_random_lps_match_oracle(lp):
    c, A, b = lp
    sol = simplex.solve_lp(c, A, b)
    assert outcome(sol) == outcome(simplex_oracle.solve_lp(c, A, b))
    if sol.status == "optimal":
        assert all(v >= 0 for v in sol.x)
        assert all(sum(a * v for a, v in zip(row, sol.x)) == bi for row, bi in zip(A, b))
    elif sol.status == "infeasible":
        y = sol.farkas
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(len(c)))
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(lps())
# row 1 repeats row 0: after phase 1 its artificial is basic in a row whose
# original columns are all zero but whose row-0 columns are not; freeing
# row 0 must pivot there on u or v, as deleting the row leaves u unbounded
@example(([F(-1), F(0)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)]))
# m = 1: nothing is left once row 0 is free
@example(([F(1), F(2)], [[F(1), F(-1)]], [F(2)]))
@example(([F(-1), F(2)], [[F(1), F(-1)]], [F(2)]))
# infeasible at row 0 only, then infeasible in rows 1 and up as well
@example(([F(-1), F(0)], [[F(1), F(1)], [F(1), F(0)]], [F(-1), F(2)]))
@example(([F(0), F(0)], [[F(1), F(1)], [F(1), F(1)], [F(1), F(1)]], [F(1), F(2), F(3)]))
def test_continuation_matches_oracle(lp):
    c, A, b = lp
    check_continuation(c, A, b, *simplex.solve_lp_then_free_row0(c, A, b))


def test_phase2_refuses_an_artificial_left_nonzero():
    # x_0 + a_0 = 1 with the artificial a_0 still basic at level 1
    with pytest.raises(InvariantError, match="nonzero level"):
        simplex._phase2([[1, 1, 1]], [1], 1, [F(1)], 1, 1)
