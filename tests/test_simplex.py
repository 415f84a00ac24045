"""Fraction-free simplex against the Fraction-tableau oracle it replaced.

Both follow Bland's rule on the same tableau, so they must agree exactly on
status, x, objective and Farkas vector, not merely on the optimum value.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import simplex_oracle
from qbounds import simplex
from qbounds.bounds import lp_critical_K, lp_feasible


def outcome(sol):
    return sol.status, sol.x, sol.objective, sol.farkas


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerator_lps_match_oracle(monkeypatch, n):
    solve = simplex.solve_lp
    statuses = []

    def checked(c, A, b):
        sol = solve(c, A, b)
        assert outcome(sol) == outcome(simplex_oracle.solve_lp(c, A, b))
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(simplex, "solve_lp", checked)
    for d in range(1, n + 1):
        critical = lp_critical_K(n, d)
        Ks = {F(1), F(3, 2), F(2) ** (n - 2 * d + 2)}  # the last is the Singleton ceiling
        if critical is not None:
            Ks |= {critical, critical + F(1, 16)}
        for K in sorted(Ks):
            lp_feasible(n, K, d)
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
