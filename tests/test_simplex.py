"""Fraction-free simplex against the Fraction-tableau oracle it replaced.

Both follow Bland's rule on the same LP, so they must take the same pivots,
as (entering, leaving) variable ids, and agree exactly on status, x,
objective and Farkas vector, not merely on the optimum value.  The
continuation ``solve_lp_then_free_row0`` leaves the oracle's path after its
feasibility solve, so its second LP is held to the oracle's status and
optimum, and its x and Farkas vector are checked directly.
"""

import contextlib
import copy
import io
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import simplex_oracle
from qbounds import bounds, simplex
from qbounds.bounds import lp_critical_K, lp_feasible, lp_feasible_and_critical_K
from qbounds.errors import InvariantError

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def outcome(sol):
    return sol.status, sol.x, sol.objective, sol.farkas


@contextlib.contextmanager
def pivot_paths():
    """Record each solver's pivots as (entering, leaving) variable ids."""
    paths = {"simplex": [], "oracle": []}
    pivot, oracle_pivot = simplex._Dictionary.pivot, simplex_oracle._pivot

    def recorded(dictionary, row, col):
        paths["simplex"].append((dictionary.nonbasic[col], dictionary.basis[row]))
        return pivot(dictionary, row, col)

    def oracle_recorded(tableau, red, basis, row, col):
        paths["oracle"].append((col, basis[row]))
        return oracle_pivot(tableau, red, basis, row, col)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Dictionary, "pivot", recorded)
        patch.setattr(simplex_oracle, "_pivot", oracle_recorded)
        yield paths


# the defaults bind the solvers themselves, which the enumerator test patches over
def check_solve(c, A, b, solve_lp=simplex.solve_lp):
    """solve_lp's result, once its pivots and outcome match the oracle's."""
    with pivot_paths() as paths:
        sol = solve_lp(c, A, b)
        want = simplex_oracle.solve_lp(c, A, b)
    assert paths["simplex"] == paths["oracle"]
    assert outcome(sol) == outcome(want)
    return sol


def check_solve_then_free(c, A, b, solve_then_free=simplex.solve_lp_then_free_row0):
    """The continuation's two results, once its feasibility pivots match the oracle's."""
    with pivot_paths() as paths:
        results = solve_then_free(c, A, b)
        simplex_oracle.solve_lp([0] * len(c), A, b)
    assert paths["simplex"][:len(paths["oracle"])] == paths["oracle"]
    check_continuation(c, A, b, *results)
    return results


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
    statuses = []

    def checked(c, A, b):
        sol = check_solve(c, A, b)
        statuses.append(sol.status)
        return sol

    def checked_then_free(c, A, b):
        feasibility, freed = check_solve_then_free(c, A, b)
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


NONZERO = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-2, 3)])


@st.composite
def unit_lps(draw):
    """An lps() LP with unit columns appended: one nonzero each, often several on one row."""
    c, A, b = draw(lps())
    rows = st.one_of(st.just(0), st.integers(0, len(A) - 1))
    for t in draw(st.lists(rows, min_size=1, max_size=3)):
        v = draw(NONZERO)
        for i, row in enumerate(A):
            row.append(v if i == t else F(0))
        c.append(draw(ENTRY))
    return c, A, b


# Each reaches the four UNIT_EVENTS in both entry points, has a row flipped by
# a negative b, and has fractional entries, so L_A > 1.
UNIT_EXAMPLES = [
    # two unit columns on row 0, and column 1 one on row 1
    ([F(1, 2)] * 4,
     [[F(-1), F(0), F(1, 2), F(-1)], [F(1, 2), F(1, 2), F(0), F(0)], [F(-2), F(0), F(0), F(0)]],
     [F(-1), F(1, 2), F(-2)]),
    # row 2 repeats row 0, a redundant row; columns 0, 2 and 3 are unit columns on row 1
    ([F(-1), F(1, 2), F(-1), F(-1)],
     [[F(0), F(-2, 3), F(0), F(0)], [F(2), F(2), F(2), F(1)], [F(0), F(2, 3), F(0), F(0)]],
     [F(-2, 3), F(2), F(2, 3)]),
]
UNIT_EVENTS = {"enters, artificial basic", "enters, artificial nonbasic", "leaves", "driven in"}


def with_unit_examples(test):
    for lp in UNIT_EXAMPLES:
        test = example(lp)(test)
    return test


@contextlib.contextmanager
def unit_events():
    """Record which of UNIT_EVENTS the pivots of the solves inside reach."""
    events = set()
    pivot, run = simplex._Dictionary.pivot, simplex._Dictionary.run
    running = []

    def recorded(dictionary, row, col):
        entering, leaving = dictionary.nonbasic[col], dictionary.basis[row]
        if entering in dictionary.unit:
            basic = dictionary.unit[entering][0] in dictionary.basis
            events.add("enters, artificial basic" if basic else "enters, artificial nonbasic")
            if not running:  # a pivot outside Bland's rule is the drive-out's
                events.add("driven in")
        if leaving in dictionary.unit:
            events.add("leaves")
        return pivot(dictionary, row, col)

    def recorded_run(dictionary, cost):
        running.append(True)
        try:
            return run(dictionary, cost)
        finally:
            running.pop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Dictionary, "pivot", recorded)
        patch.setattr(simplex._Dictionary, "run", recorded_run)
        yield events


@pytest.mark.parametrize("solve", [simplex.solve_lp, simplex.solve_lp_then_free_row0])
@pytest.mark.parametrize("lp", UNIT_EXAMPLES)
def test_unit_examples_reach_every_event(solve, lp):
    with unit_events() as events:
        solve(*lp)
    assert events == UNIT_EVENTS


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.one_of(lps(), unit_lps()))
@with_unit_examples
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
    sol = check_solve(c, A, b)
    if sol.status == "optimal":
        assert all(v >= 0 for v in sol.x)
        assert all(sum(a * v for a, v in zip(row, sol.x)) == bi for row, bi in zip(A, b))
    elif sol.status == "infeasible":
        y = sol.farkas
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(len(c)))
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.one_of(lps(), unit_lps()))
@with_unit_examples
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
    check_solve_then_free(c, A, b)


def check_inputs_unchanged(c, A, b):
    """Both entry points leave c, A and b as they found them."""
    before = copy.deepcopy((c, A, b))
    simplex.solve_lp(c, A, b)
    simplex.solve_lp_then_free_row0(c, A, b)
    assert (c, A, b) == before


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(lps(), unit_lps()))
@with_unit_examples
def test_solvers_leave_random_inputs_unchanged(lp):
    check_inputs_unchanged(*lp)


def test_solvers_leave_enumerator_rows_unchanged():
    # the continuation inserts v's column into every dictionary row, never into A's
    for n in range(1, 11):
        for d in range(1, n + 1):
            lp = bounds._EnumeratorLP(n, d, F(3, 2))
            check_inputs_unchanged(lp.max_sum_B, lp.rows, lp.rhs)


def dictionary_states(solve, lp, store_all):
    """Each pivot's basis, d, right-hand sides and every nonbasic column with its reduced cost.

    A hidden column is read off its artificial's.  With ``store_all`` the
    unit columns are stored from the start, as f e_t, and never hidden.
    """
    states = []
    pivot, start = simplex._Dictionary.pivot, simplex._Dictionary.phase1_start

    def recorded(dictionary, row, col):
        columns = {
            var: [tr[k] for tr in dictionary.rows] + [dictionary.red[k]]
            for k, var in enumerate(dictionary.nonbasic)
        }
        for var in dictionary.hidden:
            column, red = dictionary._unit_column(var)
            columns[var] = column + [red]
        rhs = [tr[-1] for tr in dictionary.rows]
        states.append((dictionary.basis[row], list(dictionary.basis), dictionary.d, rhs, columns))
        return pivot(dictionary, row, col)

    def stored(A, b, nv):
        dictionary = start(A, b, nv)
        for var, (a, f) in dictionary.hidden.items():
            for i, tr in enumerate(dictionary.rows):
                tr.insert(-1, f if i == a - nv else 0)
            dictionary.nonbasic.append(var)
        dictionary.unit, dictionary.hidden = {}, {}
        return dictionary

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Dictionary, "pivot", recorded)
        if store_all:
            patch.setattr(simplex._Dictionary, "phase1_start", stored)
        results = solve(*lp)
    return states, results


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(unit_lps())
@with_unit_examples
def test_hidden_columns_match_stored_columns(lp):
    # the columns stay proportional through every pivot, the continuation's included
    for solve in (simplex.solve_lp, simplex.solve_lp_then_free_row0):
        assert dictionary_states(solve, lp, False) == dictionary_states(solve, lp, True)


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerator_surpluses_start_hidden(n):
    # every surplus has one nonzero, so phase 1 stores only the nb columns of B_d .. B_n
    for d in range(1, n + 1):
        lp = bounds._EnumeratorLP(n, d)
        dictionary = simplex._Dictionary.phase1_start(lp.rows, lp.rhs, len(lp.rows[0]))
        assert {len(row) for row in dictionary.rows} == {lp.nb + 1}
        assert sorted(dictionary.hidden) == list(range(lp.nb, len(lp.rows[0])))


def test_phase2_refuses_an_artificial_left_nonzero():
    # x_0 + a_0 = 1 with x_0 nonbasic and the artificial a_0 still basic at level 1
    with pytest.raises(InvariantError, match="nonzero level"):
        simplex._Dictionary.phase1_start([[1]], [1], 1).phase2([F(1)])


def run_seed_1_lp_grid_batch(monkeypatch):
    """The pivots of the benchmark's seed-1 lp_grid ops, and the cells each one updates."""
    # the op list is read and executed here so nothing is written under bench/
    workloads = types.ModuleType("bench_workloads")
    monkeypatch.setitem(sys.modules, workloads.__name__, workloads)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), workloads.__dict__)
    from qbounds.cli import main

    cells = []
    pivot = simplex._Dictionary.pivot

    def counted(dictionary, row, col):
        # every row but the pivot row, and the reduced-cost row, each as wide as red
        cells.append(len(dictionary.rows) * len(dictionary.red))
        return pivot(dictionary, row, col)

    monkeypatch.setattr(simplex._Dictionary, "pivot", counted)
    with pivot_paths() as paths, contextlib.redirect_stdout(io.StringIO()):
        statuses = {main(op.argv) for op in workloads.lp_grid(1).ops}
    assert statuses == {0}
    return paths["simplex"], cells


def test_seed_1_lp_grid_batch_makes_1734_pivots(monkeypatch):
    pivots, _ = run_seed_1_lp_grid_batch(monkeypatch)
    assert len(pivots) == 1734


def test_seed_1_lp_grid_batch_updates_208373_cells(monkeypatch):
    # 322,619 when every surplus column is stored
    _, cells = run_seed_1_lp_grid_batch(monkeypatch)
    assert len(cells) == 1734 and sum(cells) == 208_373
