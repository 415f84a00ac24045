"""Asymptotic curves: entropy pair, endpoints, monotonicity, plug-ins."""

import math

import pytest

from qbounds import asymptotic
from qbounds.asymptotic import (
    curve_hamming_degenerate,
    curve_nondeg_general,
    curve_stabilizer,
    entropy_q,
    first_lp_bound,
    gamma_q,
    generate_curve,
    load_classical_bound_csv,
    solve_monotone,
    tabulated_bound,
)
from qbounds.errors import ParameterError, SolverError

TOL = 1e-3


def test_entropy_endpoints():
    assert entropy_q(0.0, 4) == 0.0
    assert entropy_q(0.75, 4) == pytest.approx(1.0, abs=1e-12)
    assert entropy_q(0.5, 2) == pytest.approx(1.0, abs=1e-12)
    assert entropy_q(1.0, 4) == pytest.approx(math.log(3) / math.log(4), abs=1e-12)


def _entropy_uncached(x, q):
    """H_q(x) with both logarithms taken on every call, in entropy_q's float order."""
    logq = math.log(q)
    total = x * math.log(q - 1) / logq
    if 0.0 < x:
        total -= x * math.log(x) / logq
    if x < 1.0:
        total -= (1.0 - x) * math.log(1.0 - x) / logq
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_entropy_matches_uncached_formula_bit_for_bit(q):
    grid = [i / 1000 for i in range(1001)] + [1e-300, 0.75, 1.0 - 1e-16]
    assert [entropy_q(x, q) for x in grid] == [_entropy_uncached(x, q) for x in grid]


def _gamma_uncached(x, q):
    """gamma_q(x) with q - 1 and q - 2 formed on every call, in gamma_q's float order."""
    return (q - 1 - (q - 2) * x - 2.0 * math.sqrt((q - 1) * x * (1.0 - x))) / q


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gamma_matches_uncached_formula_bit_for_bit(q):
    grid = [i / 1000 for i in range(1001)] + [1e-300, 0.75, 1.0 - 1e-16]
    assert [gamma_q(x, q) for x in grid] == [_gamma_uncached(x, q) for x in grid]


def test_entropy_log_cache_is_bounded():
    info = asymptotic._kernels.cache_info()
    assert info.maxsize is not None
    for q in range(2, 4 * info.maxsize):
        assert entropy_q(0.3, q) == _entropy_uncached(0.3, q)
        assert gamma_q(0.3, q) == _gamma_uncached(0.3, q)
    assert asymptotic._kernels.cache_info().currsize <= info.maxsize
    # an evicted q is computed again to the same bits
    assert entropy_q(0.3, 2) == _entropy_uncached(0.3, 2)
    assert gamma_q(0.3, 2) == _gamma_uncached(0.3, 2)


@pytest.mark.parametrize("q", [2, 4])
def test_first_lp_bound_is_entropy_of_gamma(q):
    bound = first_lp_bound(q)
    top = (q - 1) / q
    for i in range(1001):
        delta = i / 1000
        if delta <= 0.0:
            assert bound(delta) == 1.0
        elif delta >= top:
            assert bound(delta) == 0.0
        else:
            assert bound(delta) == entropy_q(gamma_q(delta, q), q)
    with pytest.raises(ParameterError):
        first_lp_bound(1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_first_lp_bound_is_never_negative_below_its_end(q):
    """Rounding leaves gamma a few ulps below 0 just under (q-1)/q for q = 3 and 5."""
    bound = first_lp_bound(q)
    delta = (q - 1) / q
    for _ in range(10_000):
        delta = math.nextafter(delta, 0.0)
        assert bound(delta) >= 0.0, delta


def test_gamma_endpoints():
    assert gamma_q(0.0, 4) == pytest.approx(0.75, abs=1e-12)
    assert gamma_q(0.75, 4) == pytest.approx(0.0, abs=1e-12)
    assert gamma_q(0.5, 2) == pytest.approx(0.0, abs=1e-12)
    # gamma_2(x) = 1/2 - sqrt(x (1-x))
    assert gamma_q(0.1, 2) == pytest.approx(0.5 - math.sqrt(0.09), abs=1e-12)


def test_gamma_is_decreasing_involution():
    for i in range(1, 30):
        x = 0.75 * i / 30
        assert gamma_q(gamma_q(x, 4), 4) == pytest.approx(x, abs=1e-9)
    values = [gamma_q(0.75 * i / 50, 4) for i in range(51)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_domain_errors():
    with pytest.raises(ParameterError):
        entropy_q(-0.1, 4)
    with pytest.raises(ParameterError):
        gamma_q(1.2, 4)


def test_solve_monotone():
    assert solve_monotone(lambda x: x, 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)
    x = solve_monotone(lambda t: entropy_q(t, 4), 0.5, 1e-12, 0.75)
    assert gamma_q(x, 4) == pytest.approx(0.31610, abs=TOL)
    delta = solve_monotone(lambda t: entropy_q(gamma_q(t, 4), 4), 0.5, 1e-9, 0.75)
    assert delta == pytest.approx(0.31610, abs=TOL)
    with pytest.raises(SolverError):
        solve_monotone(lambda x: x, 5.0, 0.0, 1.0)


def test_curve_nondeg_general_endpoints():
    points = curve_nondeg_general(samples=200)
    assert points[0].delta == 0.0 and points[0].rate == pytest.approx(1.0, abs=1e-9)
    assert points[-1].rate == pytest.approx(0.0, abs=1e-6)
    assert points[-1].delta == pytest.approx(0.316, abs=TOL)


def test_curve_e_endpoint():
    points = curve_stabilizer("E", samples=200)
    assert points[0].rate == pytest.approx(1.0, abs=1e-9)
    assert points[-1].rate == pytest.approx(0.0, abs=1e-6)
    assert points[-1].delta == pytest.approx(0.375, abs=TOL)


def test_curve_d_endpoint_with_binary_standin():
    # the binary [n+k, 2k] reduction at rate 0 runs out where the binary
    # stand-in rate hits zero: delta -> 1/2
    points = curve_stabilizer("D", samples=200)
    assert points[-1].rate == pytest.approx(0.0, abs=1e-6)
    assert points[-1].delta == pytest.approx(0.5, abs=TOL)


def test_curve_a_endpoint_matches_composed_solve():
    points = curve_stabilizer("A", samples=200)
    assert points[-1].rate == pytest.approx(0.0, abs=1e-6)
    assert points[-1].delta == pytest.approx(0.31610, abs=TOL)


def _curve_a_per_step(bound, samples):
    """Curve A with R(delta) evaluated at every bisection step, as a reference."""
    def rate_at(delta):
        def feasible(lam):
            return (1.0 + lam) / 2.0 - bound(delta) <= 0.0

        if not feasible(0.0):
            return -1.0
        if feasible(1.0):
            return 1.0
        return asymptotic._bisect(feasible, 0.0, 1.0)[0]

    def clears(delta):
        return rate_at(delta) > asymptotic.TOL

    delta_end = 1.0 if clears(1.0) else asymptotic._bisect(clears, 0.0, 1.0)[0]
    points = []
    for delta in asymptotic._grid(0.0, delta_end, samples):
        rate = rate_at(delta)
        if rate >= 0.0:
            points.append(asymptotic.CurvePoint(delta, min(1.0, rate)))
    return points


@pytest.mark.parametrize("csv", [False, True])
def test_curve_a_per_delta_constraint_matches_per_step(tmp_path, csv):
    if csv:
        table = tmp_path / "classical.csv"
        table.write_text(
            "delta,rate\n0.0,1.0\n0.1,0.72\n0.2,0.45\n0.3,0.21\n0.45,0.04\n0.6,0.0\n",
            encoding="utf-8",
        )
        bound = load_classical_bound_csv(str(table))
    else:
        bound = first_lp_bound(4)
    calls = []

    def counted(delta):
        calls.append(delta)
        return bound(delta)

    for samples in (2, 17, 333):
        calls.clear()
        assert curve_stabilizer("A", counted, samples=samples) == _curve_a_per_step(bound, samples)
        # once per sample and once per end-of-support probe: 31 probes on [0, 1]
        assert len(calls) <= samples + 31
    constraint, floor = asymptotic._stabilizer_constraint("A", bound, 0.0)
    for i in range(101):
        delta = i / 100
        feasible = constraint(delta)
        for lam in (0.0, 0.25, 0.5, 1.0):
            assert feasible(lam) is ((1.0 + lam) / 2.0 - bound(delta) <= 0.0)
    assert floor == 0.0


def test_kernels_see_only_their_domain(monkeypatch, tmp_path):
    """The unchecked kernels get arguments in [0, 1] on every curve."""
    kernels = asymptotic._kernels
    seen = {"entropy": [], "gamma": []}

    def recording(q):
        def wrap(name, fn):
            def recorded(x):
                seen[name].append(x)
                return fn(x)

            return recorded

        entropy, gamma = kernels(q)
        return wrap("entropy", entropy), wrap("gamma", gamma)

    monkeypatch.setattr(asymptotic, "_kernels", recording)
    table = tmp_path / "classical.csv"
    table.write_text("delta,rate\n0.0,1.0\n0.2,0.45\n0.6,0.0\n", encoding="utf-8")
    for curve_id in asymptotic.CURVE_IDS:
        for kappa1 in (0.0, 0.4, 1.0) if curve_id == "fig2" else (0.0,):
            for csv in (None, str(table)):
                points, _ = generate_curve(curve_id, 65, kappa1, csv)
                assert points
    assert seen["entropy"] and seen["gamma"]
    assert all(0.0 <= x <= 1.0 for xs in seen.values() for x in xs)


@pytest.mark.parametrize("curve_id", ["E", "A", "D", "B", "hamming-degenerate"])
def test_nonzero_kappa1_is_refused_outside_fig2(curve_id):
    with pytest.raises(ParameterError, match="fig2 only"):
        generate_curve(curve_id, 17, 0.3)
    with pytest.raises(ParameterError, match="fig2 only"):
        generate_curve(curve_id, 17, 0.7)
    if curve_id in ("E", "A", "D"):
        with pytest.raises(ParameterError, match="fig2 only"):
            curve_stabilizer(curve_id, kappa1=0.3, samples=17)
        assert curve_stabilizer(curve_id, kappa1=0.0, samples=17) == curve_stabilizer(
            curve_id, samples=17
        )
    assert generate_curve(curve_id, 17, 0.0) == generate_curve(curve_id, 17)


def test_fig2_zero_kappa_collapses_to_curve_e():
    e_points = curve_stabilizer("E", samples=120)
    f_points = curve_stabilizer("fig2", kappa1=0.0, samples=120)
    assert len(e_points) == len(f_points)
    for a, b in zip(e_points, f_points):
        assert a.delta == pytest.approx(b.delta, abs=1e-9)
        assert a.rate == pytest.approx(b.rate, abs=1e-9)


def test_fig2_family_respects_rate_floor():
    for kappa1 in (0.2, 0.5):
        points = curve_stabilizer("fig2", kappa1=kappa1, samples=100)
        assert all(p.rate >= kappa1 / 2 - 1e-9 for p in points)
        assert points[-1].rate == pytest.approx(kappa1 / 2, abs=1e-6)


def test_curves_nonincreasing():
    for points in (
        curve_nondeg_general(120),
        curve_stabilizer("A", samples=120),
        curve_stabilizer("D", samples=120),
        curve_stabilizer("E", samples=120),
        curve_stabilizer("fig2", kappa1=0.3, samples=120),
        curve_hamming_degenerate(120),
    ):
        assert all(b.rate <= a.rate + 1e-12 for a, b in zip(points, points[1:]))


def test_curves_reproducible():
    first = curve_stabilizer("E", samples=64)
    second = curve_stabilizer("E", samples=64)
    assert first == second


def test_curve_point_is_a_read_only_delta_rate_pair():
    point = curve_stabilizer("E", samples=17)[3]
    delta, rate = point
    assert (delta, rate) == (point.delta, point.rate)
    assert asymptotic.CurvePoint(0.25, 0.5).delta == 0.25
    assert asymptotic.CurvePoint(delta=0.25, rate=0.5).rate == 0.5
    for field in ("delta", "rate"):
        with pytest.raises(AttributeError):
            setattr(point, field, 0.0)


def test_hamming_degenerate_limits_and_crosscheck():
    points = curve_hamming_degenerate(751)
    assert points[0].rate == pytest.approx(1.0, abs=1e-6)
    assert points[-1].delta == pytest.approx(0.75, abs=1e-9)
    assert points[-1].rate == pytest.approx(0.0, abs=1e-6)
    # independent fixed-point iteration at delta = 0.2
    lam = 0.5
    for _ in range(300):
        h = entropy_q(0.2 / (1.0 + lam), 4)
        lam = (1.0 - h) / (1.0 + h)
    sample = next(p for p in points if abs(p.delta - 0.2) < 1e-9)
    assert sample.rate == pytest.approx(lam, abs=1e-9)


def test_tabulated_bound_interpolation_and_validation():
    bound = tabulated_bound([(0.0, 1.0), (0.5, 0.5), (0.75, 0.0)])
    assert bound(0.25) == pytest.approx(0.75)
    assert bound(-1.0) == 1.0 and bound(2.0) == 0.0
    with pytest.raises(ParameterError):
        tabulated_bound([(0.0, 1.0)])
    with pytest.raises(ParameterError):
        tabulated_bound([(0.0, 1.0), (0.0, 0.5)])
    with pytest.raises(ParameterError):
        tabulated_bound([(0.0, 0.5), (0.5, 0.9)])
    # tables that pass the order checks but hold NaN, an infinity or a value outside [0, 1]
    for table in (
        [(0.0, 1.0), (0.3, math.nan), (0.6, 0.0)],
        [(0.0, 1.0), (math.nan, 0.5)],
        [(0.0, math.inf), (0.5, 0.0)],
        [(0.0, 1.0), (0.5, -math.inf)],
        [(-math.inf, 1.0), (0.5, 0.0)],
        [(0.0, 1.0), (math.inf, 0.0)],
        [(0.0, 1.5), (0.5, 0.0)],
        [(-0.25, 1.0), (0.5, 0.0)],
    ):
        with pytest.raises(ParameterError, match=r"^every delta and rate must be a number in \[0, 1\]$"):
            tabulated_bound(table)

    # a long table gives, at every knot and midpoint, the float that a
    # linear scan for the first interval holding delta gives
    deltas = [i / 2000 for i in range(2001)]
    rates = [(1.0 - x) ** 2 for x in deltas]
    long_bound = tabulated_bound(list(zip(deltas, rates)))

    def scanned(delta):
        if delta <= deltas[0]:
            return rates[0]
        if delta >= deltas[-1]:
            return rates[-1]
        i = next(i for i in range(2000) if deltas[i] <= delta <= deltas[i + 1])
        t = (delta - deltas[i]) / (deltas[i + 1] - deltas[i])
        return rates[i] + t * (rates[i + 1] - rates[i])

    probes = deltas + [(a + b) / 2 for a, b in zip(deltas, deltas[1:])]
    assert [long_bound(x) for x in probes] == [scanned(x) for x in probes]


def test_csv_plugin_round_trip(tmp_path):
    table = tmp_path / "classical.csv"
    rows = ["delta,rate"]
    bound = first_lp_bound(4)
    for i in range(76):
        delta = 0.01 * i
        rows.append(f"{delta},{bound(delta)}")
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    loaded = load_classical_bound_csv(str(table))
    points = curve_stabilizer("E", classical_bound=loaded, samples=50)
    builtin = curve_stabilizer("E", samples=50)
    assert points[-1].delta == pytest.approx(builtin[-1].delta, abs=5e-3)


def test_csv_plugin_requires_header(tmp_path):
    table = tmp_path / "broken.csv"
    table.write_text("0.0,1.0\n0.5,0.2\n", encoding="utf-8")
    with pytest.raises(ParameterError):
        load_classical_bound_csv(str(table))


def test_generate_curve_metadata():
    _, meta = generate_curve("A", samples=16)
    joined = "\n".join(meta)
    assert "0.308" in joined and "stand-in" in joined
    _, meta = generate_curve("B", samples=16)
    assert any("normalization" in line for line in meta)
    with pytest.raises(ParameterError):
        generate_curve("Z", samples=16)
