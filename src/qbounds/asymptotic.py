"""Asymptotic rate-distance curves for quantum codes.

This is the only floating-point module in the package.  Rates are
lambda = k/n, relative distances delta = d/n.  Curves are produced by
combining the q-ary entropy H_q with its companion change of variable

    gamma_q(x) = (1/q) (q - 1 - (q - 2) x - 2 sqrt((q-1) x (1-x))),

a decreasing involution of [0, (q-1)/q].  The built-in classical rate
bound is the first linear-programming bound R(delta) <= H_q(gamma_q(delta))
(zero beyond delta = (q-1)/q); any classical bound can be substituted via
a (delta, rate) table, so stronger published curves slot in without code
changes.

Curve ids follow the command-line surface:

    A  nondegenerate stabilizer codes via a length-n quaternary code,
       constraint (1 + lambda)/2 <= R4(delta)
    B  nondegenerate codes, parametric lambda = 2 H4(x) - 1, delta = gamma4(x)
    D  any stabilizer code via a binary [n+k, 2k] reduction,
       constraint 2 lambda/(1+lambda) <= R2(delta/(1+lambda))
    E  stabilizer codes with k1 = 0 via a quaternary [(n+k)/2, 2k] reduction,
       constraint 2 lambda/(1+lambda) <= R4(2 delta/(1+lambda)): fig2 at kappa1 = 0
    hamming-degenerate  sphere packing for degenerate codes,
       lambda = (1 - H4(mu)) / (1 + H4(mu)) with mu = delta/(1+lambda)
    fig2  the k1-parameterized family generalizing E,
       (2 lambda - kappa1)/(1 + lambda - kappa1)
           <= R4(2 delta/(1 + lambda - kappa1)),  valid while kappa1 < 2 lambda

Every root is found by the one bisection ``_bisect``, which halves its
interval to width <= TOL = 1e-9; the emitted samples are bit-for-bit
reproducible for a fixed grid.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .errors import ParameterError, SolverError

TOL = 1e-9

CURVE_IDS = ("A", "B", "D", "E", "hamming-degenerate", "fig2")


@lru_cache(maxsize=8)
def _kernels(q: int) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Unchecked (H_q, gamma_q) for one alphabet size; a curve uses one or two.

    q is checked, and log q, log(q - 1), q - 1 and q - 2 bound, once per q.
    Neither function checks its argument: ``entropy_q`` and ``gamma_q`` do
    and call these, and the curve loops call them only inside [0, 1].
    """
    if q < 2:
        raise ParameterError(f"alphabet size q must be >= 2, got {q}")
    logq, log_q1 = math.log(q), math.log(q - 1)
    q1, q2 = q - 1, q - 2
    log, sqrt = math.log, math.sqrt

    def entropy(x: float) -> float:
        total = x * log_q1 / logq
        if 0.0 < x:
            total -= x * log(x) / logq
        if x < 1.0:
            total -= (1.0 - x) * log(1.0 - x) / logq
        return total

    def gamma(x: float) -> float:
        return (q1 - q2 * x - 2.0 * sqrt(q1 * x * (1.0 - x))) / q

    return entropy, gamma


def entropy_q(x: float, q: int = 4) -> float:
    """q-ary entropy H_q(x) with H_q(0) = 0 and H_q(1) = log_q(q-1)."""
    entropy = _kernels(q)[0]
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"entropy argument {x} outside [0, 1]")
    return entropy(x)


def gamma_q(x: float, q: int = 4) -> float:
    """gamma_q(x); maps 0 -> (q-1)/q and (q-1)/q -> 0, strictly decreasing."""
    gamma = _kernels(q)[1]
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"gamma argument {x} outside [0, 1]")
    return gamma(x)


def _bisect(pred: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] to width <= TOL, keeping pred true at lo and false at hi."""
    while hi - lo > TOL:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_monotone(
    fn: Callable[[float], float], target: float, lo: float, hi: float
) -> float:
    """Bisection for fn(x) = target with fn monotone on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == target:
        return lo
    if fhi == target:
        return hi
    increasing = fhi > flo
    below = (flo < target) if increasing else (flo > target)
    above = (fhi > target) if increasing else (fhi < target)
    if not (below and above):
        raise SolverError(
            f"target {target} not bracketed by fn({lo})={flo}, fn({hi})={fhi}"
        )
    lo, hi = _bisect(lambda x: (fn(x) < target) == increasing, lo, hi)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# classical bounds, built in or supplied as tables
# ---------------------------------------------------------------------------

ClassicalBound = Callable[[float], float]


def first_lp_bound(q: int = 4) -> ClassicalBound:
    """R(delta) = H_q(gamma_q(delta)), rate 0 beyond delta = (q-1)/q."""
    entropy, gamma = _kernels(q)
    top = (q - 1) / q

    def bound(delta: float) -> float:
        if delta <= 0.0:
            return 1.0
        if delta >= top:
            return 0.0
        # 0 < delta < top <= 1; gamma(delta) lies in [0, top] up to rounding,
        # which for q = 3 and q >= 5 can leave it a few ulps below 0 near
        # top, where the rate is 0 as at entropy(0.0)
        g = gamma(delta)
        if g <= 0.0:
            return 0.0
        return entropy(g)

    return bound


def tabulated_bound(points: Sequence[tuple[float, float]]) -> ClassicalBound:
    """Piecewise-linear rate bound from (delta, rate) samples.

    Deltas and rates must be numbers in [0, 1], deltas strictly increasing
    and rates nonincreasing; outside the sampled range the end values are
    held constant.
    """
    if len(points) < 2:
        raise ParameterError("need at least two (delta, rate) points")
    # written so that NaN fails it too
    if not all(0.0 <= v <= 1.0 for point in points for v in point):
        raise ParameterError("every delta and rate must be a number in [0, 1]")
    deltas = [p[0] for p in points]
    rates = [p[1] for p in points]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ParameterError("delta column must be strictly increasing")
    if any(b > a for a, b in zip(rates, rates[1:])):
        raise ParameterError("rate column must be nonincreasing")

    def bound(delta: float) -> float:
        if delta <= deltas[0]:
            return rates[0]
        if delta >= deltas[-1]:
            return rates[-1]
        # the first interval [deltas[i], deltas[i + 1]] holding delta; at a knot
        # that is the interval ending there
        i = bisect.bisect_left(deltas, delta) - 1
        t = (delta - deltas[i]) / (deltas[i + 1] - deltas[i])
        return rates[i] + t * (rates[i + 1] - rates[i])

    return bound


def load_classical_bound_csv(path: str) -> ClassicalBound:
    """Read a 'delta,rate' CSV (header required) into a rate bound.

    Every defect, from an unreadable file to a malformed row or a delta or
    rate outside [0, 1], raises ParameterError; a row's error names its line.
    """
    import csv

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            numbered = [(i, line) for i, line in enumerate(handle, 1) if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read classical bound CSV {path!r}: {exc}") from exc
    rows = zip((i for i, _ in numbered), csv.reader(line for _, line in numbered))
    header = next(rows, None)
    if header is None or [h.strip() for h in header[1][:2]] != ["delta", "rate"]:
        raise ParameterError("classical bound CSV must start with 'delta,rate'")
    points: list[tuple[float, float]] = []
    for number, row in rows:
        if not row:
            continue
        try:
            point = (float(row[0]), float(row[1]))
        except (IndexError, ValueError):
            point = None
        if point is None or not all(0.0 <= v <= 1.0 for v in point):
            raise ParameterError(
                f"{path} line {number}: expected two numbers 'delta,rate' in [0, 1], "
                f"got {','.join(row)!r}"
            )
        points.append(point)
    return tabulated_bound(points)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


class CurvePoint(NamedTuple):
    delta: float
    rate: float


def _grid(lo: float, hi: float, samples: int) -> list[float]:
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples}")
    step = (hi - lo) / (samples - 1)
    return [lo + i * step for i in range(samples)]


def curve_nondeg_general(samples: int = 200) -> list[CurvePoint]:
    """Curve B: lambda = 2 H4(x) - 1 against delta = gamma4(x).

    The parametric normalization is pinned by its endpoints: lambda = 1 at
    delta = 0 and lambda = 0 at delta = gamma4(x*) with H4(x*) = 1/2,
    delta ~ 0.3161.
    """
    entropy, gamma = _kernels(4)  # every argument lies in [0, 0.75]
    x_star = solve_monotone(entropy, 0.5, 1e-12, 0.75)
    delta_end = gamma(x_star)
    points = []
    for delta in _grid(0.0, delta_end, samples):
        x = solve_monotone(gamma, delta, 0.0, 0.75)
        rate = 2.0 * entropy(x) - 1.0
        points.append(CurvePoint(delta, min(1.0, max(0.0, rate))))
    return points


def _standin_q(curve_id: str) -> int:
    """Alphabet of the built-in first-LP stand-in: D reduces to a binary code."""
    return 2 if curve_id == "D" else 4


def _stabilizer_constraint(
    curve_id: str, bound: ClassicalBound, kappa1: float
) -> tuple[Callable[[float], Callable[[float], bool]], float]:
    """Feasibility delta -> (lambda -> g <= 0), plus the lambda floor of its domain.

    Built once per delta, the inner predicate keeps what does not depend on
    lambda: A's classical term R(delta) is evaluated once, not at every
    bisection step.  D and fig2 read R at a point that moves with lambda.
    """
    if curve_id == "A":
        def at_a(delta: float) -> Callable[[float], bool]:
            rate = bound(delta)
            return lambda lam: (1.0 + lam) / 2.0 - rate <= 0.0

        return at_a, 0.0
    if curve_id == "D":
        def at_d(delta: float) -> Callable[[float], bool]:
            return lambda lam: 2.0 * lam / (1.0 + lam) - bound(delta / (1.0 + lam)) <= 0.0

        return at_d, 0.0
    if curve_id == "fig2":
        def at_fig2(delta: float) -> Callable[[float], bool]:
            def feasible(lam: float) -> bool:
                span = 1.0 + lam - kappa1
                return (2.0 * lam - kappa1) / span - bound(2.0 * delta / span) <= 0.0

            return feasible

        return at_fig2, kappa1 / 2.0
    raise ParameterError(f"unknown stabilizer curve id {curve_id!r}")


def _check_kappa1(curve_id: str, kappa1: float) -> None:
    """kappa1 in [0, 1] for fig2; every other id draws kappa1 = 0 only."""
    if curve_id == "fig2":
        if not 0.0 <= kappa1 <= 1.0:
            raise ParameterError(f"kappa1 must lie in [0, 1], got {kappa1}")
    elif kappa1 != 0.0:
        raise ParameterError(f"kappa1 applies to fig2 only, got {kappa1} for curve {curve_id!r}")


def curve_stabilizer(
    curve_id: str,
    classical_bound: ClassicalBound | None = None,
    kappa1: float = 0.0,
    samples: int = 200,
) -> list[CurvePoint]:
    """Curves A, D, E and the fig2 family: largest lambda meeting the reduction.

    Each delta sample is solved independently by bisection on the upper
    boundary of the feasible lambdas in [floor, 1]; the delta range ends
    where the feasible rate meets the domain floor (0, or kappa1/2 for the
    fig2 family, where the parameterized reduction stops applying).  Any id
    but fig2 refuses a nonzero kappa1.
    """
    _check_kappa1(curve_id, kappa1)
    if curve_id == "E":  # x - 0.0 == x: fig2's constraint and floor are E's, bit for bit
        curve_id, kappa1 = "fig2", 0.0
    if classical_bound is None:
        classical_bound = first_lp_bound(_standin_q(curve_id))
    constraint, floor = _stabilizer_constraint(curve_id, classical_bound, kappa1)

    def rate_at(delta: float) -> float:
        """Largest feasible lambda, or floor - 1 when even the floor is not."""
        feasible = constraint(delta)
        if not feasible(floor):
            return floor - 1.0
        if feasible(1.0):
            return 1.0
        return _bisect(feasible, floor, 1.0)[0]

    # end of support: last delta whose best rate clears the domain floor
    def clears(delta: float) -> bool:
        return rate_at(delta) > floor + TOL

    delta_end = 1.0 if clears(1.0) else _bisect(clears, 0.0, 1.0)[0]
    points = []
    for delta in _grid(0.0, delta_end, samples):
        rate = rate_at(delta)
        if rate < floor:
            continue  # unsatisfiable sample: curve ends
        points.append(CurvePoint(delta, min(1.0, rate)))
    return points


def curve_hamming_degenerate(samples: int = 200) -> list[CurvePoint]:
    """Sphere-packing curve lambda = (1 - H4(mu)) / (1 + H4(mu)).

    mu = delta / (1 + lambda) as printed in the source inequality.  Solved
    per sample by bisection of the fixed-point residual.
    """
    entropy = _kernels(4)[0]

    def residual(delta: float, lam: float) -> float:
        mu = min(1.0, delta / (1.0 + lam))  # delta, lam >= 0
        h = entropy(mu)
        return lam - (1.0 - h) / (1.0 + h)

    points = []
    for delta in _grid(0.0, 0.75, samples):
        if residual(delta, 0.0) >= 0.0:
            points.append(CurvePoint(delta, 0.0))
            continue
        lo, hi = _bisect(lambda lam: residual(delta, lam) < 0.0, 0.0, 1.0)
        points.append(CurvePoint(delta, 0.5 * (lo + hi)))
    return points


# ---------------------------------------------------------------------------
# dispatch and provenance
# ---------------------------------------------------------------------------


def generate_curve(
    curve_id: str,
    samples: int = 200,
    kappa1: float = 0.0,
    classical_csv: str | None = None,
) -> tuple[list[CurvePoint], list[str]]:
    """Points plus deterministic provenance/metadata comment lines.

    ``classical_csv`` names a 'delta,rate' table that replaces the built-in
    classical bound, and the metadata names it by that path.  It is read,
    and any defect raised, for every id, also for B and hamming-degenerate,
    which consume no classical bound.  ``kappa1`` must be 0 for every id
    but fig2.
    """
    if curve_id not in CURVE_IDS:
        raise ParameterError(f"unknown curve id {curve_id!r}")
    classical = load_classical_bound_csv(classical_csv) if classical_csv is not None else None
    _check_kappa1(curve_id, kappa1)
    meta = [f"curve: {curve_id}", f"samples: {samples}"]
    if curve_id == "B":
        points = curve_nondeg_general(samples)
        meta.append(
            "normalization: rate = 2*H4(x) - 1, delta = gamma4(x); pinned by the "
            "endpoints (rate 1 at delta 0; rate 0 near delta 0.316)"
        )
        return points, meta
    if curve_id == "hamming-degenerate":
        points = curve_hamming_degenerate(samples)
        meta.append("fixed point: rate = (1 - H4(mu))/(1 + H4(mu)), mu = delta/(1 + rate)")
        return points, meta
    standin = f"first-lp-gf{_standin_q(curve_id)} (built-in stand-in)"
    meta.append(f"classical_bound: {f'table:{classical_csv}' if classical else standin}")
    if curve_id == "A":
        meta.append(
            "note: with the built-in first-LP stand-in the zero-rate endpoint "
            "is ~0.316; the strongest published quaternary bound would give "
            "~0.308 and is not built in (supply --classical-bound to use it)"
        )
    if curve_id == "fig2":
        meta.append(f"kappa1: {kappa1!r}")
        meta.append("valid while kappa1 < 2*rate; curve ends at rate kappa1/2")
    points = curve_stabilizer(curve_id, classical, kappa1, samples)
    return points, meta
