"""Output checks that share no code with the package under test.

Each checker takes one op that exited with status 0 (argv plus what the
generator knows about it) and its stdout, and returns a label that
classifies the op for the workload's mix counts; a failed check raises.
:func:`check` turns that into ``(problem, label)``, ``problem`` being None
when every check holds.  All arithmetic is exact
(integers and ``Fraction``) except for the curves, whose CSV is float.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _floor_log2(x: Fraction) -> int:
    m = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** m > x:
        m -= 1
    while Fraction(2) ** (m + 1) <= x:
        m += 1
    return m


@lru_cache(maxsize=None)
def _krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """P[t][i] = sum_j (-1)^j 3^(t-j) C(i, j) C(n-i, t-j), quaternary."""
    return tuple(
        tuple(
            sum((-1) ** j * 3 ** (t - j) * math.comb(i, j) * math.comb(n - i, t - j) for j in range(t + 1))
            for i in range(n + 1)
        )
        for t in range(n + 1)
    )


def _transform(B, n: int, scale) -> list[Fraction]:
    """A_t = (1/scale) sum_i B_i P_t(i, n)."""
    P = _krawtchouk_table(n)
    return [sum(Fraction(B[i]) * P[t][i] for i in range(n + 1)) / scale for t in range(n + 1)]


def _hamming_value(n: int, d: int) -> Fraction:
    e = (d - 1) // 2
    ball = sum(3**s * math.comb(n, s) for s in range(e + 1))
    return Fraction(4**n, ball)


def _rational(text) -> Fraction | None:
    return None if text is None else Fraction(text)


def check_poly(op, out: str) -> str:
    n, k, d = op.expect["n"], op.expect["k"], op.expect["d"]
    payload = json.loads(out)
    _require(payload["query"] == {"n": n, "K": str(2**k), "d": d}, "query echo differs")
    verdicts = {v["bound"]: v for v in payload["verdicts"]}
    _require(sorted(verdicts) == ["hamming", "levenshtein", "singleton"], "bound set differs")
    single = verdicts["singleton"]
    _require(_rational(single["value_on_2nK"]) == 4 ** (n - d + 1), "Singleton value is not 4^(n-d+1)")
    ham = verdicts["hamming"]
    value = _hamming_value(n, d)
    _require(_rational(ham["value_on_2nK"]) == value, "Hamming value is not 4^n / ball")
    _require(ham["k_max"] == _floor_log2(value) - n, "Hamming k_max differs from the closed form")
    target = Fraction(2) ** (n + k)
    best = None
    for name, v in verdicts.items():
        val = _rational(v["value_on_2nK"])
        if v["applicable"]:
            _require(val is not None and val > 0, f"{name}: applicable without a positive value")
            _require(v["passed"] == (target <= val), f"{name}: passed flag disagrees with 2^n K <= value")
            _require(v["k_max"] == _floor_log2(val) - n, f"{name}: k_max disagrees with its value")
            if best is None or val < best[1]:
                best = (name, val)
        else:
            _require(val is None and v["passed"] is None, f"{name}: inapplicable verdict carries a value")
    _require(payload["strongest"] == best[0], "strongest is not the smallest value")
    return "pass" if all(v["passed"] is not False for v in verdicts.values()) else "fail"


def check_lp(op, out: str) -> str:
    n, d = op.expect["n"], op.expect["d"]
    K = Fraction(op.expect["K"])
    payload = json.loads(out)
    _require((payload["n"], payload["K"], payload["d"]) == (n, str(K), d), "query echo differs")
    critical = _rational(payload["critical_K"])
    feasible = payload["feasible"]
    _require(feasible == (critical is not None and K <= critical), "feasible disagrees with K <= critical_K")
    scale = Fraction(2) ** n * K
    P = _krawtchouk_table(n)
    if feasible:
        B = [Fraction(v) for v in payload["witness_B"]]
        _require(len(B) == n + 1 and B[0] == 1, "witness B has the wrong shape")
        _require(all(B[i] == 0 for i in range(1, d)) and min(B) >= 0, "witness B breaks B_i = 0 below d or B >= 0")
        A = _transform(B, n, scale)
        _require([str(a) for a in A] == payload["witness_A"], "witness A is not the transform of B")
        _require(A[0] == 1 and all(A[t] == 0 for t in range(1, d)), "witness A breaks A_0 = 1 or A_t = 0 below d")
        _require(min(A) >= 0, "witness A has a negative entry")
    else:
        y = [Fraction(v) for v in payload["certificate"]]
        _require(len(y) == n + 1, "certificate has the wrong length")
        _require(all(y[t] >= 0 for t in range(d, n + 1)), "certificate has y_t < 0 for t >= d")
        f = [sum(y[t] * P[t][i] for t in range(n + 1)) for i in range(n + 1)]
        _require(all(f[i] <= 0 for i in range(d, n + 1)), "certificate polynomial is positive on [d, n]")
        _require(f[0] < y[0] * scale, "certificate does not exclude K")
    if critical is not None:
        top = critical * 2**n
        _require(top <= 4 ** (n - d + 1), "critical_K exceeds the Singleton value")
        _require(top <= _hamming_value(n, d), "critical_K exceeds the Hamming value")
    return "feasible" if feasible else "infeasible"


def check_code(op, out: str) -> str:
    payload = json.loads(out)
    n, k, d = payload["n"], payload["k"], payload["d"]
    A, B = payload["enumerators"]["A"], payload["enumerators"]["B"]
    fixture = op.expect.get("fixture")
    if fixture is not None:
        got = {key: payload[key] for key in ("n", "k", "d", "degenerate")}
        got.update(payload["standard_form"])
        _require(got == fixture, f"fixture report {got} differs from the manifest {fixture}")
    else:
        _require(n == op.expect["n"] and k == n - op.expect["rank"], "n or k differs from the generated code")
    rank = n - k
    _require(payload["K"] == 2**k, "K is not 2^k")
    _require(len(A) == n + 1 and len(B) == n + 1, "enumerators have the wrong length")
    _require(sum(A) == 2**rank and sum(B) == 2 ** (2 * n - rank), "enumerator sums are not 2^rank and 2^(2n-rank)")
    _require(A[0] == 1 and B[0] == 1, "enumerators do not start with 1")
    _require(_transform(B, n, 2 ** (n + k)) == A, "A is not the MacWilliams transform of B")
    if k > 0:
        _require(d == min(i for i in range(n + 1) if B[i] > A[i]), "d is not min{i : B_i > A_i}")
        _require(payload["degenerate"] == any(A[i] for i in range(1, d)), "degenerate flag differs")
    else:
        _require(d == min(i for i in range(1, n + 1) if A[i]), "d is not the least nonzero weight")
    for w in payload["reduction_witnesses"]:
        _require(w["distance"] >= d and w["sound"] is True, f"{w['kind']} witness distance below d")
    return f"k={k}"


CURVE_TOL = 2e-9  # bisection tolerance 1e-9 plus rounding to 9 decimals


def check_curve(op, out: str) -> str:
    lines = out.splitlines()
    _require(f"# curve: {op.expect['id']}" in lines, "curve id header missing")
    header = lines.index("delta,rate")
    rows = [tuple(map(float, line.split(","))) for line in lines[header + 1 :]]
    _require(len(rows) >= 2, "fewer than two points")
    for (d0, r0), (d1, r1) in zip(rows, rows[1:]):
        _require(d1 > d0, "delta is not increasing")
        _require(r1 <= r0 + CURVE_TOL, f"rate rises from {r0} to {r1} at delta {d1}")
    _require(all(0.0 <= r <= 1.0 for _, r in rows), "rate outside [0, 1]")
    return op.expect["id"] + ("+table" if "--classical-bound" in op.argv else "")


CHECKERS = {
    "poly_grid": check_poly,
    "lp_grid": check_lp,
    "code_corpus": check_code,
    "curves": check_curve,
}


def check(workload: str, op, out: str) -> tuple[str | None, str]:
    """Run the workload's checker; malformed output counts as a failed check."""
    try:
        return None, CHECKERS[workload](op, out)
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}", "failed"
