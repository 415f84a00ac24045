"""Deterministic invariant suite behind the ``selftest`` subcommand.

Each check returns (name, passed, detail).  Randomized checks use fixed
seeds so two runs of the suite produce byte-identical reports.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Callable, Iterable

from . import bounds, gf4
from .exact import binomial, krawtchouk_eval, macwilliams_transform

Check = tuple[str, bool, str]


def fixture_text(name: str) -> str:
    # read beside this module: importlib.resources would import tempfile and shutil
    path = os.path.join(os.path.dirname(__file__), "fixtures", name)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def fixture_manifest() -> dict:
    return json.loads(fixture_text("manifest.json"))


def check_orthogonality() -> Check:
    bad = 0
    for n in range(11):
        for r in range(n + 1):
            for s in range(r, n + 1):
                total = sum(
                    Fraction(3**x * binomial(n, x))
                    * krawtchouk_eval(r, x, n)
                    * krawtchouk_eval(s, x, n)
                    for x in range(n + 1)
                )
                expect = (
                    Fraction(4**n * 3**r * binomial(n, r)) if r == s else Fraction(0)
                )
                if total != expect:
                    bad += 1
    return (
        "krawtchouk-orthogonality",
        bad == 0,
        f"n <= 10, exact; {bad} violations",
    )


def check_involution() -> Check:
    rng = random.Random(20240)
    bad = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        dist = [rng.randint(0, 60) for _ in range(n + 1)]
        scale = Fraction(rng.randint(1, 64))
        forward = macwilliams_transform(dist, n, 4, scale)
        back = macwilliams_transform(forward, n, 4, Fraction(4**n) / scale)
        if back != [Fraction(v) for v in dist]:
            bad += 1
    return ("transform-involution", bad == 0, "1000 random distributions, exact")


def check_fixtures() -> Check:
    manifest = fixture_manifest()
    problems = []
    for name, expected in sorted(manifest.items()):
        code = gf4.parse_code(fixture_text(name))
        # enumerators raises on any transform-identity failure
        params = gf4.enumerators(code).params
        sf = code.form
        got = {
            "n": params.n,
            "k": params.k,
            "d": params.d,
            "degenerate": params.degenerate,
            "k0": sf.k0,
            "k1": sf.k1,
        }
        if got != expected:
            problems.append(f"{name}: {got} != {expected}")
    return (
        "fixture-corpus",
        not problems,
        "; ".join(problems) or f"{len(manifest)} fixtures verified",
    )


def check_lp_dominance() -> Check:
    bad = []
    for n in range(2, 7):
        for d in range(1, n + 1):
            critical = bounds.lp_critical_K(n, d)
            if critical is None:
                continue
            scale = (Fraction(2) ** n) * critical
            for verdict in (bounds.singleton_bound(n, d), bounds.hamming_bound(n, d)):
                if scale > verdict.value_on_2nK:
                    bad.append(f"(n={n}, d={d}) {verdict.bound_name}")
    return ("lp-weak-duality", not bad, "; ".join(bad) or "n <= 6 sweep, exact")


def check_reduction_soundness() -> Check:
    rng = random.Random(977)
    bad = []
    corpus = [
        gf4.parse_code(fixture_text(name)) for name in sorted(fixture_manifest())
    ]
    while len(corpus) < 30:  # the five fixtures and 25 seeded codes
        n = rng.randint(2, 8)
        corpus.append(gf4.random_self_orthogonal_code(n, rng.randint(1, n), rng))
    for code in corpus:
        params = gf4.quantum_distance(code)
        if params.k == 0:
            continue
        for witness in gf4.reduction_witnesses(code):
            if witness.distance < params.d:
                bad.append(f"{code}: {witness} vs d={params.d}")
    return ("reduction-soundness", not bad, "; ".join(bad) or f"{len(corpus)} codes")


def _all_subspace_bases(dim: int) -> Iterable[list[int]]:
    """Every subspace of GF(2)^dim once, via reduced-echelon bases."""
    from itertools import combinations, product

    for k in range(1, dim + 1):
        for pivots in combinations(range(dim), k):
            free_positions = [
                (r, c)
                for r in range(k)
                for c in range(dim)
                if c > pivots[r] and c not in pivots
            ]
            for bits in product((0, 1), repeat=len(free_positions)):
                rows = [1 << pivots[r] for r in range(k)]
                for (r, c), bit in zip(free_positions, bits):
                    if bit:
                        rows[r] |= 1 << c
                yield rows


def check_mixed_ball_oracle(max_len: int = 3, max_l: int = 2) -> Check:
    """Exhaustive sphere-packing oracle over small mixed additive codes.

    A vector of the mixed ambient group has one bit per restricted
    coordinate (symbol w or 0), then two bits per free coordinate.  As a
    length-n word, restricted bit i is the Z bit of coordinate i, and the
    two bits of free coordinate j are the X and Z bits of coordinate l + j.
    Every code is judged by ``bounds.mixed_hamming_check`` on its own
    (l, n, rank, d); that verdict depends on nothing else, so it is taken
    once per distinct key and reused.
    """
    bad = 0
    total = 0
    passes: dict[tuple[int, int, int, int], bool] = {}
    for n in range(1, max_len + 1):
        for l in range(0, min(max_l, n) + 1):
            ambient = l + 2 * (n - l)

            def word(v: int) -> int:
                symbols = [2 * (v >> i & 1) for i in range(l)]
                symbols += [v >> (l + 2 * j) & 3 for j in range(n - l)]
                return gf4.symbols_to_int(symbols, n)

            words = [word(v) for v in range(1 << ambient)]
            for rows in _all_subspace_bases(ambient):
                # a reduced echelon basis under the bit map word(): independent
                code = gf4._basis_code(n, [words[v] for v in rows])
                d = gf4.min_nonzero_weight(code)
                total += 1
                key = (l, n, code.rank, d)
                if key not in passes:
                    passes[key] = bounds.mixed_hamming_check(*key).passed
                if not passes[key]:
                    bad += 1
    return (
        "mixed-ball-oracle",
        bad == 0,
        f"lengths <= {max_len}, l <= {max_l}: {total} codes, {bad} violations",
    )


CHECKS: tuple[Callable[[], Check], ...] = (
    check_orthogonality,
    check_involution,
    check_fixtures,
    check_lp_dominance,
    check_reduction_soundness,
    check_mixed_ball_oracle,
)


def run_selftest() -> tuple[list[Check], bool]:
    results = [check() for check in CHECKS]
    return results, all(passed for _, passed, _ in results)
