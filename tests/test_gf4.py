"""GF(4) additive codes: parsing, duals, distances, reductions.

The oracles here work on GF(4) symbol tuples with itertools enumeration,
independent of the bitmask representation used by the library.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

import gf4_oracle
from qbounds.errors import CapacityError, ParameterError, ParseError, StructureError
from qbounds.gf4 import (
    ENUMERATION_CAP,
    AdditiveCode,
    _restricted_free_subcode,
    binary_s_code,
    complementary_code,
    enumerators,
    format_code,
    gf2_rank,
    min_nonzero_weight,
    parse_code,
    quantum_distance,
    random_self_orthogonal_code,
    reduction_targets,
    reduction_witnesses,
    split_halves,
    standard_form,
    symbol,
    symplectic_dual,
    symbols_to_int,
    symplectic_product,
    weight_distribution,
)

FIVE_QUBIT = "XZZXI\nIXZZX\nXIXZZ\nZXIXZ\n"
C422 = "XXXX\nZZZZ\n"
STEANE = "IIIXXXX\nIXXIIXX\nXIXIXIX\nIIIZZZZ\nIZZIIZZ\nZIZIZIZ\n"


# ---------------------------------------------------------------------------
# independent symbol-tuple oracles
# ---------------------------------------------------------------------------


def _symbols(v, n):
    return tuple(symbol(v, c, n) for c in range(n))


def _rows_as_symbols(code):
    return [_symbols(g, code.n) for g in code.generators]


def naive_words(rows):
    """All GF(2) combinations of symbol-tuple rows, via itertools."""
    n = len(rows[0]) if rows else 0
    out = []
    for mask in itertools.product((0, 1), repeat=len(rows)):
        word = [0] * n
        for bit, row in zip(mask, rows):
            if bit:
                word = [a ^ b for a, b in zip(word, row)]
        out.append(tuple(word))
    return out


def naive_weight(word):
    return sum(1 for s in word if s)


def naive_distribution(rows, n):
    counts = [0] * (n + 1)
    for word in naive_words(rows):
        counts[naive_weight(word)] += 1
    return tuple(counts)


def naive_sympl(u, v):
    total = 0
    for s, t in zip(u, v):
        total ^= ((s & 1) & (t >> 1)) ^ ((t & 1) & (s >> 1))
    return total


def naive_distance(code):
    """Min weight over dual \\ code (or min nonzero weight when equal)."""
    rows = _rows_as_symbols(code)
    n = code.n
    cwords = set(naive_words(rows))
    dual_words = [
        w
        for w in itertools.product((0, 1, 2, 3), repeat=n)
        if all(naive_sympl(w, tuple(r)) == 0 for r in rows)
    ]
    outside = [w for w in dual_words if w not in cwords]
    if outside:
        return min(naive_weight(w) for w in outside)
    return min(naive_weight(w) for w in cwords if any(w))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_five_qubit():
    code = parse_code(FIVE_QUBIT)
    assert code.n == 5 and code.rank == 4


def test_parse_slash_separated():
    code = parse_code("XZZXI / IXZZX / XIXZZ / ZXIXZ")
    assert code.echelon == parse_code(FIVE_QUBIT).echelon


def test_parse_gf4_rows_and_comments():
    code = parse_code("# a comment\n0 1 w x  # trailing\nw 0 1 1\n")
    assert code.n == 4 and code.rank == 2


def test_parse_bad_symbol():
    with pytest.raises(ParseError, match="line 1"):
        parse_code("XZQ")


def test_parse_ragged_rows():
    with pytest.raises(ParseError, match="line 2"):
        parse_code("XZ\nXZZ")


def test_parse_dependent_rows_named():
    with pytest.raises(ParseError, match="line 3"):
        parse_code("XZ\nZX\nYY")


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_code("# nothing here\n")


def test_format_round_trip():
    for text in (FIVE_QUBIT, C422, "w w\n"):
        code = parse_code(text)
        back = parse_code(format_code(code))
        assert (back.n, back.echelon) == (code.n, code.echelon)


def test_dependent_generators_rejected_at_construction():
    with pytest.raises(ParameterError):
        AdditiveCode(2, (0b0101, 0b0101))


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def test_dual_of_trivial_is_full_space():
    trivial = AdditiveCode(2, ())
    dual = symplectic_dual(trivial)
    assert dual.rank == 4


def test_dual_contains_self_orthogonal_code():
    code = parse_code(FIVE_QUBIT)
    dual = symplectic_dual(code)
    assert dual.rank == 6
    assert gf2_rank(dual.generators + code.generators) == dual.rank


def test_bidual_identity():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 6)
        code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
        assert symplectic_dual(symplectic_dual(code)).echelon == code.echelon


def test_dual_is_symplectically_orthogonal():
    code = parse_code(STEANE)
    dual = symplectic_dual(code)
    for g in code.generators:
        for h in dual.generators:
            assert symplectic_product(g, h, code.n) == 0


# ---------------------------------------------------------------------------
# distances and enumerators
# ---------------------------------------------------------------------------


def test_five_qubit_params_match_oracle():
    code = parse_code(FIVE_QUBIT)
    params = quantum_distance(code)
    assert (params.n, params.k, params.K, params.d) == (5, 1, 2, 3)
    assert params.degenerate is False
    assert naive_distance(code) == 3


def test_c422_params():
    code = parse_code(C422)
    params = quantum_distance(code)
    assert (params.n, params.k, params.d) == (4, 2, 2)
    assert naive_distance(code) == 2


def test_k0_convention_uses_min_weight_of_code():
    code = parse_code("XX\nZZ")
    params = quantum_distance(code)
    assert (params.k, params.d) == (0, 2)
    assert naive_distance(code) == 2


def test_distance_rejects_non_self_orthogonal():
    with pytest.raises(StructureError):
        quantum_distance(parse_code("XX\nZX"))


def test_distance_matches_oracle_randomly():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 5)
        code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
        assert quantum_distance(code).d == naive_distance(code)


def test_weight_distributions_five_qubit():
    code = parse_code(FIVE_QUBIT)
    assert weight_distribution(code) == (1, 0, 0, 0, 15, 0)
    assert weight_distribution(symplectic_dual(code)) == (1, 0, 0, 30, 15, 18)
    # oracle recomputation over symbol tuples
    assert naive_distribution(_rows_as_symbols(code), 5) == (1, 0, 0, 0, 15, 0)
    dual = symplectic_dual(code)
    assert naive_distribution(_rows_as_symbols(dual), 5) == (1, 0, 0, 30, 15, 18)


def test_weight_distribution_trivial():
    assert weight_distribution(AdditiveCode(3, ())) == (1, 0, 0, 0)


def test_capacity_error_beyond_cap():
    big = AdditiveCode(14, tuple(1 << i for i in range(28)))
    with pytest.raises(CapacityError):
        weight_distribution(big)


def _random_code(n, rank, rng):
    """Seeded code of the given rank, not necessarily self-orthogonal."""
    rows = []
    while len(rows) < rank:
        v = rng.getrandbits(2 * n)
        if gf2_rank(rows + [v]) > len(rows):
            rows.append(v)
    return AdditiveCode(n, tuple(rows))


def test_weight_distribution_matches_word_loop():
    """The split-span kernel counts what the per-word loop it replaced counts."""
    rng = random.Random(2718)
    codes = [AdditiveCode(n, ()) for n in (1, 4)]
    for rank in range(19):
        # odd ranks put one more generator in the low half than in the high one
        for n in sorted({(rank + 1) // 2 or 1, rank // 2 + 3, rank + 2}):
            codes.append(_random_code(n, rank, rng))
    for n in range(1, 10):
        self_dual = random_self_orthogonal_code(n, n, rng)
        codes += [self_dual, symplectic_dual(self_dual)]
    assert {c.rank for c in codes} == set(range(19))
    for code in codes:
        assert weight_distribution(code) == gf4_oracle.weight_distribution(code), code

    over = _random_code(14, ENUMERATION_CAP + 1, rng)
    for count in (weight_distribution, gf4_oracle.weight_distribution):
        with pytest.raises(CapacityError, match="^rank 27 exceeds enumeration cap 26$"):
            count(over)


def test_enumerators_fixtures():
    pair = enumerators(parse_code(FIVE_QUBIT))
    assert pair.A == (1, 0, 0, 0, 15, 0)
    assert pair.B == (1, 0, 0, 30, 15, 18)
    assert pair.K == 2

    pair = enumerators(parse_code(C422))
    assert pair.A == (1, 0, 0, 0, 3)
    assert pair.K == 4

    pair = enumerators(AdditiveCode(1, ()))
    assert pair.A == (1, 0) and pair.B == (1, 3) and pair.K == 2


def test_enumerator_identity_on_random_codes():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 8)
        code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
        enumerators(code)  # raises InvariantError on any identity failure


def test_nondegeneracy_coherence():
    rng = random.Random(34)
    seen_degenerate = False
    for _ in range(60):
        n = rng.randint(2, 6)
        code = random_self_orthogonal_code(n, rng.randint(1, n - 1), rng)
        params = quantum_distance(code)
        min_c = min_nonzero_weight(code)
        assert params.degenerate == (min_c < params.d)
        seen_degenerate = seen_degenerate or params.degenerate
        if not params.degenerate:
            pair = enumerators(code)
            for i in range(1, params.d):
                assert pair.A[i] == pair.B[i] == 0
    assert seen_degenerate, "sweep never produced a degenerate example"


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


def test_standard_form_five_qubit_is_gf4_linear():
    code = parse_code(FIVE_QUBIT)
    sf = standard_form(code)
    assert (sf.k0, sf.k1) == (2, 0)
    assert sf.k == 1
    # GF(4)-linearity oracle: multiplying every generator by w stays inside
    omega_mult = {0: 0, 1: 2, 2: 3, 3: 1}
    for g in code.generators:
        scaled = [omega_mult[s] for s in _symbols(g, code.n)]
        word = tuple(scaled)
        assert word in set(naive_words(_rows_as_symbols(code)))


def test_standard_form_single_line_generator():
    sf = standard_form(parse_code("w w"))
    assert (sf.k0, sf.k1) == (0, 1)
    assert sf.line_pivots == (2,)


def test_standard_form_round_trip_random():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 7)
        rank = rng.randint(1, min(2 * n, 9))
        gens = []
        while len(gens) < rank:
            candidate = rng.getrandbits(2 * n)
            try:
                AdditiveCode(n, tuple(gens + [candidate]))
            except ParameterError:
                continue
            gens.append(candidate)
        code = AdditiveCode(n, tuple(gens))
        sf = standard_form(code)
        assert 2 * sf.k0 + sf.k1 == code.rank == len(sf.rows)
        assert AdditiveCode(n, sf.rows).echelon == code.echelon
        assert sorted(sf.permutation) == list(range(n))
        # pivot structure: identity-like blocks at the pivot columns
        pair_cols = sf.permutation[: sf.k0]
        for j, col in enumerate(pair_cols):
            assert symbol(sf.rows[j], col, n) == 1
            assert symbol(sf.rows[sf.k0 + j], col, n) == 2
            others = [r for i, r in enumerate(sf.rows) if i not in (j, sf.k0 + j)]
            assert all(symbol(r, col, n) == 0 for r in others)
        for j in range(sf.k1):
            row = sf.rows[2 * sf.k0 + j]
            assert symbol(row, sf.permutation[sf.k0 + j], n) == sf.line_pivots[j]
            assert all(symbol(row, c, n) == 0 for c in pair_cols)


# ---------------------------------------------------------------------------
# complementary codes and reductions
# ---------------------------------------------------------------------------


def test_complementary_five_qubit():
    code = parse_code(FIVE_QUBIT)
    comp = complementary_code(code)
    assert comp is not None
    assert comp.code.rank == 2
    assert comp.punctured.n == 3
    assert min_nonzero_weight(comp.punctured) == 3
    # stack-and-span: rows of C plus the complement span the dual
    from qbounds.gf4 import gf2_rank

    assert gf2_rank(code.generators + comp.code.generators) == 6


def test_complementary_none_for_k0():
    assert complementary_code(parse_code("XX\nZZ")) is None


def test_complementary_stack_span_random():
    rng = random.Random(55)
    from qbounds.gf4 import gf2_rank

    for _ in range(25):
        n = rng.randint(2, 7)
        code = random_self_orthogonal_code(n, rng.randint(1, n - 1), rng)
        comp = complementary_code(code)
        assert comp is not None
        k = n - code.rank
        assert comp.code.rank == 2 * k
        assert gf2_rank(code.generators + comp.code.generators) == n + k
        # every complement row commutes with every generator of C
        for w in comp.code.generators:
            assert all(symplectic_product(w, g, n) == 0 for g in code.generators)


def test_reduction_targets_five_qubit():
    code = parse_code(FIVE_QUBIT)
    sf = standard_form(code)
    params = quantum_distance(code)
    targets = reduction_targets(sf, params)
    assert [(t.kind, t.length, t.dimension, t.restricted) for t in targets] == [
        ("mixed_additive", 3, 2, 0),
        ("additive", 3, 2, 0),
        ("binary", 6, 2, 0),
    ]


def test_reduction_targets_c422():
    code = parse_code(C422)
    targets = reduction_targets(standard_form(code), quantum_distance(code))
    assert [(t.kind, t.length, t.dimension) for t in targets] == [
        ("mixed_additive", 3, 4),
        ("additive", 3, 4),
        ("binary", 6, 4),
    ]


def test_reduction_targets_guard_when_k1_large():
    # rank-1 code with a line pivot: k1 = 1, k = n - 1; descriptor (additive)
    # requires k1 < 2k
    code = parse_code("w w")
    sf = standard_form(code)
    params = quantum_distance(code)
    targets = reduction_targets(sf, params)
    kinds = [t.kind for t in targets]
    assert kinds == ["mixed_additive", "additive", "binary"]
    # and when k1 >= 2k the additive descriptor disappears: n=2 rank 3 would
    # be needed; build one on n=3 instead
    rng = random.Random(4)
    for _ in range(200):
        code = random_self_orthogonal_code(3, 2, rng)
        sf = standard_form(code)
        if sf.k1 >= 2 * sf.k > 0:
            targets = reduction_targets(sf, quantum_distance(code))
            assert [t.kind for t in targets] == ["mixed_additive", "binary"]
            break
    else:
        pytest.skip("no k1 >= 2k example found in sweep")


def test_reduction_targets_rejects_mismatch():
    code = parse_code(FIVE_QUBIT)
    sf = standard_form(code)
    with pytest.raises(ParameterError):
        reduction_targets(sf, quantum_distance(parse_code(C422)))


def test_reduction_witnesses_sound_on_fixtures():
    for text in (FIVE_QUBIT, C422, STEANE, "w w"):
        code = parse_code(text)
        params = quantum_distance(code)
        for witness in reduction_witnesses(code):
            assert witness.distance >= params.d, (text, witness)


# ---------------------------------------------------------------------------
# binary reduction
# ---------------------------------------------------------------------------


def test_binary_s_code_five_qubit():
    code = parse_code(FIVE_QUBIT)
    s = binary_s_code(code)
    assert s is not None
    assert (s.length, s.dimension) == (6, 2)
    assert s.distance >= 3
    # oracle: enumerate the span directly and recompute the distance
    words = set()
    for mask in itertools.product((0, 1), repeat=len(s.rows)):
        w = 0
        for bit, row in zip(mask, s.rows):
            if bit:
                w ^= row
        words.add(w)
    assert min(w.bit_count() for w in words if w) == s.distance


def test_binary_s_code_none_for_k0():
    assert binary_s_code(parse_code("XX\nZZ")) is None


def test_binary_s_code_dominates_quantum_distance():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 7)
        code = random_self_orthogonal_code(n, rng.randint(1, n - 1), rng)
        params = quantum_distance(code)
        s = binary_s_code(code)
        assert s is not None
        assert (s.length, s.dimension) == (n + params.k, 2 * params.k)
        assert s.distance >= params.d


# ---------------------------------------------------------------------------
# sweep against the word-by-word scans
# ---------------------------------------------------------------------------


def _with_fixed_qubit(code, symbol):
    """C plus one more qubit carrying a weight-1 stabilizer: degenerate once d >= 2."""
    n = code.n
    gens = [a | (b << (n + 1)) for a, b in (split_halves(g, n) for g in code.generators)]
    gens.append(symbols_to_int([0] * n + [symbol], n + 1))
    return AdditiveCode(n + 1, tuple(gens))


def test_distances_match_word_scans():
    """Distances read off weight distributions equal the scans they replaced."""
    rng = random.Random(4096)
    bad = []
    seen = {"k=0": 0, "degenerate": 0, "nondegenerate": 0}
    for trial in range(600):
        if trial % 3 == 0:
            n = rng.randint(1, 8)
            code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
            code = _with_fixed_qubit(code, rng.randint(1, 3))
        else:
            n = rng.randint(1, 9)
            # k <= 1 in every third code, where degenerate codes are least rare
            rank = rng.randint(1, n) if trial % 3 == 1 else max(n - 1, 1)
            code = random_self_orthogonal_code(n, rank, rng)
        params = quantum_distance(code)
        if params != gf4_oracle.quantum_distance(code):
            bad.append((trial, "params", params))
        if min_nonzero_weight(code) != gf4_oracle.min_nonzero_weight(code):
            bad.append((trial, "min_nonzero_weight"))
        if params.k == 0:
            seen["k=0"] += 1
            continue
        seen["degenerate" if params.degenerate else "nondegenerate"] += 1
        comp = complementary_code(code)
        s_code = binary_s_code(code)
        expected = {
            "mixed_additive": gf4_oracle.min_nonzero_weight(comp.punctured),
            "binary": gf4_oracle.binary_distance(s_code.rows),
        }
        sub = comp.punctured if comp.k1 == 0 else _restricted_free_subcode(comp)
        if sub is not None:
            expected["additive"] = gf4_oracle.min_nonzero_weight(sub)
        if s_code.distance != expected["binary"]:
            bad.append((trial, "binary_s_code"))
        for witness in reduction_witnesses(code, params=params):
            if witness.distance != expected[witness.target.kind]:
                bad.append((trial, witness))
    assert bad == []
    assert min(seen.values()) >= 20, seen


def _reduction_rows(sf, sf_rows, comp, sub, binary_rows):
    """Every row the reduction layer builds from one code, in order, by name."""
    return {
        "standard_form": (sf.k0, sf.k1, sf.permutation, sf.line_pivots, sf_rows),
        "complement": comp and comp.code.generators,
        "punctured": comp and (comp.punctured.n, comp.punctured.generators),
        "subcode": sub and (sub.n, sub.generators),
        "binary_s_code": binary_rows,
    }


def test_reduction_layer_matches_symbol_list_oracle():
    """Eliminations on int words build the rows the symbol-list layer built."""
    rng = random.Random(1997)
    bad = []
    seen = {"k1 >= 1": 0, "k1 >= 2k": 0, "k = 0": 0, "not self-orthogonal": 0}
    for trial in range(1300):
        if trial < 1000:
            n = rng.randint(1, 9) if trial % 3 == 0 else rng.randint(1, 10)
            code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
            if trial % 3 == 0:
                code = _with_fixed_qubit(code, rng.randint(1, 3))
        else:
            n = rng.randint(1, 8)
            code = _random_code(n, rng.randint(0, 2 * n), rng)
        sf, oracle_sf = standard_form(code), gf4_oracle.standard_form(code)
        comp = oracle_comp = sub = oracle_sub = rows = oracle_rows = None
        if code.is_self_orthogonal:
            comp = complementary_code(code, sf)
            oracle_comp = gf4_oracle.complementary_code(code, oracle_sf)
            sub = comp and _restricted_free_subcode(comp)
            oracle_sub = oracle_comp and gf4_oracle._restricted_free_subcode(oracle_comp)
            s_code = binary_s_code(code)
            rows, oracle_rows = s_code and s_code.rows, gf4_oracle.binary_s_rows(code)
            seen["k = 0"] += sf.k == 0
            seen["k1 >= 1"] += sf.k > 0 and sf.k1 >= 1
            seen["k1 >= 2k"] += sf.k > 0 and sf.k1 >= 2 * sf.k
        else:
            seen["not self-orthogonal"] += 1
        got = _reduction_rows(sf, sf.rows, comp, sub, rows)
        want = _reduction_rows(
            oracle_sf, oracle_sf.reassemble().generators, oracle_comp, oracle_sub, oracle_rows
        )
        bad += [(trial, key) for key in want if got[key] != want[key]]
    assert bad == []
    assert min(seen.values()) >= 50, seen
