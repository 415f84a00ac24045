"""GF(4) additive codes: parsing, duals, distances, reductions.

The oracles here work on GF(4) symbol tuples with itertools enumeration,
independent of the bitmask representation used by the library.
"""

import itertools
import os
import random
import threading
import time
from array import array
from fractions import Fraction as F

import pytest

import gf4_oracle
from qbounds import cli, gf4
from qbounds.errors import (
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    StructureError,
)
from qbounds.gf4 import (
    ENUMERATION_CAP,
    PARALLEL_RANK,
    AdditiveCode,
    _restricted_free_subcode,
    binary_s_code,
    complementary_code,
    enumerators,
    format_code,
    gf2_echelon,
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
    assert gf2_echelon(code.generators) == gf2_echelon(parse_code(FIVE_QUBIT).generators)


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


@pytest.mark.parametrize("text", ["XZ\nXZ\nXQ", "XZ\nXZ\nXZZ"])
def test_parse_reports_a_dependent_row_before_later_errors(text):
    # rows are read in order, so a malformed or ragged row after it goes unread
    with pytest.raises(ParseError, match="^line 2: row is linearly dependent on earlier rows$"):
        parse_code(text)


@pytest.mark.parametrize("text, line", [("IIII\nXXXX", 1), ("XXXX\nZZZZ / 0 0 0 0", 2)])
def test_parse_names_a_zero_row(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: row is zero$"):
        parse_code(text)


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_code("# nothing here\n")


def test_format_round_trip():
    for text in (FIVE_QUBIT, C422, "w w\n"):
        code = parse_code(text)
        back = parse_code(format_code(code))
        assert (back.n, gf2_echelon(back.generators)) == (code.n, gf2_echelon(code.generators))


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
        bidual = symplectic_dual(symplectic_dual(code))
        assert gf2_echelon(bidual.generators) == gf2_echelon(code.generators)


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
    for text in ("XX\nZX", "XII\nZII"):  # k = 0 and k = 1
        with pytest.raises(StructureError):
            reduction_witnesses(parse_code(text))


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


# ---------------------------------------------------------------------------
# the count split across forked processes
# ---------------------------------------------------------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fake_cpus(monkeypatch, cpus):
    assert cpus <= 4  # a test never starts more processes than this
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _counted_forks(monkeypatch):
    """Replace os.fork with a wrapper that records each call made in this process."""
    calls, real_fork = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _serial(code, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(gf4, "PARALLEL_RANK", ENUMERATION_CAP + 1)
        return weight_distribution(code)


def test_split_count_matches_oracle_and_serial_count(monkeypatch):
    rng = random.Random(1729)
    forks = _counted_forks(monkeypatch)
    for rank in range(PARALLEL_RANK - 2, 21):
        for n in (rank // 2 + 1, rank // 2 + 2):  # one odd and one even length
            code = _random_code(n, rank, rng)
            expected = gf4_oracle.weight_distribution(code)
            assert _serial(code, monkeypatch) == expected
            _assert_no_child_left()
            for cpus in (2, 3):
                _fake_cpus(monkeypatch, cpus)
                # below the threshold, the split is forced by lowering it
                monkeypatch.setattr(gf4, "PARALLEL_RANK", min(rank, PARALLEL_RANK))
                del forks[:]
                assert weight_distribution(code) == expected, (rank, n, cpus)
                assert len(forks) == cpus - 1
                _assert_no_child_left()


def test_count_processes_threshold_and_cpu_count(monkeypatch):
    _fake_cpus(monkeypatch, 4)
    assert gf4._count_processes(PARALLEL_RANK - 1) == 1
    assert gf4._count_processes(PARALLEL_RANK) == 4
    _fake_cpus(monkeypatch, 1)
    assert gf4._count_processes(ENUMERATION_CAP) == 1
    # without an affinity mask, the CPU count stands in
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert gf4._available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert gf4._available_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert gf4._count_processes(ENUMERATION_CAP) == 1


def test_split_count_never_exceeds_the_shares(monkeypatch):
    _fake_cpus(monkeypatch, 4)
    monkeypatch.setattr(gf4, "PARALLEL_RANK", 0)
    forks = _counted_forks(monkeypatch)
    rng = random.Random(5)
    for rank, processes in ((0, 1), (1, 1), (2, 2), (3, 2), (4, 4), (5, 4)):
        code = _random_code(4, rank, rng)
        del forks[:]
        assert weight_distribution(code) == gf4_oracle.weight_distribution(code)
        assert len(forks) == processes - 1
        _assert_no_child_left()


def _shared_maps(monkeypatch):
    """Replace gf4's mmap.mmap with a wrapper that records each map it creates."""
    maps, real_map = [], gf4.mmap.mmap

    def shared_map(*args):
        maps.append(real_map(*args))
        return maps[-1]

    monkeypatch.setattr(gf4.mmap, "mmap", shared_map)
    return maps


@pytest.mark.parametrize("failing", [(gf4.mmap, "mmap"), (os, "fork")], ids=["map", "fork"])
def test_split_count_survives_a_failed_fork(monkeypatch, failing):
    def refuse(*args):
        raise OSError(11, "Resource temporarily unavailable")

    code = _random_code(9, PARALLEL_RANK, random.Random(8))
    _fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(*failing, refuse)
    assert weight_distribution(code) == _serial(code, monkeypatch)
    _assert_no_child_left()


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_split_count_leaves_no_child_fd_or_map_behind(monkeypatch):
    code = _random_code(9, PARALLEL_RANK, random.Random(10))
    expected = _serial(code, monkeypatch)
    _fake_cpus(monkeypatch, 3)
    forks, maps = _counted_forks(monkeypatch), _shared_maps(monkeypatch)
    fds = _open_fds()
    assert weight_distribution(code) == expected
    assert len(forks) == 2 and len(maps) == 1 and maps[0].closed
    assert _open_fds() == fds
    _assert_no_child_left()


def test_count_below_the_threshold_creates_no_map(monkeypatch):
    code = _random_code(9, PARALLEL_RANK - 1, random.Random(11))
    _fake_cpus(monkeypatch, 2)
    forks, maps = _counted_forks(monkeypatch), _shared_maps(monkeypatch)
    assert weight_distribution(code) == gf4_oracle.weight_distribution(code)
    assert forks == [] and maps == []


def test_split_count_stays_serial_while_another_thread_runs(monkeypatch):
    code = _random_code(9, PARALLEL_RANK, random.Random(9))
    _fake_cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert weight_distribution(code) == gf4_oracle.weight_distribution(code)
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert forks == []
    assert weight_distribution(code) == gf4_oracle.weight_distribution(code)
    assert len(forks) == 1


def _sabotaged_children(monkeypatch, row, status):
    """Children that write ``row`` (None: nothing) into their row of the shared map
    and exit with ``status``, counting nothing."""
    maps, forks, real_fork, real_exit = _shared_maps(monkeypatch), [], os.fork, os._exit

    def fork():
        forks.append(None)
        pid = real_fork()
        if pid == 0:
            try:
                if status < 0:
                    os.kill(os.getpid(), -status)
                if row is not None:
                    width = 8 * len(row)  # child k writes row k; the parent keeps row 0
                    maps[-1][len(forks) * width : (len(forks) + 1) * width] = array("Q", row)
            finally:
                real_exit(status)
        return pid

    monkeypatch.setattr(os, "fork", fork)


def _share_counts(total, n):
    """n + 1 counts summing to ``total``, all at weight 0."""
    return [total] + [0] * n


# rank 16 in two shares: each share holds 2^15 words
SABOTAGE = {
    "exit 3 after counts of the right total": (_share_counts(1 << 15, 9), 3),
    "killed before writing": (None, -9),
    "the wrong total": (_share_counts(1 << 14, 9), 0),
    "nothing": (None, 0),
}


@pytest.mark.parametrize("row, status", SABOTAGE.values(), ids=SABOTAGE)
def test_parent_recounts_a_share_its_child_got_wrong(monkeypatch, row, status):
    code = _random_code(9, 16, random.Random(16))
    expected = _serial(code, monkeypatch)
    _fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(gf4, "PARALLEL_RANK", 16)
    _sabotaged_children(monkeypatch, row, status)
    assert weight_distribution(code) == expected
    _assert_no_child_left()


def test_split_count_is_verified_before_it_is_returned(monkeypatch):
    code = _random_code(9, 16, random.Random(16))
    _fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(gf4, "PARALLEL_RANK", 16)
    # a row of the right total, all at weight 0: counts[0] != 1
    _sabotaged_children(monkeypatch, _share_counts(1 << 15, 9), 0)
    with pytest.raises(InvariantError, match="weight count of a rank-16 code"):
        weight_distribution(code)
    _assert_no_child_left()


def test_unwinding_parent_kills_and_reaps_its_children(monkeypatch):
    parent, real_split = os.getpid(), gf4.split_halves

    class Interrupted(Exception):
        pass

    def split_halves(v, n):
        if os.getpid() == parent:
            raise Interrupted
        time.sleep(30)  # a child that would outlive the parent's count
        return real_split(v, n)

    code = _random_code(6, 8, random.Random(4))
    _fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(gf4, "PARALLEL_RANK", 0)
    monkeypatch.setattr(gf4, "split_halves", split_halves)
    maps, fds = _shared_maps(monkeypatch), _open_fds()
    began = time.monotonic()
    with pytest.raises(Interrupted):
        weight_distribution(code)
    assert time.monotonic() - began < 10
    assert len(maps) == 1 and maps[0].closed
    assert _open_fds() == fds
    _assert_no_child_left()


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
        assert gf2_echelon(sf.rows) == gf2_echelon(code.generators)
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
    targets = reduction_targets(sf)
    assert [(t.kind, t.length, t.dimension, t.restricted) for t in targets] == [
        ("mixed_additive", 3, 2, 0),
        ("additive", 3, 2, 0),
        ("binary", 6, 2, 0),
    ]


def test_reduction_targets_c422():
    code = parse_code(C422)
    targets = reduction_targets(standard_form(code))
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
    targets = reduction_targets(sf)
    kinds = [t.kind for t in targets]
    assert kinds == ["mixed_additive", "additive", "binary"]
    # and when k1 >= 2k the additive descriptor disappears: n=2 rank 3 would
    # be needed; build one on n=3 instead
    rng = random.Random(4)
    for _ in range(200):
        code = random_self_orthogonal_code(3, 2, rng)
        sf = standard_form(code)
        if sf.k1 >= 2 * sf.k > 0:
            targets = reduction_targets(sf)
            assert [t.kind for t in targets] == ["mixed_additive", "binary"]
            break
    else:
        pytest.skip("no k1 >= 2k example found in sweep")


def test_reduction_witnesses_never_count_the_enumerators(monkeypatch):
    def refuse(code):
        raise AssertionError("reduction_witnesses counted C and its dual")

    monkeypatch.setattr(gf4, "enumerators", refuse)
    for text in (FIVE_QUBIT, C422, STEANE, "w w", "XX\nZZ"):
        reduction_witnesses(parse_code(text))


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
        for witness in reduction_witnesses(code):
            if witness.distance != expected[witness.target.kind]:
                bad.append((trial, witness))
    assert bad == []
    assert min(seen.values()) >= 20, seen


def _span(code):
    """A code's length and the canonical basis of its span; None for no code."""
    return code and (code.n, gf2_echelon(code.generators))


def _reduction_rows(sf, sf_rows, comp, sub, binary_rows):
    """The standard form's rows, in order, and the span of every reduction code, by name."""
    return {
        "standard_form": (sf.k0, sf.k1, sf.permutation, sf.line_pivots, sf_rows),
        "complement": _span(comp and comp.code),
        "punctured": _span(comp and comp.punctured),
        "subcode": _span(sub),
        "binary_s_code": binary_rows and gf2_echelon(binary_rows),
    }


def test_reduction_layer_matches_symbol_list_oracle():
    """Eliminations on int words build the symbol-list layer's standard form and spans.

    The library's complement and binary rows are the canonical basis of their span,
    so they are pinned as well.
    """
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
            comp = complementary_code(code)
            oracle_comp = gf4_oracle.complementary_code(code, oracle_sf)
            sub = comp and _restricted_free_subcode(comp)
            oracle_sub = oracle_comp and gf4_oracle._restricted_free_subcode(oracle_comp)
            s_code = binary_s_code(code)
            rows, oracle_rows = s_code and s_code.rows, gf4_oracle.binary_s_rows(code)
            for canonical in (comp and comp.code.generators, rows):
                if canonical and list(canonical) != gf2_echelon(canonical):
                    bad.append((trial, "not canonical", canonical))
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


def _reduction_layer_codes():
    """The codes of the symbol-list oracle sweep above, drawn from the same seed."""
    rng = random.Random(1997)
    for trial in range(1300):
        if trial < 1000:
            n = rng.randint(1, 9) if trial % 3 == 0 else rng.randint(1, 10)
            code = random_self_orthogonal_code(n, rng.randint(1, n), rng)
            if trial % 3 == 0:
                code = _with_fixed_qubit(code, rng.randint(1, 3))
        else:
            n = rng.randint(1, 8)
            code = _random_code(n, rng.randint(0, 2 * n), rng)
        yield code


def test_standard_form_rows_are_a_reduced_echelon_basis():
    """Keyed by pivot bit, sf.rows hold their own pivot bit, no other, and span C."""
    for code in _reduction_layer_codes():
        sf, n = code.form, code.n
        pair = sf.permutation[: sf.k0]
        line = sf.permutation[sf.k0 : sf.k0 + sf.k1]
        # X then Z bit of each pair pivot; the high bit of each line pivot's symbol
        keys = [*pair, *(n + c for c in pair)]
        keys += [n + c if alpha & 2 else c for c, alpha in zip(line, sf.line_pivots)]
        assert len(set(keys)) == len(keys) == len(sf.rows) == code.rank
        for key, row in zip(keys, sf.rows):
            assert [(row >> p) & 1 for p in keys] == [int(p == key) for p in keys]
        assert gf2_echelon(sf.rows) == gf2_echelon(code.generators)


def test_reduction_witnesses_realize_their_targets():
    """Each witness has its target's kind, length and restriction, and no smaller dimension.

    The dimension is larger only for the additive reduction with k1 > 0, when a
    restricted column vanishes on the complement: then the subcode loses fewer
    than k1 dimensions, which only strengthens the bound it gives.
    """
    strict = 0
    for code in _reduction_layer_codes():
        if not code.is_self_orthogonal or code.rank == code.n:
            continue
        targets = reduction_targets(code.form)
        witnesses = [w.target for w in reduction_witnesses(code)]
        assert [t.kind for t in targets] == [w.kind for w in witnesses]
        for t, w in zip(targets, witnesses):
            assert (w.length, w.restricted) == (t.length, t.restricted)
            assert w.dimension >= t.dimension
            if w.dimension > t.dimension:
                assert t.kind == "additive" and code.form.k1 > 0
                strict += 1
    assert strict > 0


def _recombined(code, rng):
    """Other generators of the same span: shuffled, then each plus a random subset of the rest."""
    gens = list(code.generators)
    rng.shuffle(gens)
    for i in range(len(gens)):
        for j in range(len(gens)):
            if i != j and rng.getrandbits(1):
                gens[i] ^= gens[j]
    return AdditiveCode(code.n, tuple(gens))


def test_reduction_layer_depends_only_on_the_span(tmp_path, capsys):
    """Generators of the same span give the same reduction rows, witnesses and report."""
    rng = random.Random(1998)
    path = tmp_path / "code.code"

    def built(code):
        comp = complementary_code(code)
        path.write_text(format_code(code), encoding="utf-8")
        assert cli.main(["analyze", str(path)]) == 0
        return (
            comp.code.generators,
            comp.punctured.generators,
            _restricted_free_subcode(comp),
            binary_s_code(code).rows,
            reduction_witnesses(code),
            capsys.readouterr().out,
        )

    seen = {"k1 = 0": 0, "0 < k1 < 2k": 0, "degenerate": 0}
    for trial in range(90):
        n = rng.randint(3, 8)
        if trial % 3:
            code = random_self_orthogonal_code(n, rng.randint(2, n - 1), rng)
        else:
            # k = 1 plus a qubit fixed by a weight-1 stabilizer: degenerate once d >= 2
            code = random_self_orthogonal_code(n, n - 1, rng)
            code = _with_fixed_qubit(code, rng.randint(1, 3))
        other = _recombined(code, rng)
        while other.generators == code.generators:
            other = _recombined(code, rng)
        assert gf2_echelon(other.generators) == gf2_echelon(code.generators)
        assert built(other) == built(code), trial
        sf = code.form
        seen["k1 = 0"] += sf.k1 == 0
        seen["0 < k1 < 2k"] += 0 < sf.k1 < 2 * sf.k
        seen["degenerate"] += quantum_distance(code).degenerate
    assert min(seen.values()) >= 10, seen
