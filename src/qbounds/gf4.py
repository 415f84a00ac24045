"""GF(4) additive codes in binary symplectic form.

A length-n word is stored as one Python int with 2n bits: the low n bits
are the X half (a), the high n bits the Z half (b).  The GF(4) symbol at
coordinate i is the bit pair (a_i, b_i) under the fixed map

    0 <-> (0,0),    1 <-> (1,0),    w <-> (0,1),    x = w^2 <-> (1,1),

with Pauli letters reading X = 1, Z = w, Y = w^2.  Addition of symbols is
XOR of pairs, so a code closed under addition is exactly a GF(2)-subspace
of bit vectors.  Symplectic weight counts coordinates with a nonzero
pair; two words u, v commute when <a_u, b_v> + <a_v, b_u> = 0 mod 2.

Every word, the standard form and the reduction codes included, stays an
int.  GF(4) symbols appear only when text is parsed or formatted and where
:func:`symbol` reads one coordinate as a 2-bit int 0..3 (bit 0 = a,
bit 1 = b); no elimination works on lists of symbols.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, or_, xor
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    StructureError,
)
from .exact import macwilliams_transform

if TYPE_CHECKING:
    import random

# Exhaustive weight scans walk 2^rank words; beyond this we refuse.  On a
# 2-vCPU host one scan takes 0.7-0.95 s at rank 22 and 12 s at rank 26 in
# one process, and 0.5-0.8 s and 7 s split over both CPUs.
ENUMERATION_CAP = 26
# From this rank up, weight_distribution splits its count across forked
# processes, one per available CPU, which hand their counts back through
# one shared map.  A fork, its child's first page faults and its reaping
# cost about 1.5 ms on a 2-vCPU host, where a serial count takes about 3 ms
# at rank 14, 6 ms at rank 15 and 12 ms at rank 16.  Over three 30 s runs
# each of the code_corpus benchmark, its median wall_s read 0.830 s serial,
# and 0.580, 0.599 and 0.642 s splitting from rank 15, 16 and 17 up, with
# op_p50_ms level (1.75, 1.78, 1.76 and 1.77 ms).
PARALLEL_RANK = 15

_SYMBOL_CHARS = "01wx"
_PAULI_TO_SYMBOL = {"I": 0, "X": 1, "Z": 2, "Y": 3}


# ---------------------------------------------------------------------------
# bit-level helpers
# ---------------------------------------------------------------------------


def split_halves(v: int, n: int) -> tuple[int, int]:
    return v & ((1 << n) - 1), v >> n


def symplectic_weight(v: int, n: int) -> int:
    a, b = split_halves(v, n)
    return (a | b).bit_count()


def symplectic_product(u: int, v: int, n: int) -> int:
    au, bu = split_halves(u, n)
    av, bv = split_halves(v, n)
    return ((au & bv) ^ (av & bu)).bit_count() & 1


def _swap_halves(v: int, n: int) -> int:
    a, b = split_halves(v, n)
    return b | (a << n)


def symbols_to_int(symbols: Sequence[int], n: int) -> int:
    v = 0
    for i, s in enumerate(symbols):
        v |= (s & 1) << i
        v |= ((s >> 1) & 1) << (n + i)
    return v


def symbol(v: int, c: int, n: int) -> int:
    """The GF(4) symbol of word v at coordinate c, as a 2-bit int."""
    return ((v >> c) & 1) | (((v >> (n + c)) & 1) << 1)


def _gather(v: int, positions: Sequence[int]) -> int:
    """The bits of v at ``positions``, packed from bit 0 up in that order."""
    out = 0
    for i, p in enumerate(positions):
        out |= ((v >> p) & 1) << i
    return out


def _restrict(v: int, cols: Sequence[int], n: int) -> int:
    """The length-n word v restricted to coordinates ``cols``, in that order."""
    return _gather(v, [*cols, *(n + c for c in cols)])


def _highest_bit(v: int) -> int:
    return v.bit_length() - 1


def _lowest_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


def _rref(rows: Iterable[int], pivot_of: Callable[[int], int]) -> dict[int, int]:
    """Reduced row echelon basis of span(rows), keyed by pivot bit.

    A row's pivot is ``pivot_of(row)``, and every basis row is 0 at every
    other pivot.  The basis depends only on the span and the pivot rule,
    which stays the caller's choice: the highest-bit basis of
    :func:`gf2_echelon` is the canonical form of a span, and the lowest-bit
    pivots of :func:`binary_s_code` fix the columns it keeps.
    """
    basis: dict[int, int] = {}
    for row in rows:
        _insert(basis, row, pivot_of)
    return basis


def _insert(basis: dict[int, int], row: int, pivot_of: Callable[[int], int]) -> bool:
    """Add row to the reduced echelon ``basis``; False when it is already in the span."""
    row = _reduce(row, basis)
    if not row:
        return False
    pivot = pivot_of(row)
    for p, r in list(basis.items()):
        if (r >> pivot) & 1:
            basis[p] = r ^ row
    basis[pivot] = row
    return True


def _reduce(v: int, basis: dict[int, int]) -> int:
    """v with every pivot bit cleared by the reduced echelon ``basis``, in one pass."""
    for p, r in basis.items():
        if (v >> p) & 1:
            v ^= r
    return v


def gf2_echelon(rows: Iterable[int]) -> list[int]:
    """Reduced echelon basis (pivot = highest set bit), sorted by pivot."""
    basis = _rref(rows, _highest_bit)
    return [basis[p] for p in sorted(basis, reverse=True)]


def gf2_rank(rows: Iterable[int]) -> int:
    return len(gf2_echelon(rows))


def gf2_nullspace(rows: Sequence[int], width: int) -> list[int]:
    """Basis of {v : <row, v> = 0 mod 2 for every row}."""
    pivots = _rref(rows, _lowest_bit)
    basis = []
    for j in range(width):
        if j in pivots:
            continue
        v = 1 << j
        for col, prow in pivots.items():
            if (prow >> j) & 1:
                v |= 1 << col
        basis.append(v)
    return basis


def iter_span(generators: Sequence[int]) -> Iterator[int]:
    """All GF(2) combinations in Gray-code order, starting at 0."""
    v = 0
    yield v
    for i in range(1, 1 << len(generators)):
        v ^= generators[(i & -i).bit_length() - 1]
        yield v


# ---------------------------------------------------------------------------
# the code object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveCode:
    """An additive GF(4) code given by independent generators.

    ``generators`` are 2n-bit ints as described in the module docstring.
    The code is their GF(2) span; rank equals log2 of the code size.
    """

    n: int
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"code length must be >= 1, got {self.n}")
        gens = tuple(int(g) for g in self.generators)
        for g in gens:
            if g < 0 or g >> (2 * self.n):
                raise ParameterError(f"generator 0x{g:x} does not fit length {self.n}")
        if gf2_rank(gens) != len(gens):
            raise ParameterError("generators are linearly dependent")
        object.__setattr__(self, "generators", gens)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def is_self_orthogonal(self) -> bool:
        """Whether every pair of generators commutes (computed once per code)."""
        gens = self.generators
        return all(
            symplectic_product(gens[i], gens[j], self.n) == 0
            for i in range(len(gens))
            for j in range(i, len(gens))
        )

    @cached_property
    def dual(self) -> AdditiveCode:
        """:func:`symplectic_dual` of the code (computed once per code)."""
        return symplectic_dual(self)

    @cached_property
    def form(self) -> StandardForm:
        """:func:`standard_form` of the code (computed once per code)."""
        return standard_form(self)


def _basis_code(n: int, rows: Iterable[int]) -> AdditiveCode:
    """The code spanned by ``rows``, independent and of length n by construction.

    For bases the package builds itself (a reduced echelon basis, or one
    restricted to columns where its rows hold all their bits), the
    constructor's checks, its rank re-check above all, would only repeat
    what the construction guarantees; every other input goes through them.
    """
    code = object.__new__(AdditiveCode)
    object.__setattr__(code, "n", n)
    object.__setattr__(code, "generators", tuple(rows))
    return code


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def parse_code(text: str) -> AdditiveCode:
    """Parse generators from text: Pauli strings or space-separated GF(4) rows.

    '#' starts a comment; '/' also separates rows on one line.  Pauli rows
    use {I, X, Y, Z}; GF(4) rows use tokens {0, 1, w, x}.  Rows must have
    equal length and be linearly independent.
    """
    rows: list[int] = []
    n: int | None = None
    basis: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for piece in line.split("/"):
            piece = piece.strip()
            if not piece:
                continue
            symbols = _parse_row(piece, lineno)
            if n is None:
                n = len(symbols)
            elif len(symbols) != n:
                raise ParseError(
                    f"line {lineno}: row has length {len(symbols)}, expected {n}"
                )
            v = symbols_to_int(symbols, n)
            if not _insert(basis, v, _highest_bit):
                reason = "is linearly dependent on earlier rows" if v else "is zero"
                raise ParseError(f"line {lineno}: row {reason}")
            rows.append(v)
    if n is None:
        raise ParseError("no generator rows found")
    return AdditiveCode(n, tuple(rows))


def _parse_row(piece: str, lineno: int) -> list[int]:
    if " " not in piece and all(ch in _PAULI_TO_SYMBOL for ch in piece):
        return [_PAULI_TO_SYMBOL[ch] for ch in piece]
    symbols = []
    for token in piece.split():
        if token not in _SYMBOL_CHARS or len(token) != 1:
            raise ParseError(f"line {lineno}: unknown symbol {token!r}")
        symbols.append(_SYMBOL_CHARS.index(token))
    if not symbols:
        raise ParseError(f"line {lineno}: empty row")
    return symbols


def format_code(code: AdditiveCode) -> str:
    """Render generators as GF(4) rows, one per line."""
    n = code.n
    lines = [
        " ".join(_SYMBOL_CHARS[symbol(g, c, n)] for c in range(n)) for g in code.generators
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# duals, distances, enumerators
# ---------------------------------------------------------------------------


def symplectic_dual(code: AdditiveCode) -> AdditiveCode:
    """All words symplectically orthogonal to every generator."""
    swapped = [_swap_halves(g, code.n) for g in code.generators]
    basis = gf2_echelon(gf2_nullspace(swapped, 2 * code.n))
    if len(basis) != 2 * code.n - code.rank:
        raise InvariantError("dual rank mismatch")
    return _basis_code(code.n, basis)


@dataclass(frozen=True)
class QuantumParams:
    """Stabilizer parameters recovered from a self-orthogonal code."""

    n: int
    k: int
    K: int
    d: int
    degenerate: bool


def _require_self_orthogonal(code: AdditiveCode) -> None:
    if not code.is_self_orthogonal:
        raise StructureError("code is not self-orthogonal under the symplectic product")
    if code.rank > code.n:
        raise StructureError("self-orthogonal code cannot have rank above n")


def _span_list(generators: Sequence[int]) -> list[int]:
    """All GF(2) combinations of the generators, built by doubling."""
    words = [0]
    for g in generators:
        words += list(map(xor, words, repeat(g)))
    return words


def _require_enumerable(rank: int) -> None:
    if rank > ENUMERATION_CAP:
        raise CapacityError(f"rank {rank} exceeds enumeration cap {ENUMERATION_CAP}")


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_processes(rank: int) -> int:
    """How many processes count a rank-``rank`` span: one unless forking can pay.

    Forking is left alone where it is missing and where another thread is
    alive, since a forked child holds a copy of every lock some thread may
    hold at that moment.  ``threading`` is read from ``sys.modules`` so that
    a process without threads does not import it.
    """
    if rank < PARALLEL_RANK or not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return _available_cpus()


def _count_shares(
    count: Callable[[Sequence[int]], list[int]],
    shares: Sequence[Sequence[int]],
    length: int,
    words_per_entry: int,
) -> list[int]:
    """The elementwise sum of ``count(share)`` over the shares, ``length`` counts each.

    The parent counts share 0 and a forked child each other share, which
    writes its row of ``length`` unsigned 64-bit counts into one shared map
    and leaves with ``os._exit``.  The ``finally`` block reaps every child,
    killing it first when the parent is unwinding.  The parent counts a
    share itself when the map or its fork fails, when its child exits
    nonzero, or when its row does not sum to ``words_per_entry`` per entry.
    """
    if len(shares) == 1:
        return count(shares[0])
    width = 8 * length
    try:
        rows = mmap.mmap(-1, width * len(shares))
    except OSError:
        return [sum(column) for column in zip(*map(count, shares))]
    children: dict[int, int] = {}
    statuses: dict[int, int] = {}
    with rows:
        finished = False
        try:
            for i in range(1, len(shares)):
                try:
                    pid = os.fork()
                except OSError:
                    continue
                if pid == 0:
                    status = 1
                    try:
                        rows[i * width : (i + 1) * width] = array("Q", count(shares[i]))
                        status = 0
                    finally:
                        os._exit(status)
                children[i] = pid
            totals = count(shares[0])
            finished = True
        finally:
            for i, pid in children.items():
                try:
                    if not finished:
                        os.kill(pid, signal.SIGKILL)
                    statuses[i] = os.waitpid(pid, 0)[1]
                except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
                    statuses[i] = -1
        for i in range(1, len(shares)):
            counts = array("Q", rows[i * width : (i + 1) * width]).tolist()
            if statuses.get(i) != 0 or sum(counts) != len(shares[i]) * words_per_entry:
                counts = count(shares[i])
            totals = list(map(add, totals, counts))
    return totals


def weight_distribution(code: AdditiveCode) -> tuple[int, ...]:
    """Counts of code words by symplectic weight; entry 0 equals 1.

    Split-span count: the generators split into a low half of
    ceil(rank/2) and a high half, each spanned into a plain list.  Every
    code word is h ^ l for one high word h and one low word l, so each h
    counts the whole low block in one pass of C-level ``map``s over the
    low block's X and Z halves.  At ``ENUMERATION_CAP`` the three lists
    (low X halves, low Z halves, high words) hold at most 3 * 2^13 ints.

    From rank ``PARALLEL_RANK`` up, the high words split into one
    contiguous share per CPU the process may run on (its affinity mask,
    else ``os.cpu_count()``), and every share after the first is counted
    in a forked child process that writes its n + 1 counts into its row of
    one shared map.  The count stays in this process below that rank, with
    one CPU, where ``os.fork`` is missing, or while another thread is
    alive.  The summed counts are checked (entry 0 is 1, the total is
    2^rank) before they are returned.
    """
    gens, n = code.generators, code.n
    rank = len(gens)
    _require_enumerable(rank)
    low, mask = gens[: (rank + 1) // 2], (1 << n) - 1
    low_a = _span_list([g & mask for g in low])
    low_b = _span_list([g >> n for g in low])
    high = _span_list(gens[len(low):])

    def count(share: Sequence[int]) -> list[int]:
        counts: Counter[int] = Counter()
        for h in share:
            h_a, h_b = split_halves(h, n)
            counts.update(
                map(
                    int.bit_count,
                    map(or_, map(xor, low_a, repeat(h_a)), map(xor, low_b, repeat(h_b))),
                )
            )
        return list(map(counts.__getitem__, range(n + 1)))

    parts = min(_count_processes(rank), len(high))
    shares = [high[i * len(high) // parts : (i + 1) * len(high) // parts] for i in range(parts)]
    counts = _count_shares(count, shares, n + 1, len(low_a))
    if counts[0] != 1 or sum(counts) != 1 << rank:
        raise InvariantError(f"weight count of a rank-{rank} code is {counts}")
    return tuple(counts)


def _first_nonzero_weight(distribution: Sequence[int]) -> int | None:
    return next((i for i in range(1, len(distribution)) if distribution[i]), None)


@dataclass(frozen=True)
class EnumeratorPair:
    """Weight distributions A of C and B of dual(C), with K = 2**k.

    The pair satisfies A_t = (1/(2^n K)) sum_i B_i P_t(i, n) exactly; the
    constructor path in :func:`enumerators` verifies this before returning.
    C lies in its dual, so B_i - A_i counts the words of dual(C) \\ C of
    weight i: :attr:`params` reads the quantum distance off the pair.
    """

    A: tuple[int, ...]
    B: tuple[int, ...]
    K: int

    @property
    def params(self) -> QuantumParams:
        """d = min{i : B_i > A_i}, or the least nonzero weight of C when k = 0."""
        n = len(self.A) - 1
        k = self.K.bit_length() - 1
        min_c = _first_nonzero_weight(self.A)
        if k == 0:
            return QuantumParams(n, 0, 1, min_c, False)
        d = next(i for i in range(n + 1) if self.B[i] > self.A[i])
        return QuantumParams(n, k, self.K, d, min_c is not None and min_c < d)


def enumerators(code: AdditiveCode) -> EnumeratorPair:
    _require_self_orthogonal(code)
    n = code.n
    k = n - code.rank
    # dual(C), of rank 2n - rank, is never smaller than C: refuse it before building it
    _require_enumerable(2 * n - code.rank)
    B = weight_distribution(code.dual)
    A = weight_distribution(code)
    K = 1 << k
    scale = (1 << n) * K
    transformed = macwilliams_transform(B, n, 4, scale)
    if list(A) != transformed:
        raise InvariantError(
            f"enumerator transform identity failed: {A} != {transformed}"
        )
    return EnumeratorPair(A, B, K)


def quantum_distance(code: AdditiveCode) -> QuantumParams:
    """Stabilizer parameters of a self-orthogonal C, read off its enumerators.

    d is the minimum symplectic weight over dual(C) \\ C, the least i with
    B_i > A_i; for k = 0 (C equal to its own dual) the convention is the
    minimum nonzero weight of C itself.  ``degenerate`` records whether C
    contains a nonzero word of weight below d.
    """
    return enumerators(code).params


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardForm:
    """A code's generators sorted by pivot type, in the original coordinates.

    ``permutation`` lists the k0 pair-pivot columns, then the k1 line-pivot
    columns, then the other columns in increasing order.  ``rows`` holds
    2 * k0 + k1 words spanning exactly the input code: row j has symbol 1
    and row k0 + j symbol w at pair-pivot column ``permutation[j]``, where
    every other row is 0; row 2 * k0 + j has symbol ``line_pivots[j]`` at
    line-pivot column ``permutation[k0 + j]`` and is 0 at every pair-pivot
    column.
    """

    n: int
    k0: int
    k1: int
    rows: tuple[int, ...]
    permutation: tuple[int, ...]
    line_pivots: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.n - 2 * self.k0 - self.k1


def standard_form(code: AdditiveCode) -> StandardForm:
    """Classify coordinates into pair pivots (k0), line pivots (k1), tail.

    Deterministic symplectic Gaussian elimination on the generators' ints:
    one pass over the columns in increasing order takes as pair pivots
    those whose residual projection spans all of GF(4).  The rows left after
    a pivot lie in the span of those before it, so a column passed over
    never becomes a pair pivot later.  The remaining rows then meet each
    column in one symbol line at most, and :func:`_rref` of them takes as
    line pivots the columns where a row's lowest nonzero symbol sits.  Row
    operations are GF(2) additions only; no coordinate is rescaled, so a
    line pivot keeps whatever symbol the code provides (recorded in
    ``line_pivots``).  Keyed by pivot bit (the X and Z bits of a pair pivot,
    the high bit of a line pivot's symbol), ``rows`` is a reduced echelon
    basis of the code.
    """
    n = code.n
    remaining = list(code.generators)
    one_rows: list[int] = []
    omega_rows: list[int] = []
    k0_cols: list[int] = []

    # pair pivots: columns whose residual projection is all of GF(4)
    for col in range(n):
        column = [symbol(r, col, n) for r in remaining]
        if len(set(column) - {0}) < 2:
            continue
        i1 = next(i for i, s in enumerate(column) if s)
        i2 = next(i for i, s in enumerate(column) if s not in (0, column[i1]))
        r1, r2 = remaining[i1], remaining[i2]
        # the row, of 0, r1, r2 and r1 ^ r2, that carries each symbol at col
        elim = {symbol(r, col, n): r for r in (0, r1, r2, r1 ^ r2)}
        remaining = [
            r ^ elim[s] for i, (r, s) in enumerate(zip(remaining, column)) if i not in (i1, i2)
        ]
        one_rows = [r ^ elim[symbol(r, col, n)] for r in one_rows] + [elim[1]]
        omega_rows = [r ^ elim[symbol(r, col, n)] for r in omega_rows] + [elim[2]]
        k0_cols.append(col)

    # line pivots: each column now meets the remaining rows in one symbol line
    # at most, so their reduced echelon basis, pivoted at the high bit of a
    # row's lowest nonzero symbol, takes one bit per line-pivot column
    def line_bit(row: int) -> int:
        col = _lowest_bit(row | row >> n)
        return n + col if (row >> (n + col)) & 1 else col

    line = _rref(remaining, line_bit)
    if len(line) != len(remaining):
        raise InvariantError("independent rows left unconsumed by elimination")
    bits = sorted(line, key=lambda p: p % n)
    k1_cols = [p % n for p in bits]
    if len(set(k1_cols)) != len(k1_cols):
        raise InvariantError("two line pivots in one column")
    # the pair rows, reduced at the line pivots to canonical coset reps
    rows = [_reduce(r, line) for r in one_rows + omega_rows] + [line[p] for p in bits]
    pivots = [symbol(line[p], p % n, n) for p in bits]

    used = k0_cols + k1_cols
    return StandardForm(
        n=n,
        k0=len(k0_cols),
        k1=len(k1_cols),
        rows=tuple(rows),
        permutation=tuple(used + [c for c in range(n) if c not in used]),
        line_pivots=tuple(pivots),
    )


# ---------------------------------------------------------------------------
# complementary codes and classical reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplementaryCode:
    """Coset representatives generating dual(C) modulo C.

    ``code`` lives in the original coordinates: the :func:`gf2_echelon`
    basis of the words of dual(C) that are 0 at the standard form's pivot
    bits, one per coset of C; with C they span dual(C).  ``punctured`` is
    the same set of rows in standard-form coordinate order with the k0
    pair-pivot columns (where all rows vanish) removed: length n - k0, the
    first k1 coordinates restricted to at most one nonzero symbol each.
    Every nonzero word of the punctured span has symplectic weight >= the
    quantum distance of C.
    """

    code: AdditiveCode
    punctured: AdditiveCode
    k0: int
    k1: int


def _complement(code: AdditiveCode, basis: dict[int, int]) -> list[int]:
    """:func:`gf2_echelon` of the dual's words that are 0 at the pivot bits of ``basis``.

    ``basis`` is a reduced echelon basis of C, so :func:`_reduce` takes each
    word of dual(C) to the one word of its coset that is 0 at those bits.
    """
    rows = gf2_echelon(_reduce(g, basis) for g in code.dual.generators)
    if len(rows) != 2 * (code.n - code.rank):
        raise InvariantError("complement basis has wrong rank")
    return rows


def complementary_code(code: AdditiveCode) -> ComplementaryCode | None:
    """Reduced complement of C inside dual(C); None when k = 0."""
    _require_self_orthogonal(code)
    n = code.n
    k = n - code.rank
    if k == 0:
        return None
    sf = code.form
    k0, cols = sf.k0, sf.permutation
    # sf.rows keyed by pivot bit: X then Z bit of each pair pivot, then the
    # high bit of each line pivot's symbol; a reduced echelon basis of C
    bits = [*cols[:k0], *(n + c for c in cols[:k0])]
    bits += [c + n * (alpha >> 1) for c, alpha in zip(cols[k0:], sf.line_pivots)]
    basis = dict(zip(bits, sf.rows))
    reduced = _complement(code, basis)
    if any((v >> p) & 1 for v in reduced for p in basis):
        raise InvariantError("complement row keeps a pivot bit of C")
    if gf2_rank(list(code.generators) + reduced) != n + k:
        raise InvariantError("complement stacked with C does not span the dual")
    # the rows are 0 at the pair-pivot columns, so restriction keeps them independent
    punctured = _basis_code(n - k0, (_restrict(v, cols[k0:], n) for v in reduced))
    return ComplementaryCode(_basis_code(n, reduced), punctured, k0, sf.k1)


def min_nonzero_weight(code: AdditiveCode) -> int:
    """Minimum symplectic weight over the nonzero words (exhaustive)."""
    best = _first_nonzero_weight(weight_distribution(code))
    if best is None:
        raise ParameterError("trivial code has no nonzero words")
    return best


@dataclass(frozen=True)
class ReductionTarget:
    """A classical code family whose best minimum distance upper-bounds d.

    ``dimension`` is log2 of the code size; ``restricted`` counts leading
    coordinates limited to a single nonzero symbol (mixed codes only).
    The relation carried by every target: quantum d <= classical d.
    """

    kind: str  # "mixed_additive" | "additive" | "binary"
    length: int
    dimension: int
    restricted: int = 0


def reduction_targets(sf: StandardForm) -> list[ReductionTarget]:
    """Classical descriptors implied by the code's (k0, k1) structure.

    :func:`reduction_witnesses` lists a concrete code for each target, kind
    for kind, with the same length and restriction.  Its dimension is the
    target's, except for the additive kind with k1 > 0: a restricted column
    that vanishes on the complement costs the subcode no dimension, so the
    witness can be larger, which only strengthens the bound.
    """
    n, k, k0, k1 = sf.n, sf.k, sf.k0, sf.k1
    targets = [
        ReductionTarget("mixed_additive", n - k0, 2 * k, restricted=k1),
    ]
    if k1 == 0:
        targets.append(ReductionTarget("additive", (n + k) // 2, 2 * k))
    elif k1 < 2 * k:
        targets.append(ReductionTarget("additive", (n + k - k1) // 2, 2 * k - k1))
    targets.append(ReductionTarget("binary", n + k, 2 * k))
    return targets


@dataclass(frozen=True)
class ReductionWitness:
    """A concrete classical code realizing a reduction target."""

    target: ReductionTarget
    distance: int


def _restricted_free_subcode(comp: ComplementaryCode) -> AdditiveCode | None:
    """Subcode of the punctured complement vanishing on the restricted columns.

    It is the kernel on the restricted columns' bits: in the reduced echelon
    basis pivoted at a row's lowest restricted bit, the rows that have none.
    """
    k1, m = comp.k1, comp.punctured.n
    if k1 == 0:
        return None
    rows = comp.punctured.generators
    if any(len({symbol(r, c, m) for r in rows} - {0}) > 1 for c in range(k1)):
        raise InvariantError("restricted column carries two distinct symbols")
    restricted = ((1 << k1) - 1) * ((1 << m) + 1)  # X and Z bits of columns 0 .. k1 - 1
    basis = _rref(rows, lambda r: _lowest_bit(r & restricted or r))
    tail = [_restrict(r, range(k1, m), m) for r in basis.values() if not r & restricted]
    return _basis_code(m - k1, tail) if tail else None


def reduction_witnesses(code: AdditiveCode) -> list[ReductionWitness]:
    """Brute-forced classical distances of the concrete reduction codes; none when k = 0."""
    comp = complementary_code(code)
    if comp is None:
        return []
    punctured, k1 = comp.punctured, comp.k1
    mixed = ReductionWitness(
        ReductionTarget("mixed_additive", punctured.n, punctured.rank, restricted=k1),
        min_nonzero_weight(punctured),
    )
    witnesses = [mixed]
    if k1 == 0:
        target = ReductionTarget("additive", punctured.n, punctured.rank)
        witnesses.append(ReductionWitness(target, mixed.distance))
    elif k1 < 2 * (code.n - code.rank):
        # each restricted column costs at most one dimension: rank >= 2k - k1 > 0
        sub = _restricted_free_subcode(comp)
        target = ReductionTarget("additive", sub.n, sub.rank)
        witnesses.append(ReductionWitness(target, min_nonzero_weight(sub)))
    s_code = binary_s_code(code)
    assert s_code is not None
    target = ReductionTarget("binary", s_code.length, s_code.dimension)
    witnesses.append(ReductionWitness(target, s_code.distance))
    return witnesses


# ---------------------------------------------------------------------------
# binary reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinarySCode:
    """Binary [n+k, 2k] code whose minimum distance dominates the quantum d.

    Rows are ints over ``length`` bit columns: the words of dual(C) that
    are 0 at the lowest-bit pivots of C, one per coset of C, restricted to
    the pivot-free columns.  They are the :func:`gf2_echelon` basis of
    their span.  Every nonzero word corresponds to an element of dual(C) \\ C
    whose binary weight is at least its symplectic weight.
    """

    length: int
    dimension: int
    rows: tuple[int, ...]
    distance: int


def binary_s_code(code: AdditiveCode) -> BinarySCode | None:
    """Binary complementary reduction; None when k = 0."""
    _require_self_orthogonal(code)
    n = code.n
    k = n - code.rank
    if k == 0:
        return None

    # RREF of the binary generator matrix, X columns first then Z columns.
    pivot_rows = _rref(code.generators, _lowest_bit)
    free_cols = [j for j in range(2 * n) if j not in pivot_rows]
    if len(free_cols) != n + k:
        raise InvariantError("pivot count disagrees with code rank")
    rows = [_gather(w, free_cols) for w in _complement(code, pivot_rows)]
    if gf2_rank(rows) != 2 * k:
        raise InvariantError("binary reduction rows are dependent")
    # the rows fill only the X half, where symplectic weight is Hamming weight
    distance = min_nonzero_weight(_basis_code(n + k, rows))
    return BinarySCode(length=n + k, dimension=2 * k, rows=tuple(rows), distance=distance)


# ---------------------------------------------------------------------------
# random code generation (test corpus support)
# ---------------------------------------------------------------------------


def random_self_orthogonal_code(
    n: int, rank: int, rng: random.Random
) -> AdditiveCode:
    """Random self-orthogonal code of the given length and rank."""
    if not 0 < rank <= n:
        raise ParameterError(f"rank must be in [1, n], got {rank}")
    gens: list[int] = []
    basis: dict[int, int] = {}
    while len(gens) < rank:
        if gens:
            dual = symplectic_dual(AdditiveCode(n, tuple(gens)))
            pool = dual.generators
        else:
            pool = tuple(1 << j for j in range(2 * n))
        for _ in range(64):
            v = 0
            for g in pool:
                if rng.getrandbits(1):
                    v ^= g
            if _insert(basis, v, _highest_bit):
                gens.append(v)
                break
        else:
            raise InvariantError("failed to extend self-orthogonal code")
    return AdditiveCode(n, tuple(gens))
