"""GF(4) additive codes in binary symplectic form.

A length-n word is stored as one Python int with 2n bits: the low n bits
are the X half (a), the high n bits the Z half (b).  The GF(4) symbol at
coordinate i is the bit pair (a_i, b_i) under the fixed map

    0 <-> (0,0),    1 <-> (1,0),    w <-> (0,1),    x = w^2 <-> (1,1),

with Pauli letters reading X = 1, Z = w, Y = w^2.  Addition of symbols is
XOR of pairs, so a code closed under addition is exactly a GF(2)-subspace
of bit vectors.  Symplectic weight counts coordinates with a nonzero
pair; two words u, v commute when <a_u, b_v> + <a_v, b_u> = 0 mod 2.

Symbols are also handled as 2-bit ints 0..3 (bit 0 = a, bit 1 = b) when
per-coordinate elimination is more convenient than bit masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    StructureError,
)
from .exact import macwilliams_transform

# Exhaustive weight scans walk 2^rank words; beyond this we refuse.
ENUMERATION_CAP = 26

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


def int_to_symbols(v: int, n: int) -> tuple[int, ...]:
    a, b = split_halves(v, n)
    return tuple(((a >> i) & 1) | (((b >> i) & 1) << 1) for i in range(n))


def gf2_echelon(rows: Iterable[int]) -> list[int]:
    """Reduced echelon basis (pivot = highest set bit), sorted by pivot."""
    basis: dict[int, int] = {}
    for row in rows:
        for p, r in basis.items():
            if (row >> p) & 1:
                row ^= r
        if row:
            pivot = row.bit_length() - 1
            for p, r in list(basis.items()):
                if (r >> pivot) & 1:
                    basis[p] = r ^ row
            basis[pivot] = row
    return [basis[p] for p in sorted(basis, reverse=True)]


def _reduce_by(v: int, basis: dict[int, int]) -> int:
    while v:
        pivot = v.bit_length() - 1
        row = basis.get(pivot)
        if row is None:
            return v
        v ^= row
    return v


def gf2_rank(rows: Iterable[int]) -> int:
    return len(gf2_echelon(rows))


def gf2_nullspace(rows: Sequence[int], width: int) -> list[int]:
    """Basis of {v : <row, v> = 0 mod 2 for every row}."""
    pivots: dict[int, int] = {}  # pivot column (lowest set bit) -> row
    for row in rows:
        for col, prow in pivots.items():
            if (row >> col) & 1:
                row ^= prow
        if row:
            col = (row & -row).bit_length() - 1
            for c, prow in list(pivots.items()):
                if (prow >> col) & 1:
                    pivots[c] = prow ^ row
            pivots[col] = row
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

    @property
    def size(self) -> int:
        return 1 << self.rank

    @cached_property
    def echelon(self) -> tuple[int, ...]:
        return tuple(gf2_echelon(self.generators))

    def contains(self, v: int) -> bool:
        basis = {row.bit_length() - 1: row for row in self.echelon}
        return _reduce_by(v, basis) == 0

    def words(self) -> Iterator[int]:
        if self.rank > ENUMERATION_CAP:
            raise CapacityError(
                f"rank {self.rank} exceeds enumeration cap {ENUMERATION_CAP}"
            )
        return iter_span(self.generators)

    def is_self_orthogonal(self) -> bool:
        gens = self.generators
        return all(
            symplectic_product(gens[i], gens[j], self.n) == 0
            for i in range(len(gens))
            for j in range(i, len(gens))
        )


def codes_equal(a: AdditiveCode, b: AdditiveCode) -> bool:
    """Span equality (generator sets may differ)."""
    return a.n == b.n and a.echelon == b.echelon


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
            residue = _reduce_by(v, basis)
            if residue == 0:
                raise ParseError(
                    f"line {lineno}: row is linearly dependent on earlier rows"
                )
            basis[residue.bit_length() - 1] = residue
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
    lines = []
    for g in code.generators:
        lines.append(" ".join(_SYMBOL_CHARS[s] for s in int_to_symbols(g, code.n)))
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
    return AdditiveCode(code.n, tuple(basis))


@dataclass(frozen=True)
class QuantumParams:
    """Stabilizer parameters recovered from a self-orthogonal code."""

    n: int
    k: int
    K: int
    d: int
    degenerate: bool


def _require_self_orthogonal(code: AdditiveCode) -> None:
    if not code.is_self_orthogonal():
        raise StructureError("code is not self-orthogonal under the symplectic product")
    if code.rank > code.n:
        raise StructureError("self-orthogonal code cannot have rank above n")


def weight_distribution(code: AdditiveCode) -> tuple[int, ...]:
    """Counts of code words by symplectic weight; entry 0 equals 1."""
    counts = [0] * (code.n + 1)
    for w in code.words():
        counts[symplectic_weight(w, code.n)] += 1
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
    # dual(C) is never smaller than C, so its cap check comes first
    B = weight_distribution(symplectic_dual(code))
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


def _xor_rows(r1: Sequence[int], r2: Sequence[int]) -> list[int]:
    return [a ^ b for a, b in zip(r1, r2)]


@dataclass(frozen=True)
class StandardForm:
    """Generator matrix organized by pivot type under a column permutation.

    The first k0 columns carry pivot pairs (symbols 1 and w in rows j and
    k0 + j), the next k1 columns carry single-line pivots whose symbol is
    recorded in ``line_pivots``; row i of ``matrix`` lists GF(4) symbols in
    the permuted coordinate order.  Column j of the permuted matrix is
    original coordinate ``permutation[j]``.  Only coordinate permutations
    are applied, so reassembling the matrix and undoing the permutation
    spans exactly the input code.
    """

    n: int
    k0: int
    k1: int
    matrix: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...]
    line_pivots: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.n - 2 * self.k0 - self.k1

    @property
    def rank(self) -> int:
        return 2 * self.k0 + self.k1

    def blocks(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Raw symbol blocks: A-blocks over the k1 columns, B/A3 over the tail."""
        k0, k1 = self.k0, self.k1
        ones = self.matrix[:k0]
        omegas = self.matrix[k0 : 2 * k0]
        lines = self.matrix[2 * k0 :]
        return {
            "A1": tuple(r[k0 : k0 + k1] for r in ones),
            "B1": tuple(r[k0 + k1 :] for r in ones),
            "A2": tuple(r[k0 : k0 + k1] for r in omegas),
            "B2": tuple(r[k0 + k1 :] for r in omegas),
            "A3": tuple(r[k0 + k1 :] for r in lines),
        }

    def reassemble(self) -> AdditiveCode:
        """Undo the column permutation; spans exactly the original code."""
        gens = []
        for row in self.matrix:
            symbols = [0] * self.n
            for j, s in enumerate(row):
                symbols[self.permutation[j]] = s
            gens.append(symbols_to_int(symbols, self.n))
        return AdditiveCode(self.n, tuple(gens))


def standard_form(code: AdditiveCode) -> StandardForm:
    """Classify coordinates into pair pivots (k0), line pivots (k1), tail.

    Deterministic symplectic Gaussian elimination: pivot columns are chosen
    by lowest coordinate index, first among columns whose residual
    projection spans all of GF(4), then among columns with a single nonzero
    symbol line.  Row operations are GF(2) additions only; no coordinate is
    rescaled, so a line pivot keeps whatever symbol the code provides
    (recorded in ``line_pivots``).
    """
    n = code.n
    remaining = [list(int_to_symbols(g, n)) for g in code.generators]
    one_rows: list[list[int]] = []
    omega_rows: list[list[int]] = []
    line_rows: list[list[int]] = []
    k0_cols: list[int] = []
    k1_cols: list[int] = []
    pivots: list[int] = []
    used: set[int] = set()

    def finished_rows() -> list[list[int]]:
        return one_rows + omega_rows + line_rows

    # pair pivots: columns whose residual projection is all of GF(4)
    while True:
        col = None
        for c in range(n):
            if c in used:
                continue
            vals = {r[c] for r in remaining if r[c]}
            if len(vals) >= 2:
                col = c
                break
        if col is None:
            break
        i1 = next(i for i, r in enumerate(remaining) if r[col])
        v1 = remaining[i1][col]
        i2 = next(
            i for i, r in enumerate(remaining) if r[col] and r[col] != v1 and i != i1
        )
        r1, r2 = remaining[i1], remaining[i2]
        r12 = _xor_rows(r1, r2)
        by_symbol = {r1[col]: r1, r2[col]: r2, r12[col]: r12}
        p1, pw = by_symbol[1], by_symbol[2]
        elim = {1: p1, 2: pw, 3: _xor_rows(p1, pw)}
        remaining = [r for i, r in enumerate(remaining) if i not in (i1, i2)]
        for r in remaining + finished_rows():
            if r[col]:
                r[:] = _xor_rows(r, elim[r[col]])
        one_rows.append(p1)
        omega_rows.append(pw)
        k0_cols.append(col)
        used.add(col)

    # line pivots: residual projections are single nonzero symbol lines
    while True:
        col = None
        for c in range(n):
            if c in used:
                continue
            if any(r[c] for r in remaining):
                col = c
                break
        if col is None:
            break
        i = next(i for i, r in enumerate(remaining) if r[col])
        pr = remaining.pop(i)
        alpha = pr[col]
        for r in remaining:
            if r[col]:
                if r[col] != alpha:
                    raise InvariantError("line column carries two distinct symbols")
                r[:] = _xor_rows(r, pr)
        # normalize finished rows at this column to canonical coset reps
        for r in finished_rows():
            v = r[col]
            if v and min(v, v ^ alpha) != v:
                r[:] = _xor_rows(r, pr)
        line_rows.append(pr)
        k1_cols.append(col)
        pivots.append(alpha)
        used.add(col)

    if remaining:
        raise InvariantError("independent rows left unconsumed by elimination")

    permutation = k0_cols + k1_cols + [c for c in range(n) if c not in used]
    matrix = tuple(
        tuple(row[orig] for orig in permutation) for row in finished_rows()
    )
    return StandardForm(
        n=n,
        k0=len(k0_cols),
        k1=len(k1_cols),
        matrix=matrix,
        permutation=tuple(permutation),
        line_pivots=tuple(pivots),
    )


# ---------------------------------------------------------------------------
# complementary codes and classical reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplementaryCode:
    """Coset representatives generating dual(C) modulo C.

    ``code`` lives in the original coordinates; its rows together with C
    span dual(C).  ``punctured`` is the same set of rows in standard-form
    coordinate order with the k0 pair-pivot columns (where all rows vanish)
    removed: length n - k0, the first k1 coordinates restricted to at most
    one nonzero symbol each.  Every nonzero word of the punctured span has
    symplectic weight >= the quantum distance of C.
    """

    code: AdditiveCode
    punctured: AdditiveCode
    k0: int
    k1: int


def _complement_basis(code: AdditiveCode) -> list[int]:
    """2k rows that extend C to dual(C), each reduced modulo C."""
    basis = {row.bit_length() - 1: row for row in code.echelon}
    extra: list[int] = []
    for cand in symplectic_dual(code).generators:
        r = _reduce_by(cand, basis)
        if r:
            extra.append(r)
            basis[r.bit_length() - 1] = r
    if len(extra) != 2 * (code.n - code.rank):
        raise InvariantError("complement basis has wrong rank")
    return extra


def complementary_code(
    code: AdditiveCode, sf: StandardForm | None = None
) -> ComplementaryCode | None:
    """Reduced complement of C inside dual(C); None when k = 0."""
    _require_self_orthogonal(code)
    n = code.n
    k = n - code.rank
    if k == 0:
        return None
    if sf is None:
        sf = standard_form(code)
    k0, k1 = sf.k0, sf.k1
    reduced: list[list[int]] = []
    for v in _complement_basis(code):
        syms = int_to_symbols(v, n)
        row = [syms[orig] for orig in sf.permutation]
        for j in range(k0):
            s = row[j]
            if s & 1:
                row = _xor_rows(row, sf.matrix[j])
            if row[j] & 2:
                row = _xor_rows(row, sf.matrix[k0 + j])
            if row[j]:
                raise InvariantError("pair-pivot column failed to clear")
        for j in range(k1):
            alpha = sf.line_pivots[j]
            v_here = row[k0 + j]
            if min(v_here, v_here ^ alpha) != v_here:
                row = _xor_rows(row, sf.matrix[2 * k0 + j])
        reduced.append(row)

    original = []
    for row in reduced:
        symbols = [0] * n
        for j, s in enumerate(row):
            symbols[sf.permutation[j]] = s
        original.append(symbols_to_int(symbols, n))
    comp = AdditiveCode(n, tuple(original))
    stacked = gf2_rank(list(code.generators) + list(comp.generators))
    if stacked != n + k:
        raise InvariantError("complement stacked with C does not span the dual")
    punct_rows = tuple(
        symbols_to_int(row[k0:], n - k0) for row in reduced
    )
    punctured = AdditiveCode(n - k0, punct_rows)
    return ComplementaryCode(code=comp, punctured=punctured, k0=k0, k1=k1)


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


def reduction_targets(sf: StandardForm, params: QuantumParams) -> list[ReductionTarget]:
    """Classical descriptors implied by the code's (k0, k1) structure."""
    n, k = params.n, params.k
    if sf.n != n or sf.k != k:
        raise ParameterError(
            f"standard form (n={sf.n}, k={sf.k}) inconsistent with params "
            f"(n={n}, k={k})"
        )
    k0, k1 = sf.k0, sf.k1
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
    """Subcode of the punctured complement vanishing on the restricted columns."""
    k1 = comp.k1
    if k1 == 0:
        return None
    m = comp.punctured.n
    rows = [list(int_to_symbols(g, m)) for g in comp.punctured.generators]
    for col in range(k1):
        pivot = None
        for r in rows:
            if r[col]:
                if pivot is None:
                    pivot = r
                else:
                    if r[col] != pivot[col]:
                        raise InvariantError("restricted column not a single line")
                    r[:] = _xor_rows(r, pivot)
        if pivot is not None:
            rows.remove(pivot)
    tail = [symbols_to_int(r[k1:], m - k1) for r in rows]
    if not tail:
        return None
    return AdditiveCode(m - k1, tuple(tail))


def reduction_witnesses(
    code: AdditiveCode,
    sf: StandardForm | None = None,
    params: QuantumParams | None = None,
) -> list[ReductionWitness]:
    """Brute-forced classical distances of the concrete reduction codes."""
    if params is None:
        params = quantum_distance(code)
    if params.k == 0:
        return []
    if sf is None:
        sf = standard_form(code)
    comp = complementary_code(code, sf)
    assert comp is not None
    witnesses = [
        ReductionWitness(
            ReductionTarget(
                "mixed_additive",
                comp.punctured.n,
                comp.punctured.rank,
                restricted=comp.k1,
            ),
            min_nonzero_weight(comp.punctured),
        )
    ]
    if comp.k1 == 0:
        witnesses.append(
            ReductionWitness(
                ReductionTarget("additive", comp.punctured.n, comp.punctured.rank),
                witnesses[0].distance,
            )
        )
    elif comp.k1 < 2 * params.k:
        sub = _restricted_free_subcode(comp)
        if sub is not None:
            witnesses.append(
                ReductionWitness(
                    ReductionTarget("additive", sub.n, sub.rank),
                    min_nonzero_weight(sub),
                )
            )
    s_code = binary_s_code(code)
    assert s_code is not None
    witnesses.append(
        ReductionWitness(
            ReductionTarget("binary", s_code.length, s_code.dimension),
            s_code.distance,
        )
    )
    return witnesses


# ---------------------------------------------------------------------------
# binary reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinarySCode:
    """Binary [n+k, 2k] code whose minimum distance dominates the quantum d.

    Rows are ints over ``length`` bit columns: the complement of C in its
    dual, reduced modulo the binary pivots of C and restricted to the
    pivot-free columns.  Every nonzero word corresponds to an element of
    dual(C) \\ C whose binary weight is at least its symplectic weight.
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
    pivot_rows: dict[int, int] = {}  # bit position -> reduced row
    for g in code.generators:
        row = g
        for bit, prow in pivot_rows.items():
            if (row >> bit) & 1:
                row ^= prow
        if not row:
            raise InvariantError("dependent generator in validated code")
        a, b = split_halves(row, n)
        bit = (a & -a).bit_length() - 1 if a else n + ((b & -b).bit_length() - 1)
        for key, prow in list(pivot_rows.items()):
            if (prow >> bit) & 1:
                pivot_rows[key] = prow ^ row
        pivot_rows[bit] = row

    reduced = []
    for w in _complement_basis(code):
        for bit, prow in pivot_rows.items():
            if (w >> bit) & 1:
                w ^= prow
        reduced.append(w)

    free_cols = [j for j in range(2 * n) if j not in pivot_rows]
    if len(free_cols) != n + k:
        raise InvariantError("pivot count disagrees with code rank")
    rows = []
    for w in reduced:
        packed = 0
        for out_bit, j in enumerate(free_cols):
            if (w >> j) & 1:
                packed |= 1 << out_bit
        rows.append(packed)
    if gf2_rank(rows) != 2 * k:
        raise InvariantError("binary reduction rows are dependent")
    # the rows fill only the X half, where symplectic weight is Hamming weight
    distance = min_nonzero_weight(AdditiveCode(n + k, tuple(rows)))
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
    while len(gens) < rank:
        if gens:
            dual = symplectic_dual(AdditiveCode(n, tuple(gens)))
            pool = dual.generators
        else:
            pool = tuple(1 << j for j in range(2 * n))
        basis = {row.bit_length() - 1: row for row in gf2_echelon(gens)}
        for _ in range(64):
            v = 0
            for g in pool:
                if rng.getrandbits(1):
                    v ^= g
            if _reduce_by(v, basis):
                gens.append(v)
                break
        else:
            raise InvariantError("failed to extend self-orthogonal code")
    return AdditiveCode(n, tuple(gens))
