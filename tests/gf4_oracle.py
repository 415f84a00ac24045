"""Slow reference implementations, kept as oracles for ``qbounds.gf4``.

The library reads every distance off a weight distribution, which it
counts with a split-span kernel.  These are the scans it replaced: the
per-word loop of ``weight_distribution`` over ``words`` (a Gray-code walk
behind the enumeration cap), the nested coset loop of ``quantum_distance``
(every complement word plus every code word, 2^(n+k) words) and the
per-word minimum loop of ``min_nonzero_weight``, all unchanged apart from
imports, ``words`` turning from a method into a function and
``gf2_echelon(code.generators)`` standing for the removed
``AdditiveCode.echelon``, and the minimum loop of ``binary_s_code`` as a
function of its rows.  The Gray-code walk and the symplectic weight they
count with are this module's own, so its counts share no code with the
library's.

Below them is the reduction layer the library replaced with eliminations
on int words: the standard form, the complementary code and the
restricted-free subcode computed on lists of GF(4) symbols in permuted
coordinates, unchanged apart from imports, and the inline row reduction
of ``binary_s_code`` as a function of the code that returns its rows.
Both reductions start from ``_complement_basis``: the dual's generators
that extend C, each reduced by the leading bits of C's echelon basis and
of the rows taken before it.  The library no longer has it or its
``_reduce_by``; both are kept here, so the oracle's complement does not
come from the code it checks.  The library takes the complement from a
reduced echelon basis of C instead, so its rows span what these rows
span but are not the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from qbounds.errors import CapacityError, InvariantError, ParameterError, StructureError
from qbounds.gf4 import (
    ENUMERATION_CAP,
    AdditiveCode,
    ComplementaryCode,
    QuantumParams,
    _require_self_orthogonal,
    gf2_echelon,
    gf2_rank,
    split_halves,
    symbols_to_int,
    symplectic_dual,
)


def iter_span(generators: Sequence[int]) -> Iterator[int]:
    """All GF(2) combinations of the generators, in Gray-code order from 0.

    Step i flips the generator at the one bit where the Gray codes
    i ^ (i >> 1) of i - 1 and i differ.
    """
    v = 0
    yield v
    for i in range(1, 1 << len(generators)):
        flipped = (i ^ (i >> 1)) ^ ((i - 1) ^ ((i - 1) >> 1))
        v ^= generators[flipped.bit_length() - 1]
        yield v


def symplectic_weight(v: int, n: int) -> int:
    """The number of coordinates whose X or Z bit is set."""
    return bin((v | v >> n) & ((1 << n) - 1)).count("1")


def words(code: AdditiveCode) -> Iterator[int]:
    if code.rank > ENUMERATION_CAP:
        raise CapacityError(
            f"rank {code.rank} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    return iter_span(code.generators)


def weight_distribution(code: AdditiveCode) -> tuple[int, ...]:
    """Counts of code words by symplectic weight; entry 0 equals 1."""
    counts = [0] * (code.n + 1)
    for w in words(code):
        counts[symplectic_weight(w, code.n)] += 1
    return tuple(counts)


def _reduce_by(v: int, basis: dict[int, int]) -> int:
    while v:
        pivot = v.bit_length() - 1
        row = basis.get(pivot)
        if row is None:
            return v
        v ^= row
    return v


def _extend_basis(base: Sequence[int], candidates: Iterable[int]) -> list[int]:
    """Rows from candidates extending span(base), reduced, in given order."""
    basis = {row.bit_length() - 1: row for row in gf2_echelon(base)}
    extra: list[int] = []
    for cand in candidates:
        r = _reduce_by(cand, basis)
        if r:
            extra.append(r)
            basis[r.bit_length() - 1] = r
    return extra


def quantum_distance(code: AdditiveCode) -> QuantumParams:
    """Distance of the stabilizer code attached to a self-orthogonal C.

    d is the minimum symplectic weight over dual(C) \\ C; for k = 0 (C equal
    to its own dual) the convention is the minimum nonzero weight of C
    itself.  ``degenerate`` records whether C contains a nonzero word of
    weight below d.
    """
    _require_self_orthogonal(code)
    n = code.n
    k = n - code.rank
    dual = symplectic_dual(code)
    if dual.rank > ENUMERATION_CAP:
        raise CapacityError(
            f"dual rank {dual.rank} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    min_c = None
    for w in words(code):
        if w:
            wt = symplectic_weight(w, n)
            if min_c is None or wt < min_c:
                min_c = wt
    if k == 0:
        if min_c is None:
            raise StructureError("trivial code of length 0 has no distance")
        return QuantumParams(n, 0, 1, min_c, False)
    complement = _extend_basis(gf2_echelon(code.generators), dual.generators)
    if len(complement) != 2 * k:
        raise InvariantError("complement basis has wrong rank")
    cwords = list(words(code))
    d = None
    for w in iter_span(complement):
        if not w:
            continue
        for c in cwords:
            wt = symplectic_weight(w ^ c, n)
            if d is None or wt < d:
                d = wt
    assert d is not None
    degenerate = min_c is not None and min_c < d
    return QuantumParams(n, k, 1 << k, d, degenerate)


def _complement_basis(code: AdditiveCode) -> list[int]:
    """2k rows that extend C to dual(C), each reduced modulo C."""
    extra = _extend_basis(gf2_echelon(code.generators), symplectic_dual(code).generators)
    if len(extra) != 2 * (code.n - code.rank):
        raise InvariantError("complement basis has wrong rank")
    return extra


def min_nonzero_weight(code: AdditiveCode) -> int:
    """Minimum symplectic weight over the nonzero words (exhaustive)."""
    best = None
    for w in words(code):
        if w:
            wt = symplectic_weight(w, code.n)
            if best is None or wt < best:
                best = wt
    if best is None:
        raise ParameterError("trivial code has no nonzero words")
    return best


def binary_distance(rows: Sequence[int]) -> int:
    """Minimum Hamming weight over the nonzero words of a binary span."""
    distance = None
    for w in iter_span(rows):
        if w:
            wt = w.bit_count()
            if distance is None or wt < distance:
                distance = wt
    assert distance is not None
    return distance


def int_to_symbols(v: int, n: int) -> tuple[int, ...]:
    a, b = split_halves(v, n)
    return tuple(((a >> i) & 1) | (((b >> i) & 1) << 1) for i in range(n))


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


def binary_s_rows(code: AdditiveCode) -> tuple[int, ...] | None:
    """Rows of the binary complementary reduction; None when k = 0."""
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
    return tuple(rows)
