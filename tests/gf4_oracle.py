"""Word-by-word distance scans, kept as oracles for ``qbounds.gf4``.

The library reads every distance off a weight distribution.  These are the
scans it replaced: the nested coset loop of ``quantum_distance`` (every
complement word plus every code word, 2^(n+k) words) and the per-word
minimum loop of ``min_nonzero_weight``, both unchanged apart from imports,
and the minimum loop of ``binary_s_code`` as a function of its rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from qbounds.errors import CapacityError, InvariantError, ParameterError, StructureError
from qbounds.gf4 import (
    ENUMERATION_CAP,
    AdditiveCode,
    QuantumParams,
    _reduce_by,
    _require_self_orthogonal,
    gf2_echelon,
    iter_span,
    symplectic_dual,
    symplectic_weight,
)


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
    for w in code.words():
        if w:
            wt = symplectic_weight(w, n)
            if min_c is None or wt < min_c:
                min_c = wt
    if k == 0:
        if min_c is None:
            raise StructureError("trivial code of length 0 has no distance")
        return QuantumParams(n, 0, 1, min_c, False)
    complement = _extend_basis(code.echelon, dual.generators)
    if len(complement) != 2 * k:
        raise InvariantError("complement basis has wrong rank")
    cwords = list(code.words())
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


def min_nonzero_weight(code: AdditiveCode) -> int:
    """Minimum symplectic weight over the nonzero words (exhaustive)."""
    best = None
    for w in code.words():
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
