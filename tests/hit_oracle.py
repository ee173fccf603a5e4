"""One elimination of all of P_n(d): the oracle for the engine's blockwise
hit space.

``global_generator_rows`` walks the Sq^(2^i) rows over every degree-d
monomial in n variables, whatever its support, with bit j the j-th monomial
of the global ascending-lex enumeration, and ``global_hit_echelon`` feeds
them to one echelon basis.  It shares with ``hitcalc.hit``, which
eliminates one full-support block at a time and relabels the blocks into
place, only the square degrees and, from ``hitcalc.steenrod``, the lex
block starts ``_block_starts`` and the submask table.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from hitcalc.gf2 import EchelonBasis
from hitcalc.hit import _square_degrees
from hitcalc.steenrod import _block_starts, _odd_submasks, monomial_count


def global_generator_rows(n: int, d: int) -> Iterator[int]:
    """The nonzero rows Sq^(2^i)(u^e) of P_n(d), as ints over its enumeration."""
    if n == 1:  # Sq^k(u^(d-k)) = C(d - k, k) u^d
        yield from (1 for k in _square_degrees(d) if k & ~(d - k) == 0)
        return
    pair_rows: dict[tuple[int, int, int], int] = {}

    def walk(nv: int, deg: int, terms: list[tuple[int, int]]) -> Iterator[int]:
        if nv == 2:
            for b in range(deg, -1, -1):
                row = 0
                for k, shift in terms:
                    key = (k, b, deg - b)
                    r = pair_rows.get(key)
                    if r is None:  # C(b, k1) C(deg - b, k - k1) odd
                        r = pair_rows[key] = sum(
                            1 << (b + k1)
                            for k1 in _odd_submasks(b)
                            if k1 <= k and (k - k1) & ~(deg - b) == 0
                        )
                    if r:
                        row |= r << shift
                if row:
                    yield row
            return
        for a in range(deg, -1, -1):
            rest = deg - a
            sub = []
            for k, shift in terms:
                starts = _block_starts(nv, deg + k)
                for k1 in _odd_submasks(a):
                    if k1 > k:
                        break
                    if k - k1 <= rest:
                        sub.append((k - k1, shift + starts[a + k1]))
            if sub:
                yield from walk(nv - 1, rest, sub)

    yield from heapq.merge(
        *(walk(n, d - k, [(k, 0)]) for k in _square_degrees(d)),
        key=lambda row: row & -row,
        reverse=True,
    )


def global_hit_echelon(n: int, d: int) -> EchelonBasis:
    """The hit space of P_n(d), eliminated whole."""
    basis = EchelonBasis(monomial_count(n, d))
    for row in global_generator_rows(n, d):
        basis.insert_int(row)
    return basis
