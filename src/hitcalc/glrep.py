"""The general linear group over F2 acting on the cohits, and its dual.

A matrix g acts on polynomials by the substitution u_j -> sum_i g[i][j] u_i
(column j is the image of u_j); over F2 the expansion of a power of a
linear form is a product over the binary digits of the exponent of
Frobenius powers, so images stay sparse for the generating matrices.  This
is the one action computed.  Invariants are its fixed space on the cohit
quotient.  The coinvariants of the primitives need no action of their own:
the pairing of primitives with cohits is perfect and GL-equivariant,
<g.xi, f> = <xi, g^{-1}.f>, so the span of the (g - 1) images of the
primitives is the annihilator of the invariants (Singer, Math. Z. 202,
1989; Walker-Wood, LMS Lecture Notes 441-442, 2018).  The test suite builds
that span from the transposed substitution and compares it row for row.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import store
from .gf2 import EchelonBasis, ones, quotient_representatives
from .homology import DElement, PrimitiveBasis, _element_bits, primitive_basis
from .steenrod import Polynomial, monomial_rank

__all__ = [
    "GLMatrix",
    "CoinvariantReport",
    "generators",
    "invariant_basis",
    "coinvariant_classes",
    "parse_glmatrix",
]


# A NamedTuple may not define __new__, so the validating subclass does.
class _GLMatrixFields(NamedTuple):
    entries: tuple[tuple[int, ...], ...]


class GLMatrix(_GLMatrixFields):
    """An invertible n x n matrix over F2; entries[i][j] is row i, column j."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]) -> "GLMatrix":
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise ValueError("matrix must be square")
        if any(e not in (0, 1) for r in entries for e in r):
            raise ValueError("entries must be bits")
        _check_invertible(entries)
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable) -> "GLMatrix":
        # _replace builds through _make, so both validate here
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ";".join("".join(str(e) for e in row) for row in self.entries)


def parse_glmatrix(text: str) -> GLMatrix:
    """Parse semicolon-separated bit rows, e.g. '10;11'."""
    rows = tuple(tuple(int(c) for c in part) for part in text.strip().split(";"))
    return GLMatrix(rows)


def _check_invertible(entries: Sequence[Sequence[int]]) -> None:
    basis = EchelonBasis(len(entries))
    for row in entries:
        basis.insert_int(sum(b << j for j, b in enumerate(row)))
    if basis.rank != len(entries):
        raise ValueError("matrix is not invertible over F2")


def generators(n: int) -> list[GLMatrix]:
    """Adjacent transpositions plus the transvection u_1 -> u_1 + u_2.

    Together these generate the full group; for n = 1 the group is trivial
    and the list is empty.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return []
    gens = []
    for i in range(n - 1):
        perm = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        perm[i][i] = perm[i + 1][i + 1] = 0
        perm[i][i + 1] = perm[i + 1][i] = 1
        gens.append(GLMatrix(tuple(tuple(r) for r in perm)))
    trans = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    trans[1][0] = 1  # column 0 becomes e_1 + e_2: u_1 -> u_1 + u_2
    gens.append(GLMatrix(tuple(tuple(r) for r in trans)))
    return gens


# -- actions ---------------------------------------------------------------------


def _act_exponents(g: GLMatrix, exps: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Exponent tuples of the substitution image of one monomial, mod 2."""
    n = len(exps)
    acc: set[tuple[int, ...]] = {(0,) * n}
    for j, e in enumerate(exps):
        support = tuple(i for i in range(n) if g.entries[i][j])
        bit = 1
        while e:
            if e & 1:
                # multiply by (sum_{i in support} u_i)^(bit), a sum of Frobenius powers
                nxt: set[tuple[int, ...]] = set()
                for t in acc:
                    for i in support:
                        grown = list(t)
                        grown[i] += bit
                        nxt.symmetric_difference_update((tuple(grown),))
                acc = nxt
            e >>= 1
            bit <<= 1
    return frozenset(acc)


# -- invariants of cohits --------------------------------------------------------


def invariant_basis(n: int, d: int) -> list[Polynomial]:
    """Basis of the fixed space of the group acting on the cohit quotient.

    Each returned polynomial is a sum of cohit representative monomials; it
    is fixed by every generator modulo the hit subspace.  An image is
    reduced one monomial support S at a time, against the hit echelon of
    the block P^+_|S|(d), whose non-pivots placed on S are the
    representatives there.
    """
    from .hit import cohit_basis, hold_blocks

    reps = cohit_basis(n, d).representatives
    q = len(reps)
    if q == 0:
        return []
    blocks = hold_blocks(n, d)  # cohit_basis left them in the memory tier

    def locate(t: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """The support S of a monomial and its index in P^+_|S|(d)."""
        support = tuple(i for i, e in enumerate(t) if e)
        k = len(support)
        return support, monomial_rank(k, d - k, [t[i] - 1 for i in support])

    rep_pos = {locate(m): i for i, m in enumerate(reps)}

    def cohit_coords(image: Iterable[tuple[int, ...]]) -> int:
        pieces: dict[tuple[int, ...], int] = {}
        for t in image:
            support, j = locate(t)
            pieces[support] = pieces.get(support, 0) ^ 1 << j
        coords = 0
        for support, bits in pieces.items():
            for f in ones(blocks[len(support)].reduce_int(bits)):
                coords |= 1 << rep_pos[support, f]
        return coords

    relation_rows = EchelonBasis(q)
    for g in generators(n):
        columns = [cohit_coords(_act_exponents(g, m)) for m in reps]
        # every generator squares to 1, and so must the map it induces on
        # the cohits; one that does not is no action of g on the quotient
        for c, column in enumerate(columns):
            square = 0
            for j in ones(column):
                square ^= columns[j]
            if square != 1 << c:
                raise RuntimeError("a generator acts on the cohits as no involution")
        # assemble (action - identity) columnwise, then feed its rows to the
        # kernel: the fixed space is the null space of the map, not of its
        # transpose
        rows = [0] * q
        for c, column in enumerate(columns):
            for r in ones(column ^ (1 << c)):
                rows[r] |= 1 << c
        for row in rows:
            relation_rows.insert_int(row)
    fixed = relation_rows.kernel()
    return [
        Polynomial([reps[i] for i in ones(vec)], n) for vec in fixed.row_ints()
    ]


# -- coinvariants of primitives --------------------------------------------------


class CoinvariantReport(NamedTuple):
    n: int
    d: int
    dimension: int
    class_representatives: tuple[DElement, ...]
    relations_rank: int


def _coinvariant_data(n: int, d: int) -> tuple[PrimitiveBasis, EchelonBasis]:
    """The primitive basis and the echelonized (g - 1) relation space, memoised.

    The pairing of primitives with cohits is perfect and equivariant, so the
    relations are the annihilator of the invariants: the primitives that
    pair to zero with each of them.
    """
    prim = primitive_basis(n, d)
    p = prim.dimension

    def compute() -> EchelonBasis:
        from .hit import hold_blocks

        hold_blocks(n, d)  # so invariant_basis finds the blocks and writes none
        inv = invariant_basis(n, d)
        rows = EchelonBasis(p)
        for f in inv:
            # bit i is <xi_i, f> for the i-th canonical primitive row xi_i
            bits = _element_bits(f, n, d)
            rows.insert_int(
                sum(
                    ((xi & bits).bit_count() & 1) << i
                    for i, xi in enumerate(prim.echelon.iter_row_ints())
                )
            )
        if rows.rank != len(inv):
            raise RuntimeError("the invariants pair dependently with the primitives")
        return rows.kernel()

    return prim, store.cached_coinvariant_relations(n, d, p, compute)


def coinvariant_classes(n: int, d: int) -> CoinvariantReport:
    """Quotient of the primitive subspace by the span of (g - 1) images.

    Representatives are the primitive basis vectors at the first non-pivot
    coordinates of the relation space, i.e. the canonical choice.
    """
    prim, relations = _coinvariant_data(n, d)
    p = prim.dimension
    if p == 0:
        return CoinvariantReport(n, d, 0, (), 0)
    reps = tuple(prim.elements(quotient_representatives(relations)))
    return CoinvariantReport(n, d, p - relations.rank, reps, relations.rank)


def coinvariant_class_nonzero(n: int, d: int, xi: DElement) -> bool:
    """Whether a primitive element has nonzero class in the coinvariants."""
    bits = _element_bits(xi, n, d)
    prim, relations = _coinvariant_data(n, d)
    if prim.echelon.reduce_int(bits) != 0:
        raise ValueError("element is not in the primitive subspace")
    coords = sum(1 << j for j, p in enumerate(prim.echelon.pivots) if bits >> p & 1)
    return relations.reduce_int(coords) != 0
