"""The general linear group over F2 acting on both sides of the pairing.

A matrix g acts on polynomials by the substitution u_j -> sum_i g[i][j] u_i
(column j is the image of u_j); over F2 the expansion of a power of a
linear form is a product over the binary digits of the exponent of
Frobenius powers, so images stay sparse for the generating matrices.  The
homology action is the adjoint: <g.xi, f> = <xi, g^{-1}.f>.  It is computed
directly in the divided power algebra, where g acts as the algebra map
a_i -> sum_j h[i][j] a_j with h = g^{-1}, and only on the coordinates of
the vectors it is applied to.

Invariants are computed on the cohit quotient, coinvariants on the
primitive subspace; their dimensions agree degreewise and the test suite
compares the two routes directly.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from . import store
from .gf2 import EchelonBasis, ones, quotient_representatives
from .homology import DElement, PrimitiveBasis, _element_bits, primitive_basis
from .steenrod import Polynomial, _tuples, degree_index

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
        _inverse_rows(entries)
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable) -> "GLMatrix":
        # _replace builds through _make, so both validate here
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.entries)

    def inverse(self) -> "GLMatrix":
        n = self.n
        return GLMatrix(
            tuple(
                tuple(r >> (n + j) & 1 for j in range(n))
                for r in _inverse_rows(self.entries)
            )
        )

    def __str__(self) -> str:
        return ";".join("".join(str(e) for e in row) for row in self.entries)


def parse_glmatrix(text: str) -> GLMatrix:
    """Parse semicolon-separated bit rows, e.g. '10;11'."""
    rows = tuple(tuple(int(c) for c in part) for part in text.strip().split(";"))
    return GLMatrix(rows)


def _inverse_rows(entries: Sequence[Sequence[int]]) -> list[int]:
    """The canonical rows of [g | 1], which are [1 | g^-1]: bit n + j of row
    i is entry (i, j) of the inverse.  g is invertible iff the pivots are
    0..n-1; otherwise this raises.
    """
    n = len(entries)
    basis = EchelonBasis(2 * n)
    for i, row in enumerate(entries):
        basis.insert_int(sum(b << j for j, b in enumerate(row)) | 1 << (n + i))
    if basis.pivots != tuple(range(n)):
        raise ValueError("matrix is not invertible over F2")
    return basis.row_ints()


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


def _dp_image(
    supports: tuple[tuple[int, ...], ...], dexps: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """Exponent tuples of the image of one d-monomial, mod 2, under the
    algebra map a_i -> sum_{j in supports[i]} a_j of divided power algebras.

    A divided power of a sum expands with no coefficients,
    (x + y)^(k) = sum_{i+j=k} x^(i) y^(j), and a^(p) a^(q) is a^(p+q) when
    p & q = 0 and zero otherwise (Lucas).
    """
    # rows with one entry only move an exponent; they go first, as one tuple
    moved = [0] * len(dexps)
    for e, (j, *spread) in zip(dexps, supports):
        if not spread:
            if e & moved[j]:
                return set()
            moved[j] += e
    acc = {tuple(moved)}
    for e, support in zip(dexps, supports):
        if len(support) == 1:
            continue
        *spread, last = support
        # (t, rem): the partial product t times the divided power rem of the
        # sum of the support variables not yet visited
        states = {(t, e) for t in acc}
        for j in spread:
            nxt: set[tuple[tuple[int, ...], int]] = set()
            for t, rem in states:
                tj = t[j]
                for k in range(rem + 1):
                    if not k & tj:
                        grown = t[:j] + (tj + k,) + t[j + 1 :]
                        nxt.symmetric_difference_update(((grown, rem - k),))
            states = nxt
        acc = set()
        for t, rem in states:
            if not rem & t[last]:
                grown = t[:last] + (t[last] + rem,) + t[last + 1 :]
                acc.symmetric_difference_update((grown,))
    return acc


def _homology_action(g: GLMatrix, d: int) -> Callable[[Iterable[int]], int]:
    """The action of g on degree-d d-elements, as a map from the set
    coordinates of a vector to the bits of its image.

    g acts on the divided power algebra as the algebra map
    a_i -> sum_j h[i][j] a_j with h = g^{-1}, the adjoint of the
    substitution by g^{-1}.  Images are computed only for the coordinates
    the map is applied to, and memoised as ints of set bits.
    """
    h = g.inverse().entries
    supports = tuple(tuple(j for j in range(g.n) if row[j]) for row in h)
    index = degree_index(g.n, d)
    tuples = _tuples(g.n, d)
    images: dict[int, int] = {}

    def act(coords: Iterable[int]) -> int:
        out = 0
        for sigma in coords:
            image = images.get(sigma)
            if image is None:
                image = sum(1 << index[t] for t in _dp_image(supports, tuples[sigma]))
                images[sigma] = image
            out ^= image
        return out

    return act


# -- invariants of cohits --------------------------------------------------------


def invariant_basis(n: int, d: int) -> list[Polynomial]:
    """Basis of the fixed space of the group acting on the cohit quotient.

    Each returned polynomial is a sum of cohit representative monomials; it
    is fixed by every generator modulo the hit subspace.
    """
    from .hit import cohit_basis, hit_basis

    reps = cohit_basis(n, d).representatives
    q = len(reps)
    if q == 0:
        return []
    hit = hit_basis(n, d)
    index = degree_index(n, d)
    rep_pos = {j: i for i, j in enumerate(quotient_representatives(hit))}

    def cohit_coords(bits: int) -> int:
        coords = 0
        for j in ones(hit.reduce_int(bits)):
            coords |= 1 << rep_pos[j]
        return coords

    relation_rows = EchelonBasis(q)
    for g in generators(n):
        # assemble (action - identity) columnwise, then feed its rows to the
        # kernel: the fixed space is the null space of the map, not of its
        # transpose
        rows_of_g: list[list[int]] = [[] for _ in range(q)]
        for c, m in enumerate(reps):
            bits = 0
            for t in _act_exponents(g, m):
                bits ^= 1 << index[t]
            for r in ones(cohit_coords(bits) ^ (1 << c)):
                rows_of_g[r].append(c)
        for support in rows_of_g:
            if support:
                relation_rows.insert_indices(support)
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
    """The primitive basis and the echelonized (g - 1) relation space, memoised."""
    prim = primitive_basis(n, d)
    p = prim.dimension

    def compute() -> EchelonBasis:
        relations = EchelonBasis(p)
        if p:
            pivots = prim.echelon.pivots
            position = {piv: j for j, piv in enumerate(pivots)}
            pivot_mask = sum(1 << piv for piv in position)
            coords = [ones(v) for v in prim.echelon.iter_row_ints()]
            for g in generators(n):
                act = _homology_action(g, d)
                for piv, support in zip(pivots, coords):
                    image = act(support)
                    if prim.echelon.reduce_int(image) != 0:
                        raise RuntimeError(
                            "group image left the primitive subspace; convention bug"
                        )
                    # (g - 1)v = image ^ v, and of the pivots a canonical
                    # row v has only its own set
                    w = (image & pivot_mask) ^ (1 << piv)
                    relations.insert_indices([position[c] for c in ones(w)])
        return relations

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
    prim, relations = _coinvariant_data(n, d)
    bits = _element_bits(xi, n, d)
    if prim.echelon.reduce_int(bits) != 0:
        raise ValueError("element is not in the primitive subspace")
    coords = sum(1 << j for j, p in enumerate(prim.echelon.pivots) if bits >> p & 1)
    return relations.reduce_int(coords) != 0
