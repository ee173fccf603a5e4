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

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import store
from .budget import Budget, DEFAULT_BUDGET
from .gf2 import EchelonBasis, ones, quotient_representatives
from .hit import cohit_basis
from .homology import DElement, PrimitiveBasis, primitive_basis
from .homology import _bits_element, _element_bits
from .steenrod import Polynomial, _tuples, degree_index

__all__ = [
    "GLMatrix",
    "CoinvariantReport",
    "generators",
    "act_poly",
    "act_homology",
    "invariant_basis",
    "coinvariant_classes",
    "group_closure",
    "parse_glmatrix",
]


@dataclass(frozen=True)
class GLMatrix:
    """An invertible n x n matrix over F2; entries[i][j] is row i, column j."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if any(len(r) != n for r in self.entries):
            raise ValueError("matrix must be square")
        if any(e not in (0, 1) for r in self.entries for e in r):
            raise ValueError("entries must be bits")
        if _rank(self.entries) != n:
            raise ValueError("matrix is not invertible over F2")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "GLMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "GLMatrix") -> "GLMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        return GLMatrix(
            tuple(
                tuple(
                    sum(self.entries[i][k] & other.entries[k][j] for k in range(n)) & 1
                    for j in range(n)
                )
                for i in range(n)
            )
        )

    def inverse(self) -> "GLMatrix":
        n = self.n
        aug = [
            (sum(self.entries[i][j] << j for j in range(n)))
            | (1 << (n + i))
            for i in range(n)
        ]
        rank = 0
        for col in range(n):
            piv = next(
                (r for r in range(rank, n) if (aug[r] >> col) & 1), None
            )
            if piv is None:  # unreachable: invertibility checked on construction
                raise ValueError("matrix is singular")
            aug[rank], aug[piv] = aug[piv], aug[rank]
            for r in range(n):
                if r != rank and (aug[r] >> col) & 1:
                    aug[r] ^= aug[rank]
            rank += 1
        return GLMatrix(
            tuple(
                tuple((aug[i] >> (n + j)) & 1 for j in range(n)) for i in range(n)
            )
        )

    def __str__(self) -> str:
        return ";".join("".join(str(e) for e in row) for row in self.entries)


def parse_glmatrix(text: str) -> GLMatrix:
    """Parse semicolon-separated bit rows, e.g. '10;11'."""
    rows = tuple(tuple(int(c) for c in part) for part in text.strip().split(";"))
    return GLMatrix(rows)


def _rank(entries: Sequence[Sequence[int]]) -> int:
    rows = [sum(b << j for j, b in enumerate(r)) for r in entries]
    rank = 0
    for col in range(len(entries)):
        piv = next((i for i in range(rank, len(rows)) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


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


def group_closure(gens: Sequence[GLMatrix], limit: int = 100_000) -> set[GLMatrix]:
    """The subgroup generated by gens, by breadth-first closure."""
    if not gens:
        return {GLMatrix.identity(1)}
    seen = {GLMatrix.identity(gens[0].n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = g @ h
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
                    if len(seen) > limit:
                        raise RuntimeError("group closure exceeded limit")
        frontier = nxt
    return seen


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


def act_poly(g: GLMatrix, p: Polynomial) -> Polynomial:
    """Degree-preserving algebra substitution u_j -> sum_i g[i][j] u_i."""
    if g.n != p.n:
        raise ValueError("variable count mismatch")
    return Polynomial((t for m in p.terms for t in _act_exponents(g, m)), p.n)


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


def act_homology(g: GLMatrix, xi: DElement) -> DElement:
    """The adjoint action on homology: <g.xi, f> = <xi, g^{-1}.f> for all f."""
    if g.n != xi.n:
        raise ValueError("variable count mismatch")
    if xi.is_zero():
        return xi
    d = xi.degree
    assert d is not None
    index = degree_index(xi.n, d)
    image = _homology_action(g, d)(index[t] for t in xi.terms)
    return _bits_element(image, xi.n, d)


# -- invariants of cohits --------------------------------------------------------


def invariant_basis(
    n: int, d: int, budget: Budget | None = None
) -> list[Polynomial]:
    """Basis of the fixed space of the group acting on the cohit quotient.

    Each returned polynomial is a sum of cohit representative monomials; it
    is fixed by every generator modulo the hit subspace.
    """
    cohits = cohit_basis(n, d, budget=budget)
    reps = cohits.representatives
    q = len(reps)
    if q == 0:
        return []
    hit = cohits.hit.basis
    index = degree_index(n, d)
    tuples = list(index)
    rep_pos = {m: i for i, m in enumerate(reps)}

    def cohit_coords(bits: int) -> int:
        coords = 0
        for i in ones(hit.reduce_int(bits)):
            coords |= 1 << rep_pos[tuples[i]]
        return coords

    relation_rows = EchelonBasis(q, budget=budget or DEFAULT_BUDGET)
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
    fixed = relation_rows.kernel(budget=budget)
    return [
        Polynomial([reps[i] for i in ones(vec)], n) for vec in fixed.row_ints()
    ]


# -- coinvariants of primitives --------------------------------------------------


@dataclass(frozen=True)
class CoinvariantReport:
    n: int
    d: int
    dimension: int
    class_representatives: tuple[DElement, ...]
    relations_rank: int


def _coinvariant_data(
    n: int, d: int, budget: Budget | None
) -> tuple[PrimitiveBasis, EchelonBasis]:
    """The primitive basis and the echelonized (g - 1) relation space, memoised."""

    def compute() -> tuple[PrimitiveBasis, EchelonBasis]:
        prim = primitive_basis(n, d, budget=budget)
        p = prim.dimension
        relations = EchelonBasis(p, budget=budget or DEFAULT_BUDGET)
        if p:
            rows = prim.echelon.row_ints()
            position = {piv: j for j, piv in enumerate(prim.echelon.pivots)}
            pivot_mask = sum(1 << piv for piv in position)
            coords = [ones(v) for v in rows]
            for g in generators(n):
                act = _homology_action(g, d)
                for v, support in zip(rows, coords):
                    w = act(support) ^ v
                    if prim.echelon.reduce_int(w) != 0:
                        raise RuntimeError(
                            "group image left the primitive subspace; convention bug"
                        )
                    relations.insert_indices([position[c] for c in ones(w & pivot_mask)])
        return prim, relations

    return store.fetch("coinvariant", n, d, compute)


def coinvariant_classes(
    n: int, d: int, budget: Budget | None = None
) -> CoinvariantReport:
    """Quotient of the primitive subspace by the span of (g - 1) images.

    Representatives are the primitive basis vectors at the first non-pivot
    coordinates of the relation space, i.e. the canonical choice.
    """
    prim, relations = _coinvariant_data(n, d, budget)
    p = prim.dimension
    if p == 0:
        return CoinvariantReport(n, d, 0, (), 0)
    reps = tuple(prim.elements(quotient_representatives(p, relations)))
    return CoinvariantReport(n, d, p - relations.rank, reps, relations.rank)


def coinvariant_class_nonzero(
    n: int, d: int, xi: DElement, budget: Budget | None = None
) -> bool:
    """Whether a primitive element has nonzero class in the coinvariants."""
    prim, relations = _coinvariant_data(n, d, budget)
    bits = _element_bits(xi, n, d)
    if prim.echelon.reduce_int(bits) != 0:
        raise ValueError("element is not in the primitive subspace")
    coords = sum(1 << j for j, p in enumerate(prim.echelon.pivots) if bits >> p & 1)
    return relations.reduce_int(coords) != 0
