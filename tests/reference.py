"""Element-level references that the tests check the engine against.

The commands need none of these, so they live here and not in ``hitcalc``:
the table of the degree-d monomials and its index, membership in a
primitive span read through that index, the product and inverse of GL_n
matrices and the group that a generating set closes to, the substitution
action on one polynomial, its adjoint on the d-monomials of one degree and
the (g - 1) relations of the primitives that the adjoint gives, the
Peterson-Wood vanishing criterion, and Kameko's halving map on monomials
and polynomials.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

from hitcalc.gf2 import EchelonBasis, ones
from hitcalc.glrep import GLMatrix, _act_exponents
from hitcalc.homology import DElement, PrimitiveBasis, primitive_basis
from hitcalc.steenrod import Monomial, Polynomial, alpha


def _enumerate_tuples(n: int, d: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (d,)
        return
    for e1 in range(d + 1):
        for rest in _enumerate_tuples(n - 1, d - e1):
            yield (e1,) + rest


@functools.lru_cache(maxsize=None)
def lex_tuples(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of the degree-d monomials in n >= 1 variables,
    ascending lex: the table that ``steenrod.monomial_rank`` and
    ``monomial_unrank`` compute without."""
    return tuple(_enumerate_tuples(n, d))


@functools.lru_cache(maxsize=None)
def degree_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    """Exponent tuple -> index in the ascending-lex degree-d enumeration."""
    return {t: i for i, t in enumerate(lex_tuples(n, d))}


def enumerate_monomials(n: int, d: int) -> list[Monomial]:
    """All degree-d monomials in n variables, ascending lex on exponent tuples."""
    return [Monomial(t) for t in lex_tuples(n, d)]


def in_span(prim: PrimitiveBasis, xi: DElement) -> bool:
    """Whether xi, a d-element of the basis's degree, lies in its span."""
    index = degree_index(prim.n, prim.d)
    return prim.echelon.reduce_int(sum(1 << index[t] for t in xi.terms)) == 0


# -- the general linear group ----------------------------------------------------


def identity(n: int) -> GLMatrix:
    return GLMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def matmul(g: GLMatrix, h: GLMatrix) -> GLMatrix:
    columns = tuple(zip(*h.entries))
    return GLMatrix(
        tuple(
            tuple(sum(a & b for a, b in zip(row, col)) & 1 for col in columns)
            for row in g.entries
        )
    )


def inverse(g: GLMatrix) -> GLMatrix:
    """g^{-1}, read off the canonical rows of [g | 1], which are [1 | g^{-1}]."""
    n = g.n
    basis = EchelonBasis(2 * n)
    for i, row in enumerate(g.entries):
        basis.insert_int(sum(b << j for j, b in enumerate(row)) | 1 << (n + i))
    rows = basis.row_ints()
    return GLMatrix(tuple(tuple(r >> (n + j) & 1 for j in range(n)) for r in rows))


def group_closure(gens: list[GLMatrix]) -> set[GLMatrix]:
    """The group that the nonempty list gens generates, by breadth-first closure."""
    seen = {identity(gens[0].n)}
    frontier = list(seen)
    while frontier:
        grown = [matmul(g, h) for g in frontier for h in gens]
        frontier = [g for g in dict.fromkeys(grown) if g not in seen]
        seen.update(frontier)
    return seen


def act_poly(g: GLMatrix, p: Polynomial) -> Polynomial:
    """The algebra substitution u_j -> sum_i g[i][j] u_i."""
    return Polynomial((t for m in p.terms for t in _act_exponents(g, m)), p.n)


def transposed_action(g: GLMatrix, d: int) -> list[int]:
    """The images of the degree-d d-monomials under g, as bit ints, read off
    the transpose of the substitution by g^{-1}: <g.xi, f> = <xi, g^{-1}.f>."""
    ginv = inverse(g)
    index = degree_index(g.n, d)
    images = [0] * len(index)
    for exps, tau in index.items():
        for t in _act_exponents(ginv, exps):
            images[index[t]] ^= 1 << tau
    return images


def relation_oracle(n: int, d: int, elements: Iterable[GLMatrix]) -> EchelonBasis:
    """The span of the (g - 1) images of the degree-d primitives, g in
    elements, over the primitive basis: the relations the coinvariants divide
    by, from the transposed substitution and not from the invariants."""
    prim = primitive_basis(n, d)
    pivots = prim.echelon.pivots
    rows = prim.echelon.row_ints()
    relations = EchelonBasis(prim.dimension)
    for g in elements:
        images = transposed_action(g, d)
        for v in rows:
            image = 0
            for sigma in ones(v):
                image ^= images[sigma]
            assert prim.echelon.reduce_int(image) == 0, "left the primitives"
            w = image ^ v
            relations.insert_indices([j for j, p in enumerate(pivots) if w >> p & 1])
    return relations


# -- the hit problem -------------------------------------------------------------


def peterson_wood_zero(n: int, d: int) -> bool:
    """True iff alpha(n + d) > n, which forces the degree-d cohits to vanish."""
    return alpha(n + d) > n


def kameko_down(n: int, m: Monomial) -> Monomial | None:
    """The halving map on monomials of degree 2d + n.

    All-odd exponent tuples map to their halved tuple ((e_i - 1) / 2); any
    even exponent sends the monomial to zero (None).  Extended linearly it
    descends to a well-defined map on cohits.
    """
    if len(m) != n:
        raise ValueError("variable count mismatch")
    if (sum(m) - n) % 2 != 0:
        raise ValueError(f"degree {sum(m)} is not of the form 2d + {n}")
    if any(e % 2 == 0 for e in m):
        return None
    return Monomial((e - 1) // 2 for e in m)


def kameko_down_poly(n: int, p: Polynomial) -> Polynomial:
    images = (kameko_down(n, m) for m in p.terms)
    return Polynomial((m for m in images if m is not None), n)
