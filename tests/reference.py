"""Element-level references that the tests check the engine against.

The commands need none of these, so they live here and not in ``hitcalc``:
the list of the degree-d monomials, the product of GL_n matrices and the
group that a generating set closes to, the substitution action on one
polynomial and its adjoint on one d-element, the Peterson-Wood vanishing
criterion, and Kameko's halving map on monomials and polynomials.
"""

from __future__ import annotations

from hitcalc.glrep import GLMatrix, _act_exponents, _homology_action
from hitcalc.homology import DElement, _bits_element
from hitcalc.steenrod import Monomial, Polynomial, _tuples, alpha, degree_index


def enumerate_monomials(n: int, d: int) -> list[Monomial]:
    """All degree-d monomials in n variables, ascending lex on exponent tuples."""
    return [Monomial(t) for t in _tuples(n, d)]


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


def act_homology(g: GLMatrix, xi: DElement) -> DElement:
    """The adjoint action on a homogeneous nonzero d-element:
    <g.xi, f> = <xi, g^{-1}.f> for all f."""
    d = xi.degree
    index = degree_index(xi.n, d)
    return _bits_element(_homology_action(g, d)(index[t] for t in xi.terms), xi.n, d)


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
