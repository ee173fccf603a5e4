"""The mod-2 hit problem: hit subspaces, cohit bases, and degree reduction.

The hit subspace in degree d is the span of the images of the squaring
operations of positive degree.  Because the operations of 2-power degree
generate all of them under composition, the span of Sq^(2^i)(P^(d-2^i))
over 2^(i+1) <= d equals the full hit space; the test suite checks this
against the all-k span on small instances rather than assuming it.

Cohit representatives are the non-pivot monomials of the canonical echelon
form under the global ascending-lex enumeration, so results are identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .budget import Budget, DEFAULT_BUDGET
from .gf2 import EchelonBasis
from .steenrod import (
    Monomial,
    Polynomial,
    alpha,
    degree_index,
    enumerate_monomials,
    monomial_count,
    mu,
    sq_exponent_targets,
)

__all__ = [
    "HitSpace",
    "CohitBasis",
    "hit_basis",
    "cohit_dim",
    "cohit_basis",
    "peterson_wood_zero",
    "kameko_down",
    "kameko_down_poly",
    "kameko_iso_applicable",
    "reduce_degree_chain",
    "clear_caches",
]


@dataclass(frozen=True)
class HitSpace:
    n: int
    d: int
    basis: EchelonBasis

    @property
    def rank(self) -> int:
        return self.basis.rank


@dataclass(frozen=True)
class CohitBasis:
    n: int
    d: int
    representatives: tuple[Monomial, ...]
    hit: HitSpace

    @property
    def dimension(self) -> int:
        return len(self.representatives)


def _square_degrees(d: int) -> list[int]:
    """The operation degrees 2^i whose image in degree d can be nonzero."""
    out = []
    k = 1
    while 2 * k <= d:  # Sq^k annihilates polynomials of degree < k
        out.append(k)
        k *= 2
    return out


def _generator_rows(n: int, d: int) -> Iterator[list[int]]:
    index = degree_index(n, d)
    for k in _square_degrees(d):
        for m in enumerate_monomials(n, d - k):
            yield [index[t] for t in sq_exponent_targets(k, m.exponents)]


_hit_cache: dict[tuple[int, int], HitSpace] = {}


def hit_basis(n: int, d: int, budget: Budget | None = None) -> HitSpace:
    """Canonical echelon basis of the hit subspace of degree d in n variables."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    cached = _hit_cache.get((n, d))
    if cached is not None:
        return cached
    budget = budget or DEFAULT_BUDGET
    dim = monomial_count(n, d)
    budget.check_bytes(dim * ((dim + 63) // 64) * 8, f"hit space ({n}, {d})")
    basis = EchelonBasis(dim, budget=budget)
    basis.extend(_generator_rows(n, d))
    space = HitSpace(n, d, basis)
    _hit_cache[(n, d)] = space
    return space


def cohit_basis(n: int, d: int, budget: Budget | None = None) -> CohitBasis:
    """Monomial representatives of a basis of the degree-d cohit quotient."""
    space = hit_basis(n, d, budget=budget)
    monos = enumerate_monomials(n, d)
    pivots = set(space.basis.pivots)
    reps = tuple(m for i, m in enumerate(monos) if i not in pivots)
    return CohitBasis(n, d, reps, space)


def cohit_dim(n: int, d: int, budget: Budget | None = None) -> int:
    space = hit_basis(n, d, budget=budget)
    return monomial_count(n, d) - space.rank


def peterson_wood_zero(n: int, d: int) -> bool:
    """True iff alpha(n + d) > n, which forces the degree-d cohits to vanish."""
    return alpha(n + d) > n


def clear_caches() -> None:
    _hit_cache.clear()


# -- degree reduction ------------------------------------------------------------


def kameko_down(n: int, m: Monomial) -> Monomial | None:
    """The halving map on monomials of degree 2d + n.

    All-odd exponent tuples map to their halved tuple ((e_i - 1) / 2); any
    even exponent sends the monomial to zero (None).  Extended linearly it
    descends to a well-defined map on cohits.
    """
    if m.n != n:
        raise ValueError("variable count mismatch")
    if (m.degree - n) % 2 != 0:
        raise ValueError(f"degree {m.degree} is not of the form 2d + {n}")
    if any(e % 2 == 0 for e in m.exponents):
        return None
    return Monomial(tuple((e - 1) // 2 for e in m.exponents))


def kameko_down_poly(n: int, p: Polynomial) -> Polynomial:
    out: set[Monomial] = set()
    for m in p.terms:
        im = kameko_down(n, m)
        if im is not None:
            out.symmetric_difference_update((im,))
    return Polynomial(out, n)


def kameko_iso_applicable(n: int, d: int) -> bool:
    """Whether the halving map is an isomorphism of cohits out of degree d.

    Requires d = 2e + n for some e >= 0 and mu(d) = n; the chain reports
    every step so reductions can be audited.
    """
    return d >= n and (d - n) % 2 == 0 and mu(d) == n


def reduce_degree_chain(n: int, d: int) -> list[int]:
    """Repeatedly halve the degree while the halving map is an isomorphism."""
    chain = [d]
    while kameko_iso_applicable(n, chain[-1]):
        chain.append((chain[-1] - n) // 2)
    return chain
