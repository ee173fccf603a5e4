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

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator

from . import budget, store
from .gf2 import EchelonBasis, quotient_representatives
from .steenrod import (
    Monomial,
    Polynomial,
    _odd_submasks,
    _tuples,
    alpha,
    monomial_count,
    mu,
)

__all__ = [
    "HitSpace",
    "CohitBasis",
    "hit_basis",
    "hit_echelon",
    "cohit_dim",
    "cohit_basis",
    "peterson_wood_zero",
    "kameko_down",
    "kameko_down_poly",
    "kameko_iso_applicable",
    "reduce_degree_chain",
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
    # Sq^k annihilates polynomials of degree < k, so 2k <= d
    return [1 << i for i in range(d.bit_length() - 1)]


@functools.lru_cache(maxsize=None)
def _block_starts(n: int, d: int) -> tuple[int, ...]:
    """Entry a: lex index of the first degree-d monomial with first exponent a."""
    counts = (monomial_count(n - 1, d - a) for a in range(d + 1))
    return tuple(itertools.accumulate(counts, initial=0))


def _generator_rows(n: int, d: int) -> Iterator[int]:
    """The nonzero rows Sq^(2^i)(u^e) of the degree-d hit space, as ints.

    Bit j is the j-th degree-d monomial in lex order.  Sq^k(u^((a,) + w)) is
    the sum over submasks k1 of a of u^(a + k1) Sq^(k - k1)(u^w) (Cartan),
    and the monomials with first exponent a + k1 are one block of the
    enumeration, so ``walk`` fixes exponents from the left carrying each
    term's remaining square and block offset.  Rows in the last two
    variables are memoised for this call only.  The sources of each k are
    walked in descending lex order, and the streams of all k are merged on
    the lowest set coordinate: near the order that keeps forward
    elimination cheap (see ``gf2``), with no row list built or sorted.
    """
    if n == 1:  # Sq^k(u^(d-k)) = C(d - k, k) u^d
        yield from (1 for k in _square_degrees(d) if k & ~(d - k) == 0)
        return
    pair_rows: dict[tuple[int, int, int], int] = {}

    def walk(nv: int, deg: int, terms: list[tuple[int, int]]) -> Iterator[int]:
        # each source yields the OR over terms (k, shift) of Sq^k(source) << shift
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


def hit_echelon(n: int, d: int) -> EchelonBasis:
    """Echelon basis of the hit subspace of degree d in n variables, not memoised.

    The generator rows go into the elimination as they are produced.
    """
    dim = monomial_count(n, d)
    budget.check_bytes(dim * ((dim + 63) // 64) * 8, f"hit space ({n}, {d})")
    basis = EchelonBasis(dim)
    for row in _generator_rows(n, d):
        basis.insert_int(row)
    return basis


def hit_basis(n: int, d: int) -> HitSpace:
    """Canonical echelon basis of the hit subspace of degree d in n variables."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    echelon = store.cached_hit_basis(n, d, lambda: hit_echelon(n, d))
    return HitSpace(n, d, echelon)


def cohit_basis(n: int, d: int) -> CohitBasis:
    """Monomial representatives of a basis of the degree-d cohit quotient."""
    space = hit_basis(n, d)
    tuples = _tuples(n, d)
    reps = quotient_representatives(len(tuples), space.basis)
    return CohitBasis(n, d, tuple(Monomial(tuples[i]) for i in reps), space)


def cohit_dim(n: int, d: int) -> int:
    space = hit_basis(n, d)
    return monomial_count(n, d) - space.rank


def peterson_wood_zero(n: int, d: int) -> bool:
    """True iff alpha(n + d) > n, which forces the degree-d cohits to vanish."""
    return alpha(n + d) > n


# -- degree reduction ------------------------------------------------------------


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
