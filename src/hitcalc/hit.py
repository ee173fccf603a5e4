"""The mod-2 hit problem: hit subspaces, cohit bases, and degree reduction.

The hit subspace in degree d is the span of the images of the squaring
operations of positive degree.  Because the operations of 2-power degree
generate all of them under composition, the span of Sq^(2^i)(P^(d-2^i))
over 2^(i+1) <= d equals the full hit space; the test suite checks this
against the all-k span on small instances rather than assuming it.

Sq^k never changes which variables a monomial contains: the terms of
Sq^k(u^e) are u^(e+c) with each c_i a submask of e_i, so c_i = 0 where
e_i = 0.  So P_n(d) is the direct sum over the supports S of the spans of
the monomials whose nonzero exponents sit exactly at S, the hit space
splits the same way, and QP_n(d) is the sum of C(n, k) copies of
QP^+_k(d) (Kameko, thesis, Johns Hopkins 1990; Sum, On the Peterson hit
problem, Adv. Math. 274, 2015).  Here P^+_k(d) is the full-support block,
the degree-d monomials in k variables with every exponent >= 1; its lex
order is that of P_k(d - k) under e -> e - 1.

Each block P^+_k(d), k <= n, is eliminated once and memoised (``store``),
and its rows are relabelled into each of the C(n, k) supports by the
order-preserving map of variables, which keeps ascending lex order.  The
canonical echelon form of a span over disjoint coordinates is the union of
its blocks' canonical forms, and its kernel splits the same way, so the
relabelled hit rows and kernel rows are exactly those of one elimination
of all of P_n(d), which the test suite keeps as its oracle.  Cohit
representatives are the non-pivot monomials of that canonical form under
the global ascending-lex enumeration, so results are identical across
runs.

The lex order is ``steenrod``'s: a block's non-pivots are unranked there
(``monomial_unrank``), and the relabelling walks a block's monomials on
a support in order, adding up ``steenrod._block_starts``, which is
cheaper than ranking each placed monomial.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, NamedTuple

from . import store
from .gf2 import EchelonBasis, ones, quotient_representatives
from .steenrod import (
    Monomial,
    _block_starts,
    _odd_submasks,
    full_support_count,
    monomial_count,
    monomial_unrank,
    mu,
)

__all__ = [
    "CohitBasis",
    "hit_basis",
    "hit_kernel",
    "cohit_dim",
    "cohit_basis",
    "kameko_iso_applicable",
    "reduce_degree_chain",
]


class CohitBasis(NamedTuple):
    n: int
    d: int
    representatives: tuple[Monomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.representatives)


def _square_degrees(d: int) -> list[int]:
    """The operation degrees 2^i whose image in degree d can be nonzero."""
    # Sq^k annihilates polynomials of degree < k, so 2k <= d
    return [1 << i for i in range(d.bit_length() - 1)]


def _generator_rows(n: int, d: int) -> Iterator[int]:
    """The nonzero rows Sq^(2^i)(u^e) of the full-support block P^+_n(d), as ints.

    Bit j is the j-th monomial of P^+_n(d) in lex order, and the sources
    u^e run over P^+_n(d - 2^i).  Sq^k(u^((a,) + w)) is the sum over
    submasks k1 of a of u^(a + k1) Sq^(k - k1)(u^w) (Cartan), and the
    monomials of P^+_nv(D) with first exponent x >= 1 are one block of its
    enumeration, starting where P_nv(D - nv)'s block of x - 1 does; so
    ``walk`` fixes exponents from the left, each at least 1, carrying each
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
            for b in range(deg - 1, 0, -1):
                row = 0
                for k, shift in terms:
                    key = (k, b, deg - b)
                    r = pair_rows.get(key)
                    if r is None:  # C(b, k1) C(deg - b, k - k1) odd
                        r = pair_rows[key] = sum(
                            1 << (b + k1 - 1)
                            for k1 in _odd_submasks(b)
                            if k1 <= k and (k - k1) & ~(deg - b) == 0
                        )
                    if r:
                        row |= r << shift
                if row:
                    yield row
            return
        for a in range(deg - nv + 1, 0, -1):  # each later exponent is >= 1
            rest = deg - a
            sub = []
            for k, shift in terms:
                starts = _block_starts(nv, deg + k - nv)
                for k1 in _odd_submasks(a):
                    if k1 > k:
                        break
                    if k - k1 <= rest:
                        sub.append((k - k1, shift + starts[a + k1 - 1]))
            if sub:
                yield from walk(nv - 1, rest, sub)

    yield from heapq.merge(
        *(walk(n, d - k, [(k, 0)]) for k in _square_degrees(d)),
        key=lambda row: row & -row,
        reverse=True,
    )
    # walk refers to itself, so this frees the memo now, not at the next
    # cyclic collection
    pair_rows.clear()


def _block_echelon(k: int, d: int) -> EchelonBasis:
    """Echelon basis of the hit space of the block P^+_k(d), not memoised.

    The generator rows go into the elimination as they are produced.
    """
    basis = EchelonBasis(full_support_count(k, d))
    for row in _generator_rows(k, d):
        basis.insert_int(row)
    return basis


def _block(k: int, d: int) -> EchelonBasis:
    """The memoised hit echelon of the block P^+_k(d)."""
    return store.cached_hit_basis(k, d, lambda: _block_echelon(k, d))


def _check(n: int, d: int) -> None:
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")


def _support_sizes(n: int, d: int) -> range:
    """The k of the blocks P^+_k(d) that make up P_n(d)."""
    return range(1, min(n, d) + 1) if d else range(1)  # degree 0: the unit


def _place(n: int, support: tuple[int, ...], lowered: tuple[int, ...]) -> Monomial:
    """The monomial on support whose exponents there are lowered + 1, the
    member of P^+_k(d) that a monomial of P_k(d - k) stands for."""
    m = [0] * n
    for p, e in zip(support, lowered):
        m[p] = e + 1
    return Monomial(m)


def _embedding(n: int, d: int, support: tuple[int, ...]) -> list[int]:
    """The index in P_n(d) of each monomial of P^+_k(d) placed on support.

    A monomial's index is the sum over its variables i < n - 1 of the start
    of its exponent's block among the monomials in u_i, ..., u_n
    (``_block_starts``); a variable off the support starts block 0, at 0.
    The walk is in lex order, so the indices ascend.
    """
    out: list[int] = []
    if support:
        _embed(out, n, support, 0, d, 0)
    else:
        out.append(0)
    return out


def _embed(
    out: list[int], n: int, support: tuple[int, ...], j: int, rest: int, offset: int
) -> None:
    # the exponents before support[j] are fixed, their blocks start at offset
    # and rest is the degree left for support[j:]
    p = support[j]
    starts = _block_starts(n - p, rest)
    if j == len(support) - 1:  # u_p takes the rest, every later variable 0
        out.append(offset + starts[rest] if p < n - 1 else offset)
        return
    for a in range(1, rest - len(support) + j + 2):  # each later exponent >= 1
        _embed(out, n, support, j + 1, rest - a, offset + starts[a])


def _relabel(n: int, d: int, block_of: Callable[[int], EchelonBasis]) -> EchelonBasis:
    """The basis over P_n(d) whose rows are the canonical rows of
    block_of(k), a basis over P^+_k(d), placed on each support of size k.

    Placing keeps the order of coordinates, so a row's pivot stays its
    lowest bit, and rows on disjoint supports share no coordinate: the
    union is canonical, and a RuntimeError says if it ever is not.
    """
    rows: dict[int, int] = {}
    for k in _support_sizes(n, d):
        block = block_of(k)
        if not block.rank:
            continue
        for support in itertools.combinations(range(n), k):
            index = _embedding(n, d, support)
            for row in block.iter_row_ints():
                coords = [index[i] for i in ones(row)]
                p = coords[0]
                rows[p] = sum(1 << (c - p) for c in coords)
    basis = EchelonBasis.from_canonical_rows(monomial_count(n, d), rows)
    if basis is None:
        raise RuntimeError(f"the relabelled hit blocks of P_{n}({d}) are not canonical")
    return basis


def hit_basis(n: int, d: int) -> EchelonBasis:
    """Canonical echelon basis of the hit subspace of degree d in n variables.

    It is relabelled from the memoised blocks on each call.
    """
    _check(n, d)
    return _relabel(n, d, lambda k: _block(k, d))


def hold_blocks(n: int, d: int) -> dict[int, EchelonBasis]:
    """The hit echelon of each block P^+_k(d) of P_n(d), keyed by k.

    Each is eliminated once and held in the memory tier alone (``store.held``):
    never loaded or written, and a later ``_block`` finds it there and writes
    none either.
    """
    return {
        k: store.held("hit-plus", k, d, lambda: _block_echelon(k, d))
        for k in _support_sizes(n, d)
    }


def hit_kernel(n: int, d: int) -> EchelonBasis:
    """The kernel of the canonical hit rows of degree d in n variables: each
    held block's kernel (``hold_blocks``), relabelled."""
    _check(n, d)
    blocks = hold_blocks(n, d)
    return _relabel(n, d, lambda k: blocks[k].kernel())


def cohit_basis(n: int, d: int) -> CohitBasis:
    """Monomial representatives of a basis of the degree-d cohit quotient.

    They are each block's non-pivot monomials placed on every support, in
    ascending lex order.
    """
    _check(n, d)
    reps = []
    for k in _support_sizes(n, d):
        for f in quotient_representatives(_block(k, d)):
            lowered = monomial_unrank(k, d - k, f)
            for support in itertools.combinations(range(n), k):
                reps.append(_place(n, support, lowered))
    reps.sort()
    return CohitBasis(n, d, tuple(reps))


def cohit_dim(n: int, d: int) -> int:
    """The sum over k of C(n, k) dim QP^+_k(d)."""
    _check(n, d)
    dim = 0
    for k in _support_sizes(n, d):
        block = _block(k, d)
        dim += math.comb(n, k) * (block.ambient_length - block.rank)
    return dim


# -- degree reduction ------------------------------------------------------------


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
