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

Most of a block is hit before any elimination.  Let x have weight vector
omega(x), where omega_i(x) counts the exponents with bit i - 1 set, and
compare weight vectors lexicographically.  If mu(d) <= k and omega(x) lies
below the weight vector of the minimal spike of degree d, x is hit
(Singer, On the action of Steenrod squares on polynomial algebras, Proc.
AMS 111, 1991; Theorem 1.1 of Sum, Adv. Math. 274, 2015); if k < mu(d),
every monomial of P_k(d) is (Wood, Math. Proc. Cambridge 105, 1989).  A hit
monomial is a unit vector of the hit space and its own canonical row, so a
block is eliminated on the other columns only, from the Sq rows of the
sources that can reach them, and a block that Wood's theorem kills is not
eliminated at all (``_block_echelon``).  At (5,50) that leaves 36,425 of
the 211,876 columns of P^+_5(50).  The tests check both theorems against
the full elimination rather than assume them.

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

import functools
import heapq
import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, NamedTuple

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


# -- Singer's criterion and Wood's theorem ------------------------------------------


class _Criterion(NamedTuple):
    """Singer's criterion for the block P^+_k(d), as packed weight keys.

    ``spread`` and the spike are those of ``_spread`` and
    ``_minimal_spike``.  ``floor`` is the minimal spike's key when some
    monomial of the block has a smaller one, and -1 when none has or there
    is no spike: the monomials with keys below it are the ones the
    criterion proves hit.  ``reach[nv][deg]``, deg >= nv, is the largest
    key of nv exponents, each >= 1, summing to deg; it is empty when the
    floor is -1, since then no source is skipped.
    """

    spread: list[int]
    floor: int
    reach: list[list[int]]


def _spread(k: int, d: int) -> list[int]:
    """Entry e, for 0 <= e <= d: the weight key of the exponent e alone.

    The weight vector of a monomial x has omega_i(x), the number of its
    exponents with bit i - 1 set, and weight vectors compare
    lexicographically.  A key packs omega(x) into one int, omega_1 in the
    most significant lane and each lane k.bit_length() bits wide, since
    omega_i <= k; so int order is the lex order of weight vectors, and the
    key of a monomial of P_k(d) is the sum over its exponents e of
    ``spread[e]``.
    """
    width = k.bit_length()
    top = width * (d.bit_length() - 1)  # the lane of omega_1
    spread = [0]
    for e in range(1, d + 1):  # bit 0 of e in the top lane, the rest a lane down
        spread.append((e & 1) << top | spread[e >> 1] >> width)
    return spread


def _minimal_spike(k: int, d: int, spread: list[int]) -> int:
    """The least key over the spikes of degree d, every exponent 2^t - 1,
    with at most k nonzero exponents; -1 if there is none, i.e. k < mu(d)."""
    spikes = [(1 << t) - 1 for t in range(1, (d + 1).bit_length())]
    return min(
        (
            sum(spread[e] for e in parts)
            for r in range(k + 1)
            for parts in itertools.combinations_with_replacement(spikes, r)
            if sum(parts) == d
        ),
        default=-1,
    )


@functools.lru_cache(maxsize=None)
def _criterion(k: int, d: int) -> _Criterion:
    """Singer's criterion for P^+_k(d)."""
    spread = _spread(k, d)
    if not 0 < k <= d:  # the block is empty, or the unit
        return _Criterion(spread, -1, [])
    spike = _minimal_spike(k, d, spread)

    def bound(best: Callable[[Iterable[int]], int]) -> list[list[int]]:
        # entry [nv][deg], deg >= nv: the best key, by min or max, of nv
        # exponents, each >= 1, summing to deg; the first is a, and the
        # others sum to deg - a
        table = [[], spread]
        for nv in range(2, k + 1):
            below = table[-1]
            table.append([0] * nv + [
                best(map(operator.add, spread[1 : deg - nv + 2], below[deg - 1 : nv - 2 : -1]))
                for deg in range(nv, d + 1)
            ])
        return table

    if bound(min)[k][d] >= spike:
        return _Criterion(spread, -1, [])  # nothing is dropped, or no spike
    return _Criterion(spread, spike, bound(max))


def _block_keys(k: int, d: int, spread: list[int]) -> list[int]:
    """The key of each monomial of P^+_k(d), k >= 2, in lex order.

    A block of one variable is never asked: Singer's criterion drops
    nothing from it."""
    keys: list[int] = []

    def walk(nv: int, deg: int, key: int) -> None:
        if nv == 2:
            keys.extend(key + spread[a] + spread[deg - a] for a in range(1, deg))
        else:
            for a in range(1, deg - nv + 2):
                walk(nv - 1, deg - a, key + spread[a])

    walk(k, d, 0)
    return keys


def _generator_rows(n: int, d: int) -> Iterator[int]:
    """The nonzero rows Sq^(2^i)(u^e) of the full-support block P^+_n(d), as
    ints, over the sources u^e that Singer's criterion does not rule out.

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

    Each term y of Sq^k(x), k > 0, has a smaller weight vector than x: at
    the lowest bit p that the Cartan split adds to any exponent, the bits
    below p do not change and each exponent it touches goes from 1 to 0 at
    p, so omega_(p+1) falls and no earlier omega_i moves.  So a source whose
    key is at most the floor of ``_criterion`` has only terms that
    ``_block_echelon`` drops: it is skipped, and so is a subtree whose
    prefix key plus the largest key its remaining exponents reach is at
    most the floor.  Where nothing is dropped the floor is -1, and every
    source is walked.
    """
    if n == 1:  # Sq^k(u^(d-k)) = C(d - k, k) u^d
        yield from (1 for k in _square_degrees(d) if k & ~(d - k) == 0)
        return
    spread, floor, reach = _criterion(n, d)
    pair_rows: dict[tuple[int, int, int], int] = {}

    def walk(
        nv: int, deg: int, terms: list[tuple[int, int]], key: int
    ) -> Iterator[int]:
        # each source yields the OR over terms (k, shift) of Sq^k(source) << shift,
        # and key is the weight key of the exponents fixed so far
        firsts: Iterable[int] = range(deg - nv + 1, 0, -1)  # each later exponent is >= 1
        if key <= floor:  # else every source below has a key above the floor
            firsts = [a for a in firsts if key + spread[a] + reach[nv - 1][deg - a] > floor]
        if nv == 2:
            for b in firsts:
                row = 0
                for k, shift in terms:
                    pair = (k, b, deg - b)
                    r = pair_rows.get(pair)
                    if r is None:  # C(b, k1) C(deg - b, k - k1) odd
                        r = pair_rows[pair] = sum(
                            1 << (b + k1 - 1)
                            for k1 in _odd_submasks(b)
                            if k1 <= k and (k - k1) & ~(deg - b) == 0
                        )
                    if r:
                        row |= r << shift
                if row:
                    yield row
            return
        # a term's block starts depend on its square, not on the exponent a
        placed = [(k, shift, _block_starts(nv, deg + k - nv)) for k, shift in terms]
        for a in firsts:
            rest = deg - a
            sub = []
            for k, shift, starts in placed:
                for k1 in _odd_submasks(a):
                    if k1 > k:
                        break
                    if k - k1 <= rest:
                        sub.append((k - k1, shift + starts[a + k1 - 1]))
            if sub:
                yield from walk(nv - 1, rest, sub, key + spread[a])

    yield from heapq.merge(
        *(walk(n, d - k, [(k, 0)], 0) for k in _square_degrees(d)),
        key=lambda row: row & -row,
        reverse=True,
    )
    # walk refers to itself, so this frees the memo now, not at the next
    # cyclic collection
    pair_rows.clear()


def _block_echelon(k: int, d: int) -> EchelonBasis:
    """Echelon basis of the hit space of the block P^+_k(d), not memoised.

    By Singer's criterion (Proc. AMS 111, 1991; Theorem 1.1 of Sum, Adv.
    Math. 274, 2015) every monomial whose weight vector lies below the
    minimal spike's is hit, and by Wood's theorem (Math. Proc. Cambridge
    105, 1989) every monomial is when k < mu(d).  A hit monomial is a unit
    vector of the hit space, so its canonical row is that unit vector, and
    the hit space is the span of the dropped unit vectors plus its
    projection onto the kept columns.  So the generator rows are masked to
    the kept columns and go into the elimination as they are produced, and
    the canonical form is the dropped unit rows together with the canonical
    rows of that elimination, which have zeros at every dropped column.
    """
    m = full_support_count(k, d)
    if k < mu(d):
        rows = dict.fromkeys(range(m), 1)
    else:
        spread, floor, _ = _criterion(k, d)
        basis = EchelonBasis(m)
        generated = _generator_rows(k, d)
        if floor < 0:  # nothing is dropped
            for row in generated:
                basis.insert_int(row)
            return basis
        dropped, kept = [], []
        for j, key in enumerate(_block_keys(k, d, spread)):
            (kept if key >= floor else dropped).append(j)
        keep = _pack(kept)
        del kept
        for row in generated:
            basis.insert_int(row & keep)
        rows = basis.shifted_rows()
        del basis
        rows.update(dict.fromkeys(dropped, 1))
    out = EchelonBasis.from_canonical_rows(m, rows)
    if out is None:
        raise RuntimeError(f"the hit rows of P^+_{k}({d}) are not canonical")
    return out


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


def _pack(coords: list[int], base: int = 0) -> int:
    """The int with bit c - base set for each c in coords, ascending: a sum
    of shifts for a few, else one pass over a string of digits, since each
    shift costs the width of the int."""
    if len(coords) <= 16:
        return sum(1 << (c - base) for c in coords)
    top = coords[-1]
    digits = bytearray(b"0") * (top - base + 1)  # the highest bit first
    for c in coords:
        digits[top - c] = 49  # "1"
    return int(digits, 2)


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
        held = block.shifted_rows()
        for support in itertools.combinations(range(n), k):
            index = _embedding(n, d, support)
            for q, row in held.items():
                coords = [index[q + i] for i in ones(row)]
                rows[coords[0]] = _pack(coords, coords[0])
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
