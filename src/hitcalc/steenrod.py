"""The polynomial algebra Z/2[u_1,...,u_n] with its squaring operations.

Monomials are exponent tuples; a polynomial is a mod-2 set of monomials, a
``terms.TermSet`` with ``Monomial`` as its term class.
``sq`` implements the degree-k squaring operation through the Cartan
formula: Sq^k(u^e) is the sum over compositions k = k_1 + ... + k_n of
prod_i C(e_i, k_i) u^(e+k), with binomial parity decided by Lucas'
theorem (C(a, b) is odd iff b's binary digits are dominated by a's, i.e.
b is a submask of a).  Since the target exponent tuple e+k determines the
composition, no cancellation happens inside a single monomial image.

The ascending lexicographic enumeration of the degree-d monomials defined
here is the global coordinate system used by every bit row in the package.
It is held as arithmetic, not as a table: ``monomial_rank`` and
``monomial_unrank`` map an exponent tuple to its index and back through
the block starts of ``_block_starts``, whose size grows with d, not with
the number of monomials.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Callable, Iterator, Sequence

from .terms import Term, TermSet

__all__ = [
    "Monomial",
    "Polynomial",
    "alpha",
    "mu",
    "generic_degree",
    "monomial_count",
    "monomial_rank",
    "monomial_unrank",
    "sq",
    "parse_monomial",
    "parse_polynomial",
]


# -- arithmetic helpers --------------------------------------------------------


def alpha(m: int) -> int:
    """Number of ones in the binary expansion of m."""
    if m < 0:
        raise ValueError("alpha is defined for non-negative integers")
    return m.bit_count()


def mu(ell: int) -> int:
    """Least r >= 0 with alpha(ell + r) <= r."""
    if ell < 0:
        raise ValueError("mu is defined for non-negative integers")
    r = 0
    while alpha(ell + r) > r:
        r += 1
    return r


def generic_degree(k: int, t: int, ell: int) -> int:
    """k(2^t - 1) + ell * 2^t."""
    return k * ((1 << t) - 1) + (ell << t)


# -- monomials and polynomials -------------------------------------------------


class Monomial(Term):
    """A monomial u_1^{e_1}...u_n^{e_n}, printed '1.2'; ordered ascending lex."""

    __slots__ = ()
    noun = "monomial"


class Polynomial(TermSet):
    """A finite mod-2 sum of monomials in a fixed number of variables.

    In one variable the piece '0' is the unit monomial, so there zero is
    printed and read as the empty text.
    """

    __slots__ = ()
    term = Monomial

    def __str__(self) -> str:
        if self.n == 1 and not self.terms:
            return ""
        return super().__str__()

    @classmethod
    def parse(cls, text: str, *n: int | None) -> "Polynomial":
        if n == (1,):
            return cls((Monomial.parse(p) for p in text.split("+") if p.strip()), 1)
        return super().parse(text, *n)


def parse_monomial(text: str) -> Monomial:
    """Parse the dot format, e.g. '0.15.15.11'."""
    return Monomial.parse(text)


def parse_polynomial(text: str, n: int | None = None) -> Polynomial:
    """Parse '+'-joined monomials; n defaults to the first monomial's length."""
    return Polynomial.parse(text, n)


# -- the global monomial enumeration -------------------------------------------


def monomial_count(n: int, d: int) -> int:
    """C(d+n-1, n-1): the number of degree-d monomials in n variables."""
    num, den = 1, 1
    for i in range(1, n):
        num *= d + i
        den *= i
    return num // den


def full_support_count(k: int, d: int) -> int:
    """C(d-1, k-1): the degree-d monomials in k variables with every exponent >= 1."""
    if k == 0:
        return int(d == 0)
    return monomial_count(k, d - k) if d >= k else 0


@functools.lru_cache(maxsize=None)
def _block_starts(n: int, d: int) -> tuple[int, ...]:
    """Entry a: lex index of the first degree-d monomial with first exponent a."""
    counts = (monomial_count(n - 1, d - a) for a in range(d + 1))
    return tuple(itertools.accumulate(counts, initial=0))


def monomial_rank(n: int, d: int, exps: Sequence[int]) -> int:
    """The index of u^exps, of degree d, in the lex enumeration of P_n(d).

    The monomials with first exponent a form one block of the enumeration,
    ordered as P_(n-1)(d - a), so the index is the sum of the starts of the
    blocks of exps[0], ..., exps[n - 2].
    """
    j = 0
    for i in range(n - 1):
        j += _block_starts(n - i, d)[exps[i]]
        d -= exps[i]
    return j


def monomial_unrank(n: int, d: int, j: int) -> tuple[int, ...]:
    """The exponents of the j-th monomial of P_n(d) in lex order."""
    m = []
    for i in range(n - 1):
        starts = _block_starts(n - i, d)
        a = bisect.bisect_right(starts, j) - 1
        m.append(a)
        j -= starts[a]
        d -= a
    return (*m, d) if n else ()


# -- Steenrod squares ----------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _odd_submasks(e: int) -> tuple[int, ...]:
    """All k with C(e, k) odd, i.e. the submasks of e, ascending."""
    subs = []
    s = 0
    while True:
        subs.append(s)
        if s == e:
            break
        s = (s - e) & e  # next submask in increasing order
    return tuple(subs)


def _compositions(
    k: int, exps: tuple[int, ...], moves: Callable[[int], tuple[int, ...]], sign: int
) -> Iterator[tuple[int, ...]]:
    """exps + sign * c over the compositions c of k with each c_i in moves(exps[i]).

    moves(e) is ascending and starts at 0; the c are yielded in lex order.
    """
    n = len(exps)
    options = [moves(e) for e in exps]
    suffix_cap = [0] * (n + 1)  # the largest sum of c_i, ..., c_(n-1)
    for i in range(n - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + options[i][-1]
    if k > suffix_cap[0]:
        return
    target = list(exps)

    def recurse(i: int, rem: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(target)
            return
        for ki in options[i]:
            if ki > rem:
                break
            if rem - ki > suffix_cap[i + 1]:
                continue
            target[i] = exps[i] + sign * ki
            yield from recurse(i + 1, rem - ki)
        target[i] = exps[i]

    yield from recurse(0, k)


def sq_exponent_targets(k: int, exps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of the monomials in Sq^k(u^exps); no duplicates occur."""
    return _compositions(k, exps, _odd_submasks, 1)


def sq(k: int, p: Polynomial) -> Polynomial:
    """Sq^k of a polynomial, monomial by monomial through the Cartan formula."""
    if k < 0:
        raise ValueError("Sq^k needs k >= 0")
    return Polynomial((t for m in p.terms for t in sq_exponent_targets(k, m)), p.n)

