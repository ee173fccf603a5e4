"""Words in the generators lambda_i, their quadratic rewriting, and homology.

Conventions
-----------
A word is a tuple of indices (i_1, ..., i_s), each i_r >= 0; any word that
would contain index -1 is identified with zero.  An element is a
``terms.TermSet`` with ``LambdaWord`` as its term class.  Length s is the
cohomological degree, weight is the index sum; the complex at (length s,
weight w) computes the bigraded group at (s, s + w), and the differential
maps (s, w) to (s + 1, w - 1), preserving s + w.

Binomials C(m, r) are extended to arbitrary integer m by the polynomial
formula; mod 2 this means C(m, r) = C(r - m - 1, r) for m < 0.  With that
convention the quadratic relation

    lambda_s lambda_k = sum_j C(j-k-1, 2j-s) lambda_{s+k-j} lambda_j

is self-reproducing exactly when s <= 2k, so a two-factor word
lambda_a lambda_b is *reduced* when a <= 2b and rewritable when a > 2b.
For a rewritable pair the sum has no self term and every surviving
coefficient is an ordinary binomial; second indices strictly increase under
rewriting, which bounds the recursion and makes normal forms terminate.

The generator differential is d(lambda_n) = sum_j C(n-j, j)
lambda_{j-1} lambda_{n-j}, extended by the Leibniz rule and normalized.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from . import store
from .budget import BudgetError
from .gf2 import EchelonBasis
from .terms import Term, TermSet

__all__ = [
    "LambdaWord",
    "LambdaElement",
    "TerminationGuardError",
    "binom2",
    "relation_element",
    "normal_form",
    "differential",
    "bidegree_basis",
    "homology_dim",
    "is_cycle",
    "is_boundary",
    "parse_lambda_element",
]

NORMAL_FORM_STEP_BUDGET = 1_000_000
MAX_WORDS_PER_BIDEGREE = 2_000_000  # the reduced words one bidegree may enumerate


class TerminationGuardError(RuntimeError):
    """The rewriting step budget was exhausted; the convention needs review."""


# -- extended binomial parity ---------------------------------------------------


def binom2(m: int, r: int) -> int:
    """Parity of C(m, r) for any integer m and r >= 0 (polynomial formula)."""
    if r < 0:
        return 0
    if m < 0:
        m = r - m - 1  # C(m, r) = +/- C(r-m-1, r), same parity
    if r > m:
        return 0
    return 1 if (r & (m - r)) == 0 else 0


# -- words and elements ---------------------------------------------------------


class LambdaWord(Term):
    """A product of lambda generators, stored as the index sequence, printed '1,2'."""

    __slots__ = ()
    noun = "lambda word"
    sep = ","


class LambdaElement(TermSet):
    """A mod-2 set of words, homogeneous in (length, weight); n is the length."""

    __slots__ = ("weight",)
    term = LambdaWord

    def __init__(self, words: Iterable[tuple[int, ...]]):
        collected: set[tuple[int, ...]] = set()
        for w in words:
            if -1 in w:
                continue  # identified with zero
            if any(i < -1 for i in w):
                raise ValueError("lambda indices must be >= -1")
            collected.symmetric_difference_update((tuple(w),))
        lengths = {len(w) for w in collected}
        weights = {sum(w) for w in collected}
        if len(lengths) > 1 or len(weights) > 1:
            raise ValueError("element is not homogeneous in (length, weight)")
        self.terms = frozenset(collected)
        self.n = lengths.pop() if lengths else None
        self.weight: int | None = weights.pop() if weights else None

    @property
    def length(self) -> int | None:
        return self.n

    @classmethod
    def from_word(cls, *indices: int) -> "LambdaElement":
        return cls((indices,))

    def __add__(self, other: "LambdaElement") -> "LambdaElement":
        if (
            not self.is_zero()
            and not other.is_zero()
            and (self.n, self.weight) != (other.n, other.weight)
        ):
            raise ValueError("bidegree mismatch in lambda sum")
        return LambdaElement(self.terms ^ other.terms)


def parse_lambda_element(text: str) -> LambdaElement:
    """Parse '+'-joined words of comma-separated indices, e.g. '15,3,3,2'.

    An empty string is the zero element; the single word '0' is the length-one
    generator of weight zero (which also prints as '0').
    """
    return LambdaElement.parse(text)


# -- the quadratic relations and rewriting --------------------------------------


def relation_element(s: int, k: int) -> LambdaElement:
    """The mod-2 sum lambda_s lambda_k + sum_j C(j-k-1, 2j-s) lambda_{s+k-j} lambda_j.

    Terms containing index -1 are dropped and coinciding words cancel.  The
    result is always a relation (its normal form is zero); it is empty when
    the pair (s, k) is already reduced and the sum reproduces the word.
    """
    if s < -1 or k < -1:
        raise ValueError("relation indices must be >= -1")
    words: list[tuple[int, ...]] = []
    if s >= 0 and k >= 0:
        words.append((s, k))
    for j in range(-1, s + k + 2):
        if binom2(j - k - 1, 2 * j - s):
            a = s + k - j
            if a >= 0 and j >= 0:
                words.append((a, j))
    return LambdaElement(words)


@functools.lru_cache(maxsize=None)
def _pair_nf(s: int, k: int) -> frozenset[tuple[int, int]]:
    """Normal form of the two-factor word lambda_s lambda_k."""
    if s <= 2 * k:
        return frozenset(((s, k),))
    acc: set[tuple[int, int]] = set()
    # For s > 2k the relation sum has no self term and only ordinary
    # binomials survive: j runs over ceil(s/2) <= j <= s-k-1.
    for j in range((s + 1) // 2, s - k):
        if binom2(j - k - 1, 2 * j - s):
            for pair in _pair_nf(s + k - j, j):
                acc.symmetric_difference_update((pair,))
    return frozenset(acc)


def _first_bad_pair(word: tuple[int, ...], leftmost: bool) -> int | None:
    rng: Iterable[int] = range(len(word) - 1)
    if not leftmost:
        rng = reversed(range(len(word) - 1))
    for i in rng:
        if word[i] > 2 * word[i + 1]:
            return i
    return None


def _normalize_words(
    words: Iterable[tuple[int, ...]],
    leftmost: bool = True,
    step_budget: int = NORMAL_FORM_STEP_BUDGET,
) -> frozenset[tuple[int, ...]]:
    pending: set[tuple[int, ...]] = set()
    for w in words:
        pending.symmetric_difference_update((w,))
    out: set[tuple[int, ...]] = set()
    steps = 0
    while pending:
        w = pending.pop()
        i = _first_bad_pair(w, leftmost)
        if i is None:
            out.symmetric_difference_update((w,))
            continue
        steps += 1
        if steps > step_budget:
            raise TerminationGuardError(
                f"normal form exceeded {step_budget} rewriting steps"
            )
        head, tail = w[:i], w[i + 2 :]
        for a, b in _pair_nf(w[i], w[i + 1]):
            pending.symmetric_difference_update((head + (a, b) + tail,))
    return frozenset(out)


def normal_form(
    e: LambdaElement,
    leftmost: bool = True,
    step_budget: int = NORMAL_FORM_STEP_BUDGET,
) -> LambdaElement:
    """Rewrite until no adjacent pair (a, b) with a > 2b remains.

    Idempotent; the result is independent of the rewriting strategy
    (exercised by the test suite rather than assumed).
    """
    return LambdaElement(_normalize_words(e.terms, leftmost, step_budget))


# -- the differential ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _d_generator(n: int) -> tuple[tuple[int, int], ...]:
    """Raw terms of d(lambda_n): pairs (j-1, n-j) with C(n-j, j) odd."""
    return tuple(
        (j - 1, n - j) for j in range(1, n + 1) if binom2(n - j, j)
    )


def _differential_words(words: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Normalized words of the differential of a sum of words with indices >= 0."""
    return _normalize_words(
        w[:r] + pair + w[r + 1 :]
        for w in words
        for r, idx in enumerate(w)
        for pair in _d_generator(idx)
    )


def differential(e: LambdaElement) -> LambdaElement:
    """Leibniz extension of the generator differential, fully normalized."""
    return LambdaElement(_differential_words(e.terms))


def is_cycle(e: LambdaElement) -> bool:
    return differential(e).is_zero()


# -- bidegree bases and homology -------------------------------------------------


@functools.lru_cache(maxsize=None)
def bidegree_count(s: int, w: int) -> int:
    """Number of reduced words of length s and weight w."""
    if w < 0:
        return 0
    if s == 0:
        return 1 if w == 0 else 0
    if s == 1:
        return 1
    # append a last index i_s = v; the previous index must satisfy i <= 2v
    return sum(
        _count_bounded(s - 1, w - v, 2 * v) for v in range(w + 1)
    )


@functools.lru_cache(maxsize=None)
def _count_bounded(s: int, w: int, bound: int) -> int:
    if w < 0 or w > bound * ((1 << s) - 1):
        return 0
    if s == 0:
        return 1 if w == 0 else 0
    return sum(_count_bounded(s - 1, w - v, 2 * v) for v in range(min(w, bound) + 1))


def _enumerate_words(s: int, w: int, bound: int | None) -> Iterator[tuple[int, ...]]:
    """Reduced words of length s, weight w, last index <= bound (if given)."""
    if s == 0:
        if w == 0:
            yield ()
        return
    top = w if bound is None else min(w, bound)
    for v in range(top + 1):
        if w - v > 2 * v * ((1 << (s - 1)) - 1):
            continue  # prefix cannot absorb the remaining weight
        for prefix in _enumerate_words(s - 1, w - v, 2 * v):
            yield prefix + (v,)


@functools.lru_cache(maxsize=256)
def bidegree_basis_tuples(s: int, w: int) -> tuple[tuple[int, ...], ...]:
    count = bidegree_count(s, w)
    if count > MAX_WORDS_PER_BIDEGREE:
        raise BudgetError(
            f"bidegree ({s}, {w}) has {count} reduced words, "
            f"budget {MAX_WORDS_PER_BIDEGREE}"
        )
    return tuple(sorted(_enumerate_words(s, w, None)))


def bidegree_basis(s: int, w: int) -> list[LambdaWord]:
    """All reduced words of the given length and weight, ascending lex."""
    if s < 0 or w < 0:
        raise ValueError("length and weight must be non-negative")
    return [LambdaWord(t) for t in bidegree_basis_tuples(s, w)]


def boundary_echelon(s: int, w: int) -> EchelonBasis:
    """Echelon basis of the boundary subspace inside bidegree (s, w).

    Boundaries here are the normalized differentials of the reduced words of
    bidegree (s - 1, w + 1); rows are coordinates over the (s, w) word
    enumeration.
    """

    def compute() -> EchelonBasis:
        target = bidegree_basis_tuples(s, w)
        index = {t: i for i, t in enumerate(target)}
        basis = EchelonBasis(len(target))
        if s >= 1:
            basis.extend(
                [index[t] for t in _differential_words((source,))]
                for source in bidegree_basis_tuples(s - 1, w + 1)
            )
        return basis

    return store.cached_boundary_echelon(s, w, compute)


def element_coordinates(e: LambdaElement, s: int, w: int) -> list[int]:
    """Indices of e's words in the (s, w) enumeration; e must be normalized."""
    index = {t: i for i, t in enumerate(bidegree_basis_tuples(s, w))}
    try:
        return [index[t] for t in e.terms]
    except KeyError as exc:
        raise ValueError("element is not in normal form for this bidegree") from exc


def is_boundary(e: LambdaElement) -> bool:
    """Whether e is the differential of something one length lower."""
    nf = normal_form(e)
    if nf.is_zero():
        return True
    s, w = nf.length, nf.weight
    assert s is not None and w is not None
    b = boundary_echelon(s, w)
    residue = 0
    for i in element_coordinates(nf, s, w):
        residue ^= 1 << i
    return b.reduce_int(residue) == 0


def homology_dim(s: int, w: int) -> int:
    """Dimension of cycles modulo boundaries at (length, weight) = (s, w)."""
    if s < 0 or w < 0:
        raise ValueError("length and weight must be non-negative")
    m = bidegree_count(s, w)
    if m == 0:
        return 0
    if m > MAX_WORDS_PER_BIDEGREE:
        raise BudgetError(f"bidegree ({s}, {w}) exceeds the word budget")
    rank_out = boundary_echelon(s + 1, w - 1).rank if w >= 1 else 0
    rank_in = boundary_echelon(s, w).rank
    return m - rank_out - rank_in
