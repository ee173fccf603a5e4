"""Whole-word rewriting in the lambda algebra: the oracle for the engine's
positional rewriting, and the quadratic relations it is checked on; and the
reduced words generated last index first, the oracle for the engine's
ascending-lex word lists; and the transposed differential eliminated in
one shot, the oracle for the engine's first-index stream and its peel.

``whole_word_normal_form`` keeps a pending set of words, cancelling equal
words as they arrive, and rewrites one bad pair of a popped word at a time:
the leftmost one, or with ``leftmost=False`` the rightmost, found by a scan
of the whole word.  It shares only the pair table ``_pair_nf``, the raw
generator differential ``_d_generator`` and the step budget with
``hitcalc.lambda_algebra``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from hitcalc.gf2 import EchelonBasis, ones
from hitcalc.lambda_algebra import (
    NORMAL_FORM_STEP_BUDGET,
    LambdaElement,
    TerminationGuardError,
    _d_generator,
    _pair_nf,
    bidegree_basis_tuples,
    binom2,
    differential,
)


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


def _first_bad_pair(word: tuple[int, ...], leftmost: bool) -> int | None:
    rng: Iterable[int] = range(len(word) - 1)
    if not leftmost:
        rng = reversed(range(len(word) - 1))
    for i in rng:
        if word[i] > 2 * word[i + 1]:
            return i
    return None


def whole_word_normal_form(
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


def oracle_normal_form(e: LambdaElement, leftmost: bool = True) -> LambdaElement:
    return LambdaElement(whole_word_normal_form(e.terms, leftmost))


def oracle_differential(e: LambdaElement, leftmost: bool = True) -> LambdaElement:
    """The Leibniz terms of every word of e, rewritten whole."""
    raw = (
        w[:r] + pair + w[r + 1 :]
        for w in e.terms
        for r, n in enumerate(w)
        for pair in _d_generator(n)
    )
    return LambdaElement(whole_word_normal_form(raw, leftmost))


def enumerate_words(s: int, w: int, bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Reduced words of length s, weight w, last index <= bound (if given),
    generated last index first: the oracle for ``bidegree_basis_tuples``,
    which builds the ascending-lex list first index first."""
    if s == 0:
        if w == 0:
            yield ()
        return
    top = w if bound is None else min(w, bound)
    for v in range(top + 1):
        if w - v > 2 * v * ((1 << (s - 1)) - 1):
            continue  # prefix cannot absorb the remaining weight
        for prefix in enumerate_words(s - 1, w - v, 2 * v):
            yield prefix + (v,)


def one_shot_differential_echelon(
    s: int, w: int, drop: Iterable[int] = ()
) -> EchelonBasis:
    """The transposed differential out of (s, w) with every target row held
    until the first is inserted, over the (s, w) words less the sources in
    drop, which are left out of every row."""
    drop = set(drop)
    rows: dict[tuple[int, ...], list[int]] = {}
    words = bidegree_basis_tuples(s, w)
    for i, word in enumerate(words):
        if i not in drop:
            for t in differential(LambdaElement((word,))).terms:
                rows.setdefault(t, []).append(i)
    basis = EchelonBasis(len(words))
    basis.extend(rows.values())
    return basis


def top_coordinates(basis: EchelonBasis) -> set[int]:
    """The highest set coordinates of the nonzero vectors in the span of
    basis: the pivots of its rows with the coordinates read in reverse."""
    top = basis.ambient_length - 1
    flipped = EchelonBasis(basis.ambient_length)
    flipped.extend([top - k for k in ones(row)] for row in basis.row_ints())
    return {top - p for p in flipped.pivots}
