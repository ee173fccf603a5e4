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

Rewriting is positional.  A word waits with the range of its pairs that
may be bad; the scan rewrites the leftmost bad pair i, and since the new
pair is reduced and only its two junctions changed, it resumes at pair
i - 1, not at the start of the word.  The differential of a reduced word
needs little of it.  Its Leibniz term that puts lambda_{j-1} lambda_{n-j}
in place of w[r] = n can be bad only at its left junction: the new pair is
reduced, as C(n-j, j) odd forces j <= n-j, and so is the right junction,
as n - j < n <= 2 w[r+1].  So the term is a normal-form word unless
w[r-1] > 2(j-1), and only such terms are rewritten, from that pair on.

Every Leibniz term and every rewrite lowers the first index it changes, so
each word of d(u) lies below u in lex order, and a word that first differs
from u at position r comes from the Leibniz terms at r or from rewriting
pair r.  The passes behind ``homology_dim`` stream the transposed
differential on that order (``_lex_stream``): they read each source's
differential one position at a time, from the last, and stop at the
position where the source is peeled.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Callable, Container, Iterable, Sequence

from . import store
from .budget import BudgetError
from .gf2 import EchelonBasis
from .terms import Term, TermSet

__all__ = [
    "LambdaWord",
    "LambdaElement",
    "TerminationGuardError",
    "binom2",
    "normal_form",
    "differential",
    "homology_dim",
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


def _settle(
    reduced: list[tuple[int, ...]],
    pending: list[tuple[tuple[int, ...], int, int]],
    floor: int = 0,
    deferred: list[tuple[tuple[int, ...], int, int]] | None = None,
) -> frozenset[tuple[int, ...]]:
    """The words of odd multiplicity in ``reduced`` once every pending word
    is rewritten into it.

    A pending (word, lo, hi) has every pair outside lo..hi reduced.  Once
    its leftmost bad pair i is rewritten, only pairs i - 1 and i + 1 may
    have turned bad, so each new word waits as (word, i - 1, max(hi, i + 1)),
    clipped to the word's pairs.  Equal words cancel only at the end.  A
    word whose leftmost bad pair lies below floor is not rewritten but put
    on deferred as it waits.
    """
    pop, push, emit = pending.pop, pending.append, reduced.append
    steps = 0
    while pending:
        w, i, hi = pop()
        while i <= hi and w[i] <= 2 * w[i + 1]:
            i += 1
        if i > hi:
            emit(w)
            continue
        if i < floor:
            deferred.append((w, i, hi))
            continue
        steps += 1
        if steps > NORMAL_FORM_STEP_BUDGET:
            raise TerminationGuardError(
                f"normal form exceeded {NORMAL_FORM_STEP_BUDGET} rewriting steps"
            )
        head, tail = w[:i], w[i + 2 :]
        lo = i - 1 if i else 0
        if hi <= i:
            hi = i + 1 if tail else i
        for pair in _pair_nf(w[i], w[i + 1]):
            push((head + pair + tail, lo, hi))
    out = frozenset(reduced)
    if len(out) == len(reduced):
        return out
    return frozenset(w for w, c in Counter(reduced).items() if c & 1)


def normal_form(e: LambdaElement) -> LambdaElement:
    """Rewrite until no adjacent pair (a, b) with a > 2b remains.

    Idempotent; the result does not depend on which bad pair is rewritten
    first (the test suite checks this against whole-word rewriting from
    the left and from the right).
    """
    pending = [(w, 0, len(w) - 2) for w in e.terms]
    return LambdaElement(_settle([], pending))


# -- the differential ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _d_generator(n: int) -> tuple[tuple[int, int], ...]:
    """Raw terms of d(lambda_n): pairs (j-1, n-j) with C(n-j, j) odd."""
    return tuple(
        (j - 1, n - j) for j in range(1, n + 1) if binom2(n - j, j)
    )


def _level_terms(
    u: tuple[int, ...], l: int, carry: list[tuple[tuple[int, ...], int, int]]
) -> tuple[Iterable[tuple[int, ...]], list[tuple[tuple[int, ...], int, int]]]:
    """The words of d(u), for a reduced word u, that first differ from u at
    position l, each once, and the words that wait for position l - 1.

    They are the Leibniz terms at l with a reduced left junction, and what
    carry settles into: carry holds the words, each waiting as in
    ``_settle``, whose leftmost bad pair is pair l.  A Leibniz term at l
    with a bad left junction, and a word whose rewriting makes pair l - 1
    its leftmost bad pair, wait for position l - 1 (see the module
    docstring).
    """
    left = u[l - 1] if l else -1
    head, tail = u[:l], u[l + 1 :]
    terms: list[tuple[int, ...]] = []
    deferred: list[tuple[tuple[int, ...], int, int]] = []
    for pair in _d_generator(u[l]):
        if left > 2 * pair[0]:
            deferred.append((head + pair + tail, l - 1, l - 1))
        else:
            terms.append(head + pair + tail)  # distinct: one per pair
    if carry:
        return _settle(terms, carry, l, deferred), deferred
    return terms, deferred


def _differential_words(words: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Normalized words of the differential of a sum of words with indices >= 0.

    A reduced word's terms are read one position at a time (``_level_terms``);
    the terms of a word that is not reduced are scanned whole.
    """
    reduced: list[tuple[int, ...]] = []
    pending: list[tuple[tuple[int, ...], int, int]] = []
    for u in words:
        if any(a > 2 * b for a, b in zip(u, u[1:])):
            pending.extend(
                (u[:r] + pair + u[r + 1 :], 0, len(u) - 1)
                for r, n in enumerate(u)
                for pair in _d_generator(n)
            )
            continue
        carry: list[tuple[tuple[int, ...], int, int]] = []
        for l in range(len(u) - 1, -1, -1):
            terms, carry = _level_terms(u, l, carry)
            reduced.extend(terms)
    return _settle(reduced, pending)


def differential(e: LambdaElement) -> LambdaElement:
    """Leibniz extension of the generator differential, fully normalized."""
    return LambdaElement(_differential_words(e.terms))


# -- bidegree bases and homology -------------------------------------------------


def bidegree_count(s: int, w: int) -> int:
    """Number of reduced words of length s and weight w."""
    return _count_bounded(s, w, w)  # no index exceeds the weight


@functools.lru_cache(maxsize=None)
def _count_bounded(s: int, w: int, bound: int) -> int:
    """Number of reduced words of length s, weight w and last index <= bound."""
    if w < 0 or w > bound * ((1 << s) - 1):
        return 0
    if s == 0:
        return 1 if w == 0 else 0
    # append a last index v; the previous index must satisfy i <= 2v
    return sum(_count_bounded(s - 1, w - v, 2 * v) for v in range(min(w, bound) + 1))


def _check_word_cap(s: int, w: int) -> None:
    if bidegree_count(s, w) > MAX_WORDS_PER_BIDEGREE:
        raise BudgetError(f"bidegree ({s}, {w}) exceeds the word budget")


def _reduced_words(
    out: list[tuple[int, ...]], word: list[int], i: int, rest: int, low: int
) -> bool:
    """Append to out, in ascending lex order, each reduced word that keeps
    word[:i], has weight rest at positions i on and word[i] >= low; return
    whether there was one."""
    if i == len(word) - 1:
        if rest < low:
            return False
        word[i] = rest
        out.append(tuple(word))
        return True
    found = False
    for a in range(low, rest + 1):
        word[i] = a
        # a <= 2 word[i + 1] iff word[i + 1] >= (a + 1) // 2
        if not _reduced_words(out, word, i + 1, rest - a, (a + 1) // 2):
            break  # a larger a leaves less weight and raises the bound
        found = True
    return found


def bidegree_basis_tuples(s: int, w: int) -> tuple[tuple[int, ...], ...]:
    """The reduced words of length s and weight w, in ascending lex order,
    built first index first with no sort."""
    _check_word_cap(s, w)
    if s == 0 or w < 0:
        return ((),) if (s, w) == (0, 0) else ()
    out: list[tuple[int, ...]] = []
    _reduced_words(out, [0] * s, 0, w, 0)
    return tuple(out)


def boundary_echelon(s: int, w: int) -> EchelonBasis:
    """Echelon basis of the boundary subspace inside bidegree (s, w).

    Boundaries here are the normalized differentials of the reduced words of
    bidegree (s - 1, w + 1); rows are coordinates over the (s, w) word
    enumeration.  Only ``is_boundary`` needs the rows; ``homology_dim``
    reads the boundaries' rank off ``boundary_tops``, which holds no row as
    wide as the (s, w) words.
    """

    def compute() -> EchelonBasis:
        sources = bidegree_basis_tuples(s - 1, w + 1) if s >= 1 else ()
        index = {t: i for i, t in enumerate(bidegree_basis_tuples(s, w))}
        rows = []
        for u in sources:
            try:
                rows.append([index[t] for t in _differential_words((u,))])
            except KeyError as stray:
                raise RuntimeError(
                    f"d{u} holds {stray.args[0]}, not a word of bidegree ({s}, {w})"
                ) from None
        basis = EchelonBasis(len(index))
        basis.extend(rows)
        return basis

    return store.cached_boundary_echelon(s, w, compute)


def _lex_stream(
    sources: Sequence[tuple[int, ...]],
    dead: bytearray,
    targets: Container[tuple[int, ...]] | None = None,
    take: Callable[[tuple[int, ...], list[int]], object] | None = None,
) -> tuple[list[int], list[list[int]]]:
    """Complete and peel the rows of the transposed differential out of
    sources, each as soon as no source left can reach its target.

    The sources are one bidegree's words in ascending lex order, and dead
    marks those whose columns are dropped.  The live sources are walked in
    descending lex order, depth-first through the tree of their prefixes.
    A word of d(u) that first differs from u at position l lies below the
    prefix u[:l + 1] and above u[:l] (see ``_level_terms``), so position l
    of every source under a prefix P of length l + 1 is expanded once the
    walk leaves P: no target above P is left to reach, and the words of P
    itself are done.  The open targets wait in buckets along the path of
    the walk, one per depth l and letter a for the targets t with
    t[:l] = path[:l] and t[l] = a; the bucket of the path's own letter is
    pushed one depth down when the walk enters it.  So a bucket is complete
    once the walk leaves the prefix it names, and its rows are taken then,
    in descending order of their targets, before the next expansion.  A
    word that is not between u[:l] and u[:l + 1], or not in targets when
    the caller has them, raises ``RuntimeError``.

    Each completed row is restricted to its live sources, handed to take
    with its target, and peeled (LaMacchia-Odlyzko, CRYPTO '90): a row with
    one live source makes that source a pivot with a unit canonical row, so
    the source is marked dead, removed from every waiting row and expanded
    no further, and a row that falls to one live source is peeled in turn.
    A row with two or more live sources waits.  Returns the peeled sources
    and the rows left waiting, which hold no peeled source.
    """
    units: list[int] = []
    waiting: dict[int, list[list[int]]] = defaultdict(list)  # source -> its rows
    n = len(sources[0]) if sources else 0
    if not n:  # no source, or only the empty word, whose differential is 0
        return units, []
    rows: dict[tuple[int, ...], list[int]] = {}  # an open target -> its sources
    pend = [defaultdict(list) for _ in range(n)]  # depth l: letter -> open targets
    # ready[d]: (source, carry) for the live sources under path[:d] whose
    # positions d and on are expanded; the carry waits for position d - 1
    ready: list[list[tuple[int, list]]] = [[] for _ in range(n)]

    def place(i: int, l: int, carry: list) -> list:
        """Expand position l of source i into the open rows; its next carry."""
        u = sources[i]
        terms, carry = _level_terms(u, l, carry)
        low, high, bucket = u[:l], u[: l + 1], pend[l]
        for t in terms:
            if not low < t < high:
                raise RuntimeError(f"d{u} holds {t}, not below it at position {l}")
            row = rows.get(t)
            if row is None:
                if targets is not None and t not in targets:
                    raise RuntimeError(
                        f"d{u} holds {t}, not a word of bidegree ({n + 1}, {sum(u) - 1})"
                    )
                rows[t] = [i]
                bucket[t[l]].append(t)
            else:
                row.append(i)
        return carry

    def leave(d: int) -> None:
        """Leave path[:d]: its rows are complete, then position d - 1 of its sources."""
        if pend[d]:
            complete(pend[d])
        up = ready[d - 1]
        for i, carry in ready[d]:
            if not dead[i]:
                carry = place(i, d - 1, carry)
                if d > 1:
                    up.append((i, carry))
        ready[d].clear()

    def complete(bucket: dict[int, list[tuple[int, ...]]], above: int = -1) -> None:
        """Take and peel the rows of the letters above above, in descending order."""
        for a in sorted(bucket, reverse=True):
            if a <= above:
                break
            for t in sorted(bucket.pop(a), reverse=True):
                live = [k for k in rows.pop(t) if not dead[k]]
                if take is not None:
                    take(t, live)
                if len(live) > 1:
                    for k in live:
                        waiting[k].append(live)
                    continue
                while live:
                    k = live.pop()
                    if dead[k]:
                        continue
                    dead[k] = 1
                    units.append(k)
                    for row in waiting.pop(k, ()):
                        row.remove(k)
                        if len(row) == 1:
                            live.append(row[0])

    path: tuple[int, ...] = ()
    for i in range(len(sources) - 1, -1, -1):
        if dead[i]:
            continue
        u = sources[i]
        if path:
            c = 0
            while path[c] == u[c]:
                c += 1
            for d in range(n - 2, c, -1):
                leave(d)
            for d in range(c, n - 1):  # enter u[:d + 1]
                bucket = pend[d]
                if bucket:
                    complete(bucket, u[d])
                    if u[d] in bucket:
                        below = pend[d + 1]
                        for t in bucket.pop(u[d]):
                            below[t[d + 1]].append(t)
        # u is the one source under u[:n - 1], as the weight fixes its last
        # letter: its last position is expanded, those rows are complete, and
        # the position before follows unless they peeled u
        carry = place(i, n - 1, [])
        complete(pend[n - 1])
        if n > 1 and not dead[i]:
            ready[n - 2].append((i, place(i, n - 2, carry)))
        path = u
    for d in range(n - 2, 0, -1):
        leave(d)
    complete(pend[0])
    # a row left waiting is listed under each of its live sources
    left = {id(row): row for held in waiting.values() for row in held}
    return units, list(left.values())


def _tops(s: int, w: int, targets: Sequence[tuple[int, ...]] | None) -> EchelonBasis:
    """The pass behind ``boundary_tops``, uncached."""
    words = bidegree_basis_tuples(s, w) if targets is None else targets
    index = {t: i for i, t in enumerate(words)}
    sources = bidegree_basis_tuples(s - 1, w + 1) if s >= 1 else ()
    dead = bytearray(len(sources))
    if s >= 2:
        lower = store.held("lambda-tops", s - 1, w + 1, lambda: _tops(s - 1, w + 1, sources))
        for f in lower.pivots:
            dead[f] = 1
    columns = EchelonBasis(len(sources))
    tops: list[int] = []

    def take(t: tuple[int, ...], live: list[int]) -> None:
        if live and columns.insert_indices(live):
            tops.append(index[t])

    _lex_stream(sources, dead, index, take)
    basis = EchelonBasis.from_canonical_rows(len(words), dict.fromkeys(tops, 1))
    assert basis is not None  # unit rows at distinct coordinates of words
    return basis


def boundary_tops(
    s: int, w: int, targets: Sequence[tuple[int, ...]] | None = None
) -> EchelonBasis:
    """Unit rows at the top coordinates of the boundaries into (s, w), over
    the (s, w) words, ``targets`` when the caller has them.

    A top coordinate is the highest set coordinate of a nonzero boundary,
    and there is one per unit of rank, so the rank of this basis is the
    boundary rank and its pivots are the tops: the tags of the lambda-algebra
    tables (Tangora, Mem. AMS 337, 1985).  Both are read off the transposed
    differential out of (s - 1, w + 1), whose rows are as wide as those
    words, several times fewer than the (s, w) words.  Row T of the
    transpose lists the sources whose differential holds the target T.
    Projected onto the coordinates >= T, the boundaries span a space of
    dimension the rank of the rows >= T, and also the number of tops >= T;
    so T is a top iff its row is independent of the rows above it.

    ``_lex_stream`` hands the rows over in descending T, and each goes into
    an echelon basis over the sources.  The columns of the lower tops, the
    pivots of ``boundary_tops(s - 1, w + 1)``, are dropped first, as in
    ``differential_echelon``.  The lower tops are held in the
    memory tier alone (``store.held``), so a command writes only the tops
    it asks for.  A row with one live source drops that source's column
    too, as the stream peels it: its unit vector is in the span of the rows
    inserted, so deleting the column keeps every later row's independence.
    A target that is no (s, w) word raises ``RuntimeError``.
    """
    return store.cached_boundary_tops(s, w, lambda: _tops(s, w, targets))


def differential_echelon(s: int, w: int) -> EchelonBasis:
    """Echelon basis of the transpose of d: (s, w) -> (s + 1, w - 1), with
    the boundaries' top coordinates dropped.

    One row per target word, over the (s, w) enumeration: the sources whose
    differential holds it.  Same rank as ``boundary_echelon(s + 1, w - 1)``,
    but over the (s, w) words, typically several times fewer.

    A pivot f of ``boundary_tops(s, w)`` is the highest set coordinate of a
    boundary b, and d(b) = 0 as d o d = 0, so column f of the transpose is
    a sum of columns below it.  Deleting such columns keeps the rank of
    every set of rows, so those sources are skipped before their
    differential is computed.  The basis is the canonical form over the
    columns that are left.  The (s, w) words enumerated here are also the
    targets of the pass behind ``boundary_tops``, which takes them, not a
    second copy.

    The rows come from ``_lex_stream`` as each is completed, and are peeled
    there and then, so a source that a row peels is expanded no further:
    at (5, 38), 4,462 of the 9,737 live sources are peeled by the Leibniz
    terms at their last position alone.  Only rows with two or more live
    sources wait.  Those left at the end hold no peeled source, so their
    canonical rows and the unit rows together are canonical, and
    ``from_canonical_rows`` takes them with no further elimination.
    """

    def compute() -> EchelonBasis:
        # the targets are held, though never enumerated, so both sides keep
        # the word cap; the sources' first, so it names the bidegree asked for
        _check_word_cap(s, w)
        _check_word_cap(s + 1, w - 1)
        sources = bidegree_basis_tuples(s, w)
        dead = bytearray(len(sources))
        for f in boundary_tops(s, w, sources).pivots:
            dead[f] = 1
        units, left = _lex_stream(sources, dead)
        rest = EchelonBasis(len(sources))
        rest.extend(left)
        # no row left holds a peeled source, so with the unit rows it is canonical
        rows = dict.fromkeys(units, 1) | rest.shifted_rows()
        basis = EchelonBasis.from_canonical_rows(len(sources), rows)
        if basis is None:
            raise RuntimeError(
                f"the transposed differential out of ({s}, {w}) is not canonical"
            )
        return basis

    return store.cached_differential_echelon(s, w, compute)


def is_boundary(e: LambdaElement) -> bool:
    """Whether e is the differential of something one length lower."""
    nf = normal_form(e)
    if nf.is_zero():
        return True
    s, w = nf.length, nf.weight
    assert s is not None and w is not None
    index = {t: i for i, t in enumerate(bidegree_basis_tuples(s, w))}
    residue = sum(1 << index[t] for t in nf.terms)
    return boundary_echelon(s, w).reduce_int(residue) == 0


def homology_dim(s: int, w: int) -> int:
    """Dimension of cycles modulo boundaries at (length, weight) = (s, w).

    That is m - rank d - rank of the boundaries, for the m words of (s, w).
    The rank of d is that of ``differential_echelon``, and the boundary rank
    that of ``boundary_tops``; the (s, w) words are enumerated once, for
    both, and no basis spans them.
    """
    if s < 0 or w < 0:
        raise ValueError("length and weight must be non-negative")
    m = bidegree_count(s, w)
    if m == 0:
        return 0
    return m - differential_echelon(s, w).rank - boundary_tops(s, w).rank
