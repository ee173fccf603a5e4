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
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import Counter, defaultdict
from typing import Iterable, Sequence

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
    reduced: list[tuple[int, ...]], pending: list[tuple[tuple[int, ...], int, int]]
) -> frozenset[tuple[int, ...]]:
    """The words of odd multiplicity in ``reduced`` once every pending word
    is rewritten into it.

    A pending (word, lo, hi) has every pair outside lo..hi reduced.  Once
    its leftmost bad pair i is rewritten, only pairs i - 1 and i + 1 may
    have turned bad, so each new word waits as (word, i - 1, max(hi, i + 1)),
    clipped to the word's pairs.  Equal words cancel only at the end.
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


def _differential_words(words: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Normalized words of the differential of a sum of words with indices >= 0.

    A Leibniz term of a reduced word is rewritten only from its left
    junction, and only when that pair is bad (see the module docstring);
    the terms of a word that is not reduced are scanned whole.
    """
    reduced: list[tuple[int, ...]] = []
    pending: list[tuple[tuple[int, ...], int, int]] = []
    emit, push = reduced.append, pending.append
    for u in words:
        if any(a > 2 * b for a, b in zip(u, u[1:])):
            pending.extend(
                (u[:r] + pair + u[r + 1 :], 0, len(u) - 1)
                for r, n in enumerate(u)
                for pair in _d_generator(n)
            )
            continue
        for r, n in enumerate(u):
            head, tail = u[:r], u[r + 1 :]
            left = u[r - 1] if r else -1
            for pair in _d_generator(n):
                if left > 2 * pair[0]:
                    push((head + pair + tail, r - 1, r - 1))
                else:
                    emit(head + pair + tail)
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
    words, several times fewer than the (s, w) words.  Column T of the
    transpose lists the sources whose differential holds the target T.
    Projected onto the coordinates >= T, the boundaries span a space of
    dimension the rank of the columns >= T, and also the number of tops
    >= T; so T is a top iff its column is independent of the columns above
    it, and the columns go into an echelon basis in descending T.

    The sources are walked in descending lex order, one first-index group
    at a time, as in ``differential_echelon``: d never raises the first
    index, so once the group of first index a is done, the columns of the
    targets of first index a or more are complete, and are inserted and
    freed.  A target that is no (s, w) word, or that falls in a column
    already inserted, as its first index rose above its source's, raises
    ``RuntimeError``.
    """

    def compute() -> EchelonBasis:
        words = bidegree_basis_tuples(s, w) if targets is None else targets
        index = {t: i for i, t in enumerate(words)}
        sources = bidegree_basis_tuples(s - 1, w + 1) if s >= 1 else ()
        columns = EchelonBasis(len(sources))
        tops: list[int] = []
        open_columns: dict[int, list[int]] = defaultdict(list)  # target -> its sources
        done = len(words)  # the columns from here on are inserted

        def flush(bound: int) -> None:
            nonlocal done
            for j in range(done - 1, bound - 1, -1):
                column = open_columns.pop(j, None)
                if column is not None and columns.insert_indices(column):
                    tops.append(j)
            done = bound

        i = len(sources)
        for a, group in itertools.groupby(reversed(sources), lambda u: u[0]):
            for u in group:
                i -= 1
                terms = _differential_words((u,))
                try:
                    reached = [index[t] for t in terms]
                except KeyError as stray:
                    raise RuntimeError(
                        f"d{u} holds {stray.args[0]}, not a word of bidegree ({s}, {w})"
                    ) from None
                for j in reached:
                    if j >= done:  # a column already inserted
                        raise RuntimeError(f"d{u} holds {words[j]}: its first index rose")
                    open_columns[j].append(i)
            flush(bisect.bisect_left(words, (a,)))  # the first target of first index a
        flush(0)  # targets below every source's first index
        basis = EchelonBasis.from_canonical_rows(len(words), dict.fromkeys(tops, 1))
        assert basis is not None  # unit rows at distinct coordinates of words
        return basis

    return store.cached_boundary_tops(s, w, compute)


def differential_echelon(s: int, w: int) -> EchelonBasis:
    """Echelon basis of the transpose of d: (s, w) -> (s + 1, w - 1), with
    the boundaries' top coordinates dropped.

    One row per target word, over the (s, w) enumeration: the sources whose
    differential holds it.  Same rank as ``boundary_echelon(s + 1, w - 1)``,
    but over the (s, w) words, typically several times fewer.

    The highest set coordinate of each kernel vector that ``kernel`` reads
    off the canonical rows is a non-pivot column, so the highest set
    coordinates of ker d are exactly the non-pivot columns.  The boundaries
    into (s, w) lie in ker d, as d o d = 0, so their highest set coordinates,
    the pivots of ``boundary_tops(s, w)``, are non-pivot columns too.
    Deleting non-pivot columns keeps every canonical row's pivot, so those
    sources are skipped before their differential is computed, and the rank
    does not change.  The basis is the canonical form over the columns that
    are left.  The (s, w) words enumerated here are also the targets of the
    pass behind ``boundary_tops``, which takes them, not a second copy.

    Each source's differential is its Leibniz terms, of which only those
    with a bad left junction, w[r-1] > 2(j-1), are rewritten: the replaced
    pair and its right junction are reduced already (see the module
    docstring).

    The rows are streamed through the first-index filtration, since d never
    raises a word's first index: a Leibniz term lambda_{j-1} lambda_{n-j}
    of the first generator lowers it, and rewriting a leading pair (a, b)
    with a > 2b gives first index a + b - j < a, as j >= ceil(a/2) > b.
    The sources are walked in descending lex order, one first-index group
    at a time; once the group of first index a is done, no source left can
    reach a target of first index a or more, so those rows are complete and
    are peeled (LaMacchia-Odlyzko, CRYPTO '90): a row with one live source
    makes that source a pivot with a unit canonical row, so the source is
    removed from every waiting row, and a row that falls to one live source
    is peeled in turn.  Only rows with two or more live sources wait.  Those
    left at the end hold no peeled source, so their canonical rows and the
    unit rows together are canonical, and ``from_canonical_rows`` takes
    them with no further elimination.  Every target is checked against its
    source's first index, and a target above it raises ``RuntimeError``.
    """

    def compute() -> EchelonBasis:
        # the targets are held, though never enumerated, so both sides keep
        # the word cap; the sources' first, so it names the bidegree asked for
        _check_word_cap(s, w)
        _check_word_cap(s + 1, w - 1)
        sources = bidegree_basis_tuples(s, w)
        dead = bytearray(len(sources))  # 1 for a dropped or a peeled source
        for f in boundary_tops(s, w, sources).pivots:
            dead[f] = 1
        units: list[int] = []  # the peeled sources
        # a live source -> the waiting rows that hold it; a waiting row lists
        # its live sources, and is freed once the last of them is peeled
        waiting: dict[int, list[list[int]]] = defaultdict(list)
        # first index -> target word -> its sources, for the targets still open
        open_rows: dict[int, dict[tuple[int, ...], list[int]]]
        open_rows = defaultdict(lambda: defaultdict(list))

        def flush(bound: int) -> None:
            singles = []
            for f in [f for f in open_rows if f >= bound]:
                for row in open_rows.pop(f).values():
                    live = [k for k in row if not dead[k]]
                    if len(live) == 1:
                        singles.append(live[0])
                    elif live:
                        for k in live:
                            waiting[k].append(live)
            while singles:
                k = singles.pop()
                if dead[k]:
                    continue
                dead[k] = 1
                units.append(k)
                for row in waiting.pop(k, ()):
                    row.remove(k)
                    if len(row) == 1:
                        singles.append(row[0])

        i = len(sources)
        # the empty word (s = 0) has no first index, but reaches no target
        for a, group in itertools.groupby(reversed(sources), lambda u: u[0] if u else 0):
            for source in group:
                i -= 1
                if dead[i]:
                    continue
                for t in _differential_words((source,)):
                    if t[0] > a:
                        raise RuntimeError(f"d{source} holds {t}: its first index rose")
                    open_rows[t[0]][t].append(i)
            flush(a)
        flush(0)  # targets below every source's first index, such as (0, 1)
        # a row left waiting is listed under each of its live sources
        left = {id(row): row for rows in waiting.values() for row in rows}
        rest = EchelonBasis(len(sources))
        rest.extend(left.values())
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
