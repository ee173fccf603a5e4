"""The divided power algebra dual to the polynomial algebra.

A d-monomial a_1^(d_1)...a_n^(d_n) is the dual basis element of the
monomial u_1^{d_1}...u_n^{d_n}; both sides share one enumeration, so the
pairing of a d-element with a polynomial is just the parity of the number
of common exponent tuples.  A d-element is a ``terms.TermSet`` with
``DMonomial`` as its term class, so that count is a set intersection.

``dual_sq`` is the transpose of the squaring operation across the pairing:
on a d-monomial it sends a^(m) to the sum over compositions k = k_1+...+k_n
of prod_i C(m_i - k_i, k_i) a^(m-k), which is exactly how the transposed
Cartan matrix acts on a sparse element.  The primitive subspace of degree d
is the joint kernel of the dual squares of 2-power degree, which is the
annihilator of the hit subspace under the pairing.  ``primitive_basis``
computes it as the kernel of the canonical hit rows, so its dimension is
the cohit dimension by construction; the test suite assembles the joint
kernel from the dual squares independently and checks that both agree.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple

from . import store
from .gf2 import EchelonBasis, ones
from .steenrod import Polynomial, _compositions, monomial_rank, monomial_unrank
from .terms import Term, TermSet

__all__ = [
    "DMonomial",
    "DElement",
    "PrimitiveBasis",
    "pair",
    "dual_sq",
    "primitive_basis",
    "zeta_element",
    "parse_dmonomial",
    "parse_delement",
]


class DMonomial(Term):
    """A divided-power monomial a_1^(d_1)...a_n^(d_n), printed '(1).(2)'."""

    __slots__ = ()
    noun = "d-monomial"
    piece = "({})"


class DElement(TermSet):
    """A finite mod-2 sum of d-monomials in a fixed number of variables."""

    __slots__ = ()
    term = DMonomial


def parse_dmonomial(text: str) -> DMonomial:
    """Parse the parenthesized dot format, e.g. '(0).(15).(15).(11)'."""
    return DMonomial.parse(text)


def parse_delement(text: str, n: int | None = None) -> DElement:
    """Parse '+'-joined d-monomials; n defaults to the first one's length."""
    return DElement.parse(text, n)


# -- the pairing -----------------------------------------------------------------


def pair(xi: DElement, f: Polynomial) -> int:
    """The duality pairing: parity of coinciding exponent tuples."""
    if xi.n != f.n:
        raise ValueError("variable count mismatch in pairing")
    return len(xi.terms & f.terms) & 1


# -- the transposed squaring action ----------------------------------------------


@functools.lru_cache(maxsize=4096)
def _dual_moves(m: int) -> tuple[int, ...]:
    """All k with C(m - k, k) odd, ascending."""
    return tuple(k for k in range(m // 2 + 1) if (k & (m - 2 * k)) == 0)


def dual_sq_targets(k: int, dexps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of the terms of the degree-lowering dual square."""
    return _compositions(k, dexps, _dual_moves, -1)


def dual_sq(k: int, xi: DElement) -> DElement:
    """The transpose of Sq^k across the pairing; lowers degree by k."""
    if k < 0:
        raise ValueError("dual square needs k >= 0")
    return DElement((u for t in xi.terms for u in dual_sq_targets(k, t)), xi.n)


# -- the primitive subspace ------------------------------------------------------


class PrimitiveBasis(NamedTuple):
    n: int
    d: int
    echelon: EchelonBasis  # canonical rows over the degree-d enumeration

    @property
    def dimension(self) -> int:
        return self.echelon.rank

    def elements(self, which: Iterable[int] | None = None) -> Iterator[DElement]:
        """The basis vectors as d-elements: all, or those at the indices in which.

        Rows are built one at a time and only the asked ones are kept, so a
        few elements of a large basis cost no copy of every row; the
        elements are built as they are read, so printing them all holds
        one at a time.
        """
        rows = self.echelon.iter_row_ints()
        if which is not None:
            which = list(which)
            wanted = set(which)
            kept = {j: row for j, row in enumerate(rows) if j in wanted}
            rows = [kept[j] for j in which]
        return (_bits_element(row, self.n, self.d) for row in rows)


def _element_bits(xi: TermSet, n: int, d: int) -> int:
    """The bit row of xi over the lex enumeration of P_n(d).

    A term of another length or degree has no index there, so it raises.
    """
    if xi.n != n:
        raise ValueError("variable count mismatch")
    bits = 0
    for t in xi.terms:
        if sum(t) != d:
            term = xi.term(t)
            raise ValueError(f"{term.noun} {term} has degree {term.degree}, not {d}")
        bits |= 1 << monomial_rank(n, d, t)
    return bits


def _bits_element(bits: int, n: int, d: int) -> DElement:
    """The inverse of ``_element_bits``."""
    return DElement((monomial_unrank(n, d, i) for i in ones(bits)), n)


def primitive_basis(n: int, d: int) -> PrimitiveBasis:
    """Joint kernel of the dual squares of 2-power degree <= d, echelonized.

    A d-element is primitive iff it pairs to zero with every hit polynomial,
    so this is the kernel of the canonical hit rows, taken block by block
    (``hit.hit_kernel``).
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")

    def compute() -> EchelonBasis:
        from .hit import hit_kernel

        return hit_kernel(n, d)

    return PrimitiveBasis(n, d, store.cached_primitive_basis(n, d, compute))


# -- the distinguished elements --------------------------------------------------


def zeta_element(family: str, t: int, s: int, u: int) -> DElement:
    """The distinguished 4-variable primitives in degree 2^(t+s+u) + 2^(t+s) + 2^t - 3.

    Family A requires (s, u) = (1, 2) and t >= 2; family B requires
    (t, s) = (1, 2) and u >= 1; family C requires t, s, u >= 2.
    """
    fam = family.upper()
    if fam == "A":
        if (s, u) != (1, 2) or t < 2:
            raise ValueError("family A needs s = 1, u = 2 and t >= 2")
        p = 1 << t
        tuples = [
            (0, 4 * p - 1, 4 * p - 1, 3 * p - 1),
            (0, 4 * p - 1, 5 * p - 1, 2 * p - 1),
            (0, 6 * p - 1, 3 * p - 1, 2 * p - 1),
            (0, 7 * p - 1, 2 * p - 1, 2 * p - 1),
        ]
    elif fam == "B":
        if (t, s) != (1, 2) or u < 1:
            raise ValueError("family B needs t = 1, s = 2 and u >= 1")
        a = (1 << (u + 3)) - 1
        tuples = [
            (a, 3, 3, 2),
            (a, 3, 4, 1),
            (a, 5, 2, 1),
            (a, 6, 1, 1),
        ]
    elif fam == "C":
        if t < 2 or s < 2 or u < 2:
            raise ValueError("family C needs t, s, u >= 2")
        tuples = [
            (0, (1 << t) - 1, (1 << (s + t)) - 1, (1 << (s + t + u)) - 1)
        ]
    else:
        raise ValueError(f"unknown family {family!r}; expected A, B or C")
    element = DElement(tuples, 4)
    expected = (1 << (t + s + u)) + (1 << (t + s)) + (1 << t) - 3
    assert element.degree == expected
    return element
