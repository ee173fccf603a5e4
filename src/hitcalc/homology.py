"""The divided power algebra dual to the polynomial algebra.

A d-monomial a_1^(d_1)...a_n^(d_n) is the dual basis element of the
monomial u_1^{d_1}...u_n^{d_n}; both sides share one enumeration, so the
pairing of a d-element with a polynomial is just the parity of the number
of common exponent tuples.  A d-element is a ``terms.TermSet`` with
``DMonomial`` as its term class, so that count is a set intersection.  The
product follows the divided power rule a^(d) a^(e) = C(d+e, d) a^(d+e).

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
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import budget, store
from .gf2 import EchelonBasis, ones
from .hit import hit_echelon
from .steenrod import Polynomial, _tuples, degree_index, monomial_count
from .terms import Term, TermSet

__all__ = [
    "DMonomial",
    "DElement",
    "PrimitiveBasis",
    "pair",
    "dp_product",
    "dual_sq",
    "primitive_basis",
    "dual_kameko_up",
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


# -- pairing and product ---------------------------------------------------------


def pair(xi: DElement, f: Polynomial) -> int:
    """The duality pairing: parity of coinciding exponent tuples."""
    if xi.n != f.n:
        raise ValueError("variable count mismatch in pairing")
    return len(xi.terms & f.terms) & 1


def dp_product(x: DMonomial, y: DMonomial) -> DElement:
    """Divided-power product: one d-monomial or zero, by Lucas on each variable."""
    if len(x) != len(y):
        raise ValueError("variable count mismatch")
    if any(a & b for a, b in zip(x, y)):  # C(a+b, a) is even
        return DElement.zero(len(x))
    return DElement((tuple(a + b for a, b in zip(x, y)),), len(x))


# -- the transposed squaring action ----------------------------------------------


@functools.lru_cache(maxsize=4096)
def _dual_moves(m: int) -> tuple[int, ...]:
    """All k with C(m - k, k) odd, ascending."""
    return tuple(k for k in range(m // 2 + 1) if (k & (m - 2 * k)) == 0)


def dual_sq_targets(k: int, dexps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of the terms of the degree-lowering dual square."""
    n = len(dexps)
    if k == 0:
        yield dexps
        return
    suffix_cap = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cap[i] = suffix_cap[i + 1] + dexps[i] // 2
    if k > suffix_cap[0]:
        return
    target = list(dexps)

    def recurse(i: int, rem: int) -> Iterator[tuple[int, ...]]:
        if i == n - 1:
            if rem <= dexps[i] // 2 and (rem & (dexps[i] - 2 * rem)) == 0:
                target[i] = dexps[i] - rem
                yield tuple(target)
                target[i] = dexps[i]
            return
        for ki in _dual_moves(dexps[i]):
            if ki > rem:
                break
            if rem - ki > suffix_cap[i + 1]:
                continue
            target[i] = dexps[i] - ki
            yield from recurse(i + 1, rem - ki)
        target[i] = dexps[i]

    yield from recurse(0, k)


def dual_sq(k: int, xi: DElement) -> DElement:
    """The transpose of Sq^k across the pairing; lowers degree by k."""
    if k < 0:
        raise ValueError("dual square needs k >= 0")
    return DElement((u for t in xi.terms for u in dual_sq_targets(k, t)), xi.n)


# -- the primitive subspace ------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveBasis:
    n: int
    d: int
    echelon: EchelonBasis  # canonical rows over the degree-d enumeration

    @property
    def dimension(self) -> int:
        return self.echelon.rank

    def elements(self, which: Iterable[int] | None = None) -> list[DElement]:
        """The basis vectors as d-elements: all, or those at the indices in which."""
        rows = self.echelon.row_ints()
        if which is not None:
            rows = [rows[j] for j in which]
        return [_bits_element(row, self.n, self.d) for row in rows]

    def contains(self, xi: DElement) -> bool:
        return self.echelon.reduce_int(_element_bits(xi, self.n, self.d)) == 0


def _element_bits(xi: DElement, n: int, d: int) -> int:
    index = degree_index(n, d)
    return sum(1 << index[t] for t in xi.terms)


def _bits_element(bits: int, n: int, d: int) -> DElement:
    """The inverse of ``_element_bits``."""
    tuples = _tuples(n, d)
    return DElement((tuples[i] for i in ones(bits)), n)


def primitive_basis(n: int, d: int) -> PrimitiveBasis:
    """Joint kernel of the dual squares of 2-power degree <= d, echelonized.

    A d-element is primitive iff it pairs to zero with every hit polynomial,
    so this is the kernel of the canonical hit rows.  A hit space the memory
    tier already holds is reused; otherwise one is eliminated and dropped,
    never memoised or written.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")

    def compute() -> EchelonBasis:
        dim = monomial_count(n, d)
        budget.check_bytes(dim * ((dim + 63) // 64) * 8, f"primitive space ({n}, {d})")
        hit = store.peek("hit", n, d)
        if hit is None:
            hit = hit_echelon(n, d)
        return hit.kernel()

    return PrimitiveBasis(n, d, store.cached_primitive_basis(n, d, compute))


# -- the doubling lift and the distinguished elements ----------------------------


def dual_kameko_up(xi: DElement) -> DElement:
    """Termwise a_i^(e) -> a_i^(2e+1); lifts primitives to primitives."""
    return DElement((tuple(2 * e + 1 for e in t) for t in xi.terms), xi.n)


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
