"""Mod-2 sums of terms: the one element type behind polynomials, d-elements
and lambda elements.

A term is a tuple of ints: the exponents of a monomial, the divided-power
exponents of a d-monomial, or the indices of a lambda word.  An element is
the frozenset of the terms with odd coefficient, held as plain int tuples,
so addition is symmetric difference and the pairing of a d-element with a
polynomial is an intersection.  The subclasses in ``steenrod``,
``homology`` and ``lambda_algebra`` only name their term class, which fixes
how a term prints and parses.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Term", "TermSet"]


class Term(tuple):
    """A tuple of ints printed as ``piece``-formatted entries joined by ``sep``."""

    __slots__ = ()
    noun = "term"
    piece = "{}"
    sep = "."

    @property
    def n(self) -> int:
        return len(self)

    @property
    def degree(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"

    def __str__(self) -> str:
        return self.sep.join(self.piece.format(i) for i in self)

    @classmethod
    def parse(cls, text: str) -> "Term":
        """The inverse of ``str``, e.g. '0.15.15.11' for a monomial."""
        left, right = cls.piece.split("{}")
        text = text.strip()
        entries = []
        for p in text.split(cls.sep):
            p = p.strip()
            if not (p.startswith(left) and p.endswith(right)):
                raise ValueError(f"bad {cls.noun} piece {p!r}")
            try:
                entries.append(int(p[len(left) : len(p) - len(right)]))
            except ValueError as exc:
                raise ValueError(f"bad {cls.noun} {text!r}") from exc
        return cls(entries)


class TermSet:
    """A finite mod-2 sum of terms that all have n entries (n variables)."""

    __slots__ = ("terms", "n")
    term: type[Term] = Term

    def __init__(self, terms: Iterable[tuple[int, ...]], n: int):
        collected: set[tuple[int, ...]] = set()
        for t in terms:
            if len(t) != n:
                raise ValueError("variable count mismatch")
            if min(t, default=0) < 0:
                raise ValueError("exponents must be non-negative")
            collected.symmetric_difference_update((tuple(t),))
        self.terms: frozenset[tuple[int, ...]] = frozenset(collected)
        self.n: int | None = n

    @classmethod
    def zero(cls, *n: int):
        """The zero element (in n variables, for the kinds that take a count)."""
        return cls((), *n)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Common entry sum of the terms, or None for the zero element."""
        degrees = {sum(t) for t in self.terms}
        if len(degrees) > 1:
            raise ValueError("element is not homogeneous")
        return degrees.pop() if degrees else None

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return type(self)(self.terms ^ other.terms, self.n)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, self.terms))

    def sorted_terms(self) -> list[Term]:
        """The terms in ascending lex order, as instances of the term class."""
        return [self.term(t) for t in sorted(self.terms)]

    def __str__(self) -> str:
        return "+".join(str(t) for t in self.sorted_terms()) or "0"

    @classmethod
    def parse(cls, text: str, *n: int | None):
        """Parse '+'-joined terms in the term format; the empty text is zero.

        A kind with a variable count takes it as n, where None takes the
        length of the first term, and also reads a '0' piece as zero.  A
        lambda element takes no n: its '0' is the generator lambda_0.
        """
        pieces = (p.strip() for p in text.split("+"))
        terms = [cls.term.parse(p) for p in pieces if p and not (n and p == "0")]
        if n == (None,):
            if not terms:
                raise ValueError("cannot infer variable count of the zero element")
            n = (len(terms[0]),)
        return cls(terms, *n)
