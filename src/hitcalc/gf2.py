"""Linear algebra over the two-element field, on rows packed into Python ints.

Rows are vectors of F2 coefficients indexed by an external coordinate
enumeration fixed by the caller; this module never reorders coordinates.
Bit i of a row int is coordinate i, and a row's pivot is its lowest set
coordinate.

The workhorse is :class:`EchelonBasis`, which eliminates forward only.  An
incoming row is reduced until it has a zero at every stored pivot and is
then stored under its own pivot; no stored row is touched.  That residual is
unique, so rank, pivots and membership never need more.  The canonical
reduced row echelon form, in which every row also has zeros at all other
rows' pivots, is computed on demand by one back-substitution in descending
pivot order, and kept until the span grows again.

A stored row is kept shifted down to its pivot, ``row >> pivot``, so bit 0
of every stored int is its pivot and the int is sized by the row's span
above the pivot, not by its highest coordinate.  On the quasi-triangular
matrices of the hit problem that makes the stored rows 3-8x smaller (the
forward rows of the hit space (5, 25) take 5.1 MiB instead of 38.8 MiB);
the canonical rows of the transposed lambda differential out of (5, 38),
all unit rows, take 0.26 MiB instead of 7.3 MiB.  The row being
reduced is shifted down to its own lowest bit, below which no reduction
step can set one.  The rows are handed out as held (``shifted_rows``),
which is how ``hitcalc.store`` writes them and ``from_canonical_rows``
takes them back, or shifted back up.

Insertion order sets the cost of both steps.  :meth:`EchelonBasis.extend`
inserts a batch of sparse rows in descending order of their lowest
coordinate, so a new pivot mostly lies below every stored one: no stored row
has a one there, and the back-substitution finds almost nothing to clear.
On the sparse, quasi-triangular matrices of the hit problem and the lambda
algebra this is the structured order of LaMacchia-Odlyzko (CRYPTO '90) and
Faugere-Lachartre (PASCO 2010).
"""

from __future__ import annotations

from sys import getsizeof
from typing import Iterable, Iterator, Sequence

from .budget import check_bytes

__all__ = [
    "EchelonBasis",
    "quotient_representatives",
    "ones",
]


def ones(bits: int) -> list[int]:
    """The set coordinates of a bit vector, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class EchelonBasis:
    """Echelon basis of a subspace of F2^ambient_length.

    Every stored row is nonzero and has a distinct pivot, and is held as
    ``row >> pivot`` (see the module docstring).  ``insert_int`` reduces the
    new row against the stored ones and reports whether the span grew.
    ``shifted_rows``, ``iter_row_ints``, ``row_ints``, ``kernel`` and ``==``
    see the canonical reduced form, which depends only on the span, not on
    insertion order; ``shifted_rows`` hands it out as held and the next two
    as absolute ints.  This is the one place the
    budget (``hitcalc.budget``) is charged, with no up-front estimate: a
    refusal comes once the ``getsizeof`` total of the shifted row ints held
    crosses it, checked per insert, after the canonical form rewrites (and
    may grow) the rows, and once for a basis built by ``from_canonical_rows``.
    """

    def __init__(self, ambient_length: int):
        if ambient_length < 0:
            raise ValueError("ambient_length must be non-negative")
        self.ambient_length = ambient_length
        self._rows: dict[int, int] = {}  # pivot coordinate p -> row >> p
        self._bytes = 0  # sys.getsizeof summed over the stored (shifted) rows
        self._pivot_mask = 0  # bit p set iff p is a pivot
        self._canonical = True

    @classmethod
    def from_canonical_rows(
        cls, ambient_length: int, rows: dict[int, int]
    ) -> "EchelonBasis | None":
        """The basis holding rows, pivot p -> row >> p, as its canonical form,
        or None if they are not one: each row odd, each ending below
        ambient_length, and none with a one at a later pivot.

        Two passes check all three with no elimination: one sets the pivot
        mask, and in the other the mask shifted down to a row's pivot meets
        the row at bit 0 alone.  The basis keeps rows, and the budget is
        charged once, for the shifted rows.
        """
        mask = bytearray(ambient_length // 8 + 1)
        for p, row in rows.items():
            if p < 0 or row < 0 or p + row.bit_length() > ambient_length:
                return None
            mask[p >> 3] |= 1 << (p & 7)
        pivots = int.from_bytes(mask, "little")
        for p, row in rows.items():
            if row & (pivots >> p) != 1:  # even, or a one at a later pivot
                return None
        out = cls(ambient_length)
        out._rows = rows
        out._pivot_mask = pivots
        out._bytes = sum(map(getsizeof, rows.values()))
        check_bytes(out._bytes)
        return out

    # -- queries ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def shifted_rows(self) -> dict[int, int]:
        """The canonical rows as held, pivot p -> row >> p, in increasing
        pivot order: the inverse of ``from_canonical_rows``."""
        self._canonicalize()
        rows = self._rows
        return {p: rows[p] for p in sorted(rows)}

    def iter_row_ints(self) -> Iterator[int]:
        """Canonical rows as ints, ordered by increasing pivot, built one at a time.

        The canonical form is computed (and charged) by this call, not on the
        first ``next``; the basis must not grow while the iterator is read.
        """
        self._canonicalize()
        rows = self._rows
        return (rows[p] << p for p in sorted(rows))

    def row_ints(self) -> list[int]:
        """Canonical rows as ints, ordered by increasing pivot."""
        return list(self.iter_row_ints())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchelonBasis):
            return NotImplemented
        if self.ambient_length != other.ambient_length:
            return False
        self._canonicalize()
        other._canonicalize()
        return self._rows == other._rows  # same pivots, same shifted rows

    def __repr__(self) -> str:
        return f"EchelonBasis(ambient={self.ambient_length}, rank={self.rank})"

    # -- elimination --------------------------------------------------------

    def _reduce(self, bits: int) -> int:
        # Each stored row's lowest bit is its pivot, so clearing the lowest
        # pivot coordinate still set never sets a lower one: the loop ends.
        # So no bit below the row's lowest is ever set, and the loop works
        # on the row and the pivot mask shifted down to it: every int it
        # builds is sized by the span above that bit, not by the highest.
        if not bits:
            return 0
        low = (bits & -bits).bit_length() - 1
        rows, mask = self._rows, self._pivot_mask >> low
        bits >>= low
        hits = bits & mask
        while hits:
            q = (hits & -hits).bit_length() - 1
            bits ^= rows[q + low] << q
            hits = bits & mask
        return bits << low

    def _insert(self, bits: int) -> bool:
        bits = self._reduce(bits)
        if not bits:
            return False
        low = bits & -bits
        p = low.bit_length() - 1
        bits >>= p
        held = self._bytes + getsizeof(bits)
        check_bytes(held)
        self._bytes = held
        self._rows[p] = bits
        self._pivot_mask |= low
        self._canonical = False
        return True

    def _canonicalize(self) -> None:
        """Back-substitute once, in descending pivot order, into the RREF."""
        if self._canonical:
            return
        rows, mask = self._rows, self._pivot_mask
        for p in sorted(rows, reverse=True):
            row = rows[p]
            # Rows with higher pivots are canonical already, so the pivots
            # set in this row are cleared by one XOR each, with no cascade.
            # Pivot q sits at bit q - p of the shifted row.
            for q in ones((row << p & mask) ^ (1 << p)):
                row ^= rows[q] << (q - p)
            rows[p] = row
        self._bytes = sum(map(getsizeof, rows.values()))
        check_bytes(self._bytes)
        self._canonical = True

    def insert_indices(self, indices: Sequence[int]) -> bool:
        """Insert a row given as a list of set coordinates (parity semantics)."""
        bits = 0
        for i in indices:
            if i >= self.ambient_length or i < 0:
                raise ValueError(f"coordinate {i} outside ambient space")
            bits ^= 1 << i
        return self._insert(bits)

    def insert_int(self, bits: int) -> bool:
        """Insert a row given as an int, bit i = coordinate i."""
        if bits < 0 or bits >> self.ambient_length:
            raise ValueError(f"row has a bit outside ambient {self.ambient_length}")
        return self._insert(bits)

    def extend(self, rows: Iterable[Sequence[int]]) -> None:
        """Insert a batch of index rows, as ``insert_indices`` does one.

        The rows go in descending order of their lowest coordinate, which
        keeps forward elimination and the canonical form cheap (see the
        module docstring).
        """
        insert = self.insert_indices
        for r in sorted(rows, key=lambda r: min(r, default=-1), reverse=True):
            insert(r)

    def reduce_int(self, bits: int) -> int:
        """Residual of a row int modulo the span: zeros at every pivot coordinate."""
        return self._reduce(bits)

    # perfbench/trace_cli.py wraps these two names; they go with ROADMAP item 4
    insert = insert_int
    reduce = reduce_int

    def kernel(self) -> "EchelonBasis":
        """Reduced basis of the null space of the matrix whose rows are this basis.

        Read off the reduced echelon form: one kernel vector per non-pivot
        coordinate f, with support {f} plus the pivots of the rows having a
        one in column f.
        """
        self._canonicalize()
        rows = self._rows
        columns: dict[int, list[int]] = {}
        for p in sorted(rows):
            for f in ones(rows[p] ^ 1):  # bit f of the shifted row is coordinate p + f
                columns.setdefault(p + f, [p + f]).append(p)
        out = EchelonBasis(self.ambient_length)
        out.extend(
            columns.get(f, [f])
            for f in range(self.ambient_length)
            if f not in self._rows
        )
        return out


def quotient_representatives(b: EchelonBasis) -> list[int]:
    """Non-pivot coordinates in enumeration order.

    The corresponding unit vectors project to a basis of the quotient of the
    ambient space by span(b).
    """
    pivotset = b._rows
    return [c for c in range(b.ambient_length) if c not in pivotset]
