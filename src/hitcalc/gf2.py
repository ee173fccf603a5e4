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

Insertion order sets the cost of both steps.  :meth:`EchelonBasis.extend`
inserts a batch of sparse rows in descending order of their lowest
coordinate, so a new pivot mostly lies below every stored one: no stored row
has a one there, and the back-substitution finds almost nothing to clear.
On the sparse, quasi-triangular matrices of the hit problem and the lambda
algebra this is the structured order of LaMacchia-Odlyzko (CRYPTO '90) and
Faugere-Lachartre (PASCO 2010).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .budget import check_bytes

__all__ = [
    "BitRow",
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


@dataclass(frozen=True)
class BitRow:
    """A fixed-length vector over F2, packed into a Python int (bit i = coordinate i)."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("BitRow bits must be non-negative")
        if self.bits >> self.length:
            raise ValueError("BitRow has bits outside its stated length")

    @classmethod
    def zero(cls, length: int) -> "BitRow":
        return cls(0, length)

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "BitRow":
        """Build from an explicit 0/1 coordinate sequence, e.g. (1, 1, 0)."""
        bits = 0
        for i, c in enumerate(coords):
            if c & 1:
                bits |= 1 << i
        return cls(bits, len(coords))

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def support(self) -> tuple[int, ...]:
        return tuple(ones(self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "BitRow") -> "BitRow":
        if self.length != other.length:
            raise ValueError("length mismatch in BitRow xor")
        return BitRow(self.bits ^ other.bits, self.length)


class EchelonBasis:
    """Echelon basis of a subspace of F2^ambient_length.

    Every stored row is nonzero and has a distinct pivot.  ``insert``
    reduces the new row against the stored ones and reports whether the span
    grew.  ``row_ints``, ``rows``, ``kernel`` and ``==`` see the canonical
    reduced form, which depends only on the span, not on insertion order.
    Each stored row is charged to the configured budget (``hitcalc.budget``).
    """

    def __init__(self, ambient_length: int):
        if ambient_length < 0:
            raise ValueError("ambient_length must be non-negative")
        self.ambient_length = ambient_length
        self._row_bytes = max(1, (ambient_length + 63) // 64) * 8
        self._rows: dict[int, int] = {}  # pivot coordinate -> row
        self._pivot_mask = 0  # bit p set iff p is a pivot
        self._canonical = True

    # -- queries ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def row_ints(self) -> list[int]:
        """Canonical rows as ints, ordered by increasing pivot."""
        self._canonicalize()
        rows = self._rows
        return [rows[p] for p in sorted(rows)]

    @property
    def rows(self) -> list[BitRow]:
        return [BitRow(b, self.ambient_length) for b in self.row_ints()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchelonBasis):
            return NotImplemented
        return (
            self.ambient_length == other.ambient_length
            and self.row_ints() == other.row_ints()
        )

    def __repr__(self) -> str:
        return f"EchelonBasis(ambient={self.ambient_length}, rank={self.rank})"

    # -- elimination --------------------------------------------------------

    def _check_length(self, length: int) -> None:
        if length != self.ambient_length:
            raise ValueError(
                f"row length {length} does not match ambient {self.ambient_length}"
            )

    def _reduce(self, bits: int) -> int:
        # Each stored row's lowest bit is its pivot, so clearing the lowest
        # pivot coordinate still set never sets a lower one: the loop ends.
        rows, mask = self._rows, self._pivot_mask
        hits = bits & mask
        while hits:
            bits ^= rows[(hits & -hits).bit_length() - 1]
            hits = bits & mask
        return bits

    def _insert(self, bits: int) -> bool:
        bits = self._reduce(bits)
        if not bits:
            return False
        check_bytes((len(self._rows) + 1) * self._row_bytes, "echelon basis")
        low = bits & -bits
        self._rows[low.bit_length() - 1] = bits
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
            for q in ones((row & mask) ^ (1 << p)):
                row ^= rows[q]
            rows[p] = row
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

    def insert(self, v: BitRow) -> bool:
        """Grow the span by v; returns True iff the rank increased."""
        self._check_length(v.length)
        return self._insert(v.bits)

    def extend(self, rows: Iterable[Sequence[int]]) -> None:
        """Insert a batch of index rows, as ``insert_indices`` does one.

        The rows go in descending order of their lowest coordinate, which
        keeps forward elimination and the canonical form cheap (see the
        module docstring).
        """
        insert = self.insert_indices
        for r in sorted(rows, key=lambda r: min(r, default=-1), reverse=True):
            insert(r)

    def reduce(self, v: BitRow) -> BitRow:
        """Residual of v modulo the span: zeros at every pivot coordinate."""
        self._check_length(v.length)
        return BitRow(self._reduce(v.bits), self.ambient_length)

    def reduce_int(self, bits: int) -> int:
        return self._reduce(bits)

    def kernel(self) -> "EchelonBasis":
        """Reduced basis of the null space of the matrix whose rows are this basis.

        Read off the reduced echelon form: one kernel vector per non-pivot
        coordinate f, with support {f} plus the pivots of the rows having a
        one in column f.
        """
        columns: dict[int, list[int]] = {}
        for row in self.row_ints():
            pivot, *rest = ones(row)
            for f in rest:
                columns.setdefault(f, [f]).append(pivot)
        out = EchelonBasis(self.ambient_length)
        out.extend(
            columns.get(f, [f])
            for f in range(self.ambient_length)
            if f not in self._rows
        )
        return out


def quotient_representatives(ambient_coords: int, b: EchelonBasis) -> list[int]:
    """Non-pivot coordinates in enumeration order.

    The corresponding unit vectors project to a basis of the quotient of the
    ambient space by span(b).
    """
    if b.ambient_length != ambient_coords:
        raise ValueError(
            f"basis ambient {b.ambient_length} does not match {ambient_coords}"
        )
    pivotset = b._rows
    return [c for c in range(ambient_coords) if c not in pivotset]
