"""The one memory budget of the large GF(2) eliminations.

The budget is a hard ceiling on the bytes an echelon basis may hold.  Every
:class:`~hitcalc.gf2.EchelonBasis` charges it the ``sys.getsizeof`` of the row
ints it stores, with no up-front estimate, and raises :class:`BudgetError`
once those stored rows cross it; a budget never truncates a result.

There is one budget per process, set with :func:`configure`.  The command
line sets it once per command from ``--budget-mb`` and ``--allow-heavy``
and restores the default when the command ends; library callers set it the
same way.  The cap on lambda words per bidegree is a fixed constant of
``lambda_algebra``, not part of the budget.
"""

from __future__ import annotations

from typing import NamedTuple


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget."""


class Budget(NamedTuple):
    """A ceiling on the bytes held by echelon bases."""

    max_bytes: int = 512 * 1024 * 1024

    @classmethod
    def from_mb(cls, mb: int) -> "Budget":
        return cls(max_bytes=mb * 1024 * 1024)


DEFAULT_BUDGET = Budget()

#: Budget suitable for the opt-in heavy computations (rank 5, degree 50).
HEAVY_BUDGET = Budget(max_bytes=32 * 1024 * 1024 * 1024)

_current = DEFAULT_BUDGET


def configure(limit: Budget | None) -> None:
    """Set the budget every elimination charges; None restores DEFAULT_BUDGET."""
    global _current
    _current = DEFAULT_BUDGET if limit is None else limit


def fits(needed: int) -> bool:
    """Whether needed bytes are within the budget."""
    return needed <= _current.max_bytes


def check_bytes(needed: int) -> None:
    """Raise BudgetError if an echelon basis holding needed bytes exceeds the budget."""
    if not fits(needed):
        need, limit = -(-needed * 10 // 2**20), _current.max_bytes * 10 // 2**20
        raise BudgetError(
            f"echelon basis needs about {need / 10:.1f} MiB, "
            f"budget is {limit / 10:.1f} MiB"
        )
