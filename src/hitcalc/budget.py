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


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget."""


#: The bytes echelon bases may hold by default.
DEFAULT_BUDGET = 512 << 20

#: The bytes for the opt-in heavy computations (rank 5, degree 50).
HEAVY_BUDGET = 32 << 30

_max_bytes = DEFAULT_BUDGET


def configure(max_bytes: int | None) -> None:
    """Set the bytes every elimination may hold; None restores DEFAULT_BUDGET."""
    global _max_bytes
    _max_bytes = DEFAULT_BUDGET if max_bytes is None else max_bytes


def check_bytes(needed: int) -> None:
    """Raise BudgetError if an echelon basis holding needed bytes exceeds the budget."""
    if needed > _max_bytes:
        need, limit = -(-needed * 10 // 2**20), _max_bytes * 10 // 2**20
        raise BudgetError(
            f"echelon basis needs about {need / 10:.1f} MiB, "
            f"budget is {limit / 10:.1f} MiB"
        )
