"""The one memory budget of the large GF(2) eliminations.

The budget is a hard ceiling on the bytes an echelon basis may hold: every
:class:`~hitcalc.gf2.EchelonBasis` charges it as it stores a row, and the
hit and primitive spaces are also checked up front against a dense
estimate, before any row is generated.  Crossing it raises
:class:`BudgetError`; a budget never truncates a result.

There is one budget per process, set with :func:`configure`.  The command
line sets it once per command from ``--budget-mb`` and ``--allow-heavy``
and restores the default when the command ends; library callers set it the
same way.  The cap on lambda words per bidegree is a fixed constant of
``lambda_algebra``, not part of the budget.
"""

from __future__ import annotations

from dataclasses import dataclass


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget."""


@dataclass(frozen=True)
class Budget:
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


def check_bytes(needed: int, what: str) -> None:
    """Raise BudgetError if needed bytes exceed the configured budget."""
    if needed > _current.max_bytes:
        raise BudgetError(
            f"{what} needs about {needed // (1024 * 1024)} MiB, "
            f"budget is {_current.max_bytes // (1024 * 1024)} MiB"
        )
