"""Resource budgets for the large GF(2) eliminations.

A budget is a hard ceiling: when a computation would exceed it, a
:class:`BudgetError` is raised before the work is attempted (or as soon as
actual usage crosses the line).  A budget never truncates a result.
"""

from __future__ import annotations

from dataclasses import dataclass


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget."""


@dataclass(frozen=True)
class Budget:
    """Memory/row ceilings for echelon bases and word enumerations."""

    max_bytes: int = 512 * 1024 * 1024
    max_words_per_bidegree: int = 2_000_000

    @classmethod
    def from_mb(cls, mb: int) -> "Budget":
        return cls(max_bytes=mb * 1024 * 1024)

    def check_bytes(self, needed: int, what: str) -> None:
        if needed > self.max_bytes:
            raise BudgetError(
                f"{what} needs about {needed // (1024 * 1024)} MiB, "
                f"budget is {self.max_bytes // (1024 * 1024)} MiB"
            )


DEFAULT_BUDGET = Budget()

#: Budget suitable for the opt-in heavy computations (rank 5, degree 50).
HEAVY_BUDGET = Budget(max_bytes=32 * 1024 * 1024 * 1024)
