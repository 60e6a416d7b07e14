"""Resource budgets, package-wide exception types and the verify scopes.

Generating-function recursions grow doubly exponentially in coefficient size,
so every potentially large computation checks its size against
:data:`DEFAULT_BUDGET`, read as ``limits.DEFAULT_BUDGET`` when the check runs,
and fails with :class:`BudgetExceededError` naming the limiting parameter
instead of exhausting memory.  Rebinding that one name (as the tests do with
``monkeypatch``) moves every check in the package at once.
"""

from __future__ import annotations

from dataclasses import dataclass


class TreepercError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceededError(TreepercError):
    """A size or resource cap was hit before the computation finished."""

    def __init__(self, what: str, limit: int, needed: int) -> None:
        self.what = what
        self.limit = limit
        self.needed = needed
        super().__init__(f"{what} budget exceeded: needed {needed}, limit {limit}")


class InexactDivisionError(TreepercError):
    """A division that the calling recursion guarantees to be exact was not."""


class PoleError(TreepercError, ZeroDivisionError):
    """A closed-form expression was evaluated at a pole of its denominator."""


class NoRealRootError(TreepercError, ArithmeticError):
    """A fixed-point equation has no real root in the requested range."""


@dataclass(frozen=True)
class Budget:
    """Caps on polynomial growth: term count and coefficient bit length.

    Defaults are generous enough for every documented computation (the
    depth-8 binary cut generating function has 32,640 terms and 326-bit
    coefficients; depth 9 has 130,816 terms) while still failing fast on
    runaway parameters.
    """

    max_terms: int = 2_000_000
    max_coeff_bits: int = 4_000_000

    def check_terms(self, needed: int, what: str = "term count") -> None:
        if needed > self.max_terms:
            raise BudgetExceededError(what, self.max_terms, needed)

    def check_bits(self, needed: int, what: str = "coefficient bits") -> None:
        if needed > self.max_coeff_bits:
            raise BudgetExceededError(what, self.max_coeff_bits, needed)


DEFAULT_BUDGET = Budget()


# The verify battery's scopes, cheapest first.  Kept here, not in ``verify``,
# so that the CLI parser offers them without loading the battery.
SCOPES = ("quick", "full")


def check_tree(k: int, n: int | None = None, min_n: int = 1) -> None:
    """Refuse a tree shape: branching k >= 2 and, when n is given, depth n >= min_n."""
    if k < 2:
        raise ValueError("branching factor k must be >= 2")
    if n is not None and n < min_n:
        raise ValueError(f"depth n must be >= {min_n}")
