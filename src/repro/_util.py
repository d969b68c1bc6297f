"""Small shared helpers: work budgets, timing and integer coercion."""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from .errors import WorkLimitExceeded


class WorkBudget:
    """A cap on abstract work units, emulating the paper's "INF" timeouts.

    The paper reports algorithms that run past 48 hours as ``INF``. At
    reproduction scale we bound *work* instead of wall-clock (deterministic
    and fast): algorithms spend one unit per edge-peel kernel invocation and
    raise :class:`WorkLimitExceeded` past the limit. A ``limit`` of ``None``
    means unbounded.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("work limit must be positive or None")
        self.limit = limit
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        """Consume *amount* units; raises once the limit is exceeded."""
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise WorkLimitExceeded(self.limit)

    @property
    def exhausted(self) -> bool:
        """Whether the budget has been exceeded."""
        return self.limit is not None and self.spent > self.limit


class Stopwatch:
    """Tiny elapsed-time helper (perf_counter based)."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start


def ceil_div(numerator: int, denominator: int) -> int:
    """Ceiling of ``numerator / denominator`` for positive denominators."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -((-numerator) // denominator)


def ceil_ratio_plus(numerator: int, denominator: int, offset: int) -> int:
    """``ceil(numerator / denominator) + offset`` with integer arithmetic."""
    return ceil_div(numerator, denominator) + offset


def is_power_of_two(value: int) -> bool:
    """Whether *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_ceil(value: int) -> int:
    """``ceil(log2(value))`` for positive integers."""
    if value <= 0:
        raise ValueError("value must be positive")
    return int(math.ceil(math.log2(value))) if value > 1 else 0


def int_list(values) -> list:
    """*values* (a numpy array or any integer sequence) as a list of
    python ints — the cheap form for short per-element loops."""
    if isinstance(values, np.ndarray):
        return values.astype(np.int64, copy=False).tolist()
    return [int(value) for value in values]
