"""Search budgets: wall-clock and node-count limits for exact searches."""

from __future__ import annotations

import os
import time

from .errors import BudgetExhausted, PreconditionError

BUDGET_ENV_VAR = "CAPACITY_BUDGET_MS"


class Budget:
    """Cooperative budget checked inside branch-and-bound loops.

    A budget with no limits never trips.  ``spend`` is cheap enough to call
    once per search node; the clock is only consulted every 256 nodes.
    ``exhausted`` records whether any search it served was cut off.  A NaN
    or negative time and a negative node count are refused: a NaN would
    compare false and never trip.
    """

    def __init__(self, ms: float | None = None, nodes: int | None = None):
        if ms is not None and not ms >= 0:
            raise PreconditionError(f"time budget must be a nonnegative number of milliseconds, got {ms}")
        if nodes is not None and nodes < 0:
            raise PreconditionError(f"node budget must be nonnegative, got {nodes}")
        self.ms = ms
        self.max_nodes = nodes
        self.nodes = 0
        self.exhausted = False
        self._t0 = time.monotonic()

    @classmethod
    def from_env(cls) -> "Budget":
        raw = os.environ.get(BUDGET_ENV_VAR)
        try:
            ms = float(raw) if raw else None
        except ValueError:
            raise PreconditionError(f"{BUDGET_ENV_VAR}={raw!r} is not a number of milliseconds") from None
        return cls(ms=ms)

    def spend(self) -> None:
        """Count one search node."""
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self.exhausted = True
            raise BudgetExhausted(f"node budget {self.max_nodes} exhausted")
        if self.ms is not None and self.nodes % 256 == 0:
            if (time.monotonic() - self._t0) * 1000.0 > self.ms:
                self.exhausted = True
                raise BudgetExhausted(f"time budget {self.ms} ms exhausted")
