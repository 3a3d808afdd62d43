"""Search budgets: wall-clock and node-count limits for exact searches."""

from __future__ import annotations

import os
import re
import time

from .errors import BudgetExhausted, PreconditionError
from .serialize import excerpt

BUDGET_ENV_VAR = "CAPACITY_BUDGET_MS"

_MS = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def parse_ms(text: str, what: str) -> float:
    """A time budget as ``--budget-ms`` and ``$CAPACITY_BUDGET_MS`` spell
    it: ASCII digits, then optionally a ``.`` and more digits.  (``float``
    would also take a sign, an exponent, underscores, surrounding
    whitespace, ``inf``, ``nan`` and non-ASCII digits.)  ``what`` names the
    source in the refusal."""
    if _MS.fullmatch(text) is None:
        raise PreconditionError("time budget must be a nonnegative number of milliseconds in ASCII digits "
                                f"(as 250 or 0.5): {what} is {excerpt(text)}")
    return float(text)


class Budget:
    """Cooperative budget checked inside branch-and-bound loops.

    A budget with no limits never trips.  ``spend`` is cheap enough to call
    once per search node; the clock is only consulted every 256 nodes.
    ``exhausted`` records whether any search it served was cut off.  A NaN
    or negative time and a negative node count are refused: a NaN would
    compare false and never trip.

    A budget ``within`` another is an allowance: each node it counts is
    charged to the outer budget too, after its own limits are checked.
    Either one running out raises; only the one that ran out is marked
    ``exhausted``.
    """

    def __init__(self, ms: float | None = None, nodes: int | None = None, within: "Budget | None" = None):
        if ms is not None and not ms >= 0:
            raise PreconditionError(f"time budget must be a nonnegative number of milliseconds, got {ms}")
        if nodes is not None and nodes < 0:
            raise PreconditionError(f"node budget must be nonnegative, got {nodes}")
        self.ms = ms
        self.max_nodes = nodes
        self.nodes = 0
        self.exhausted = False
        self.within = within
        self._t0 = time.monotonic()

    @classmethod
    def from_env(cls) -> "Budget":
        raw = os.environ.get(BUDGET_ENV_VAR)
        return cls(ms=parse_ms(raw, BUDGET_ENV_VAR) if raw else None)

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
        if self.within is not None:
            self.within.spend()
