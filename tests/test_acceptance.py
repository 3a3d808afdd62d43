"""Acceptance gate: every headline claim, at its stated tolerance and within
its stated time budget, with one PASS/FAIL line printed per claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or
``hfrac reproduce`` for the same suite from the command line.
"""

from __future__ import annotations

import time

import pytest

from hfrac.reproduce import CLAIMS, ClaimResult


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(claim):
    t0 = time.perf_counter()
    passed, value, expected = claim.fn()
    elapsed = time.perf_counter() - t0
    result = ClaimResult(claim.id, claim.statement, passed, value, expected, elapsed)
    print(result.line())
    assert passed, f"{claim.id}: value={value}, expected={expected}"
    assert elapsed < claim.budget_s, f"{claim.id}: {elapsed:.2f}s exceeds {claim.budget_s}s"
