"""Every walkthrough in demos/ runs to completion on the current API."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfrac

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# the stdout of demos/field_dependent_certificates.py, which reads its
# fields, degrees and own-point value off the certificates and variants
FIELD_DEPENDENT_STDOUT = """\
graph: 5-subsets of [7], 21 vertices, 105 edges

variant P over GF(2): fits the graph itself
  certificate rank 7 <= 8 (degree 1 span)
  verified: True, alpha(graph) = 6

variant Q over GF(3): fits the complement
  certificate rank 21 <= 29 (degree 2 span)
  verified: True, alpha(complement) = 3

variant R (p = q = 3) over GF(5): fits the complement
  own-point value of the defining product: 3 (nonzero because the characteristic exceeds 3)
  verified: True
"""

# the stdout of demos/pentagon_sandwich.py, whose theta line is the exact
# strongly regular bound on C5
PENTAGON_SANDWICH_STDOUT = """\
alpha(C5) = 2, witness [0, 2]
alpha(C5 x C5) = 5; coded diagonal independent: True
  capacity lower bound: sqrt(5) = 2.2360679775
theta(C5) = 2.2360679775  (sqrt(5) = 2.2360679775)
  strongly regular with (k, lambda, mu) = (2, 0, 1): theta <= 0 + 1*5^(1/2), exactly
fractional clique cover value = 5/2, classes:
  clique (0, 1) at weight 1/2
  clique (0, 4) at weight 1/2
  clique (1, 2) at weight 1/2
  clique (2, 3) at weight 1/2
  clique (3, 4) at weight 1/2
minrank over GF(2) = 3 (exact: True)
block certificate: d = 2, ratio = 5/2, verified: True
fractional minrank interval over GF(2): [2, 5/2]
"""

PINNED_STDOUT = {
    "field_dependent_certificates.py": FIELD_DEPENDENT_STDOUT,
    "pentagon_sandwich.py": PENTAGON_SANDWICH_STDOUT,
}


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfrac.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=120)


def test_every_demo_is_collected():
    assert [path.name for path in DEMOS] == [
        "field_dependent_certificates.py", "johnson_theta_lp.py", "pentagon_sandwich.py", "tensor_certificates.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.name in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[path.name]
