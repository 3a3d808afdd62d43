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
    if path.name == "field_dependent_certificates.py":
        assert proc.stdout == FIELD_DEPENDENT_STDOUT
