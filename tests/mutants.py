"""Mutation check: every mutant below must fail the tests named for it.

    python3 tests/mutants.py

Each row names a file under ``src/hfrac``, one exact line of it (leading
whitespace aside), the line that replaces it and the pytest selectors that
must catch the change.  The script copies ``src``, ``tests`` and
``pyproject.toml`` into a temporary directory, runs every row's selectors
there once unchanged (they must pass, or a failing test would pass for a
killed mutant), and then, one mutant at a time, writes the mutant into the
copy and runs only its selectors.  It exits 1 naming each mutant that
survives (its selectors pass) and each row whose line is not in its file
exactly once; otherwise 0.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ATTAIN = "tests/test_cli.py::test_verify_refuses_a_witness_that_does_not_attain_its_end"
_GATE = "tests/test_cli.py::test_a_rejecting_exact_gate_exits_2"
_SRG_BOUND = "tests/test_theta.py::test_srg_bound_is_at_least_alpha_and_matches_the_eigenvalues"

# (file, line, replacement, selectors)
MUTANTS = [
    ("cli.py",
     '"lower", lambda verts, lower: lower <= len(verts)),',
     '"lower", lambda verts, lower: lower <= len(verts) + 1),',
     [f"{_ATTAIN}[independent-set-below-lower]"]),
    ("cli.py",
     '"upper", lambda cert, upper: upper >= cert.claimed_rank),',
     '"upper", lambda cert, upper: upper + 1 >= cert.claimed_rank),',
     [f"{_ATTAIN}[fit-above-upper]"]),
    ("cli.py",
     '"upper", lambda rep, upper: rep.ratio() == upper),',
     '"upper", lambda rep, upper: rep.ratio() <= upper + 1),',
     [f"{_ATTAIN}[drep-above-upper]", f"{_ATTAIN}[drep-below-upper]"]),
    # the reader lifts every marker, also one inside a key or a string
    ("serialize.py",
     'if (buf[at - 1:at] or text[-1:]) == b"\\\\":',
     "if False:",
     ["tests/test_serialize.py::test_reader_never_lifts_what_is_not_an_entries_key"]),
    # the reader forgets the text's last byte at the front of the buffer
    ("serialize.py",
     'if (buf[at - 1:at] or text[-1:]) == b"\\\\":',
     'if buf[at - 1:at] == b"\\\\":',
     ["tests/test_serialize.py::test_reader_does_not_depend_on_where_the_blocks_end"]),
    # the integral cover's gate forgets that its stable set is independent
    ("fraccover.py",
     "failure = cover_violation(g, cover) or independent_set_violation(g, stable)",
     "failure = cover_violation(g, cover)",
     [f"{_GATE}[fractional_clique_cover_integral_stable]"]),
    # ... or that the stable set has one vertex per clique
    ("fraccover.py",
     "if failure is None and len(stable) != len(classes):",
     "if False:",
     [f"{_GATE}[fractional_clique_cover_integral]"]),
    # the integral step descends again at a size that already failed
    ("fraccover.py",
     "if len(stable) <= len(greedy):",
     "if len(stable) < len(greedy):",
     ["tests/test_fraccover.py::test_a_set_of_alphas_no_larger_than_the_greedy_set_is_not_descended_on"]),
    # the srg check forgets regularity: the star K_{1,3}, with k read at
    # the centre, gives srg(4, 3, 0, 1) and a bound of 8/5 < alpha = 3
    ("theta.py",
     "if k == 0 or min(g.degrees) < k:",
     "if k == 0:",
     [f"{_SRG_BOUND}[star]"]),
    # ... or that every non-adjacent pair shares one count: C6 (mu 0 and 1)
    # gives srg(6, 2, 0, 0) and a bound of 6*2^(1/2) - 6 < alpha = 3
    ("theta.py",
     "if len(lam) != 1 or len(mu) > 1:",
     "if len(lam) != 1:",
     [f"{_SRG_BOUND}[C6]"]),
    # the bound takes lambda for mu and mu for lambda: 5/3 < alpha = 2 on C5
    ("theta.py",
     "def srg_theta_upper(n: int, k: int, lam: int, mu: int) -> tuple[Fraction, Fraction, int]:",
     "def srg_theta_upper(n: int, k: int, mu: int, lam: int) -> tuple[Fraction, Fraction, int]:",
     [f"{_SRG_BOUND}[C5]"]),
]


def _passes(work: str, selectors: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors]
    return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def _mutate(text: str, line: str, replacement: str) -> str | None:
    """``text`` with its one line ``line`` (leading whitespace aside)
    replaced, or None when ``line`` is not there exactly once."""
    lines = text.split("\n")
    hits = [i for i, old in enumerate(lines) if old.strip() == line]
    if len(hits) != 1:
        return None
    i = hits[0]
    lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + replacement
    return "\n".join(lines)


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as work:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(work, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
        if not _passes(work, sorted({s for *_, selectors in MUTANTS for s in selectors})):
            print("the selectors fail on the unchanged program", flush=True)
            return 1
        for name, line, replacement, selectors in MUTANTS:
            path = os.path.join(work, "src", "hfrac", name)
            with open(path) as fh:
                original = fh.read()
            mutated = _mutate(original, line, replacement)
            if mutated is None:
                failures.append(f"{name}: the line {line!r} is not there exactly once")
                continue
            with open(path, "w") as fh:
                fh.write(mutated)
            try:
                survived = _passes(work, selectors)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            print(f"{'SURVIVED' if survived else 'killed'}: {name}: {replacement}", flush=True)
            if survived:
                failures.append(f"{name}: {line!r} -> {replacement!r} survives {' '.join(selectors)}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
