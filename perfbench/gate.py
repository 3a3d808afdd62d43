"""Correctness gate, run after the timed region.

Every op's ``--json`` output is parsed and compared with known closed forms
(alpha of cycles and of the Johnson graphs, fractional clique covers of odd
cycles and of products, minrank of odd cycles, the Johnson theta formula,
odd-cycle theta) or, for the seeded random graphs, with oracles built on
networkx and scipy, which the program itself never imports.  Every witness
an op reports is re-checked with ``hfrac verify``.  The width of an open
interval is never pinned: only that it contains what is known.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from workloads import Plan


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.empty_graph(n)
    g.add_edges_from(edges)
    return g


def alpha_oracle(n: int, edges) -> int:
    """Independence number: max clique of the complement (networkx) for
    denser graphs, the edge-formulation integer program (scipy) for sparse."""
    if not edges:
        return n
    if len(edges) >= 0.15 * n * (n - 1) / 2:
        return nx.max_weight_clique(nx.complement(_nx_graph(n, edges)), weight=None)[1]
    a = np.zeros((len(edges), n))
    for i, (u, v) in enumerate(edges):
        a[i, u] = a[i, v] = 1
    res = milp(-np.ones(n), constraints=LinearConstraint(a, -np.inf, 1),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    return round(-res.fun)


def fracchrom_oracle(n: int, edges) -> float:
    """Fractional clique cover number: the covering LP over all maximal cliques."""
    cliques = list(nx.find_cliques(_nx_graph(n, edges)))
    a = np.zeros((n, len(cliques)))
    for j, cl in enumerate(cliques):
        a[cl, j] = 1
    res = linprog(np.ones(len(cliques)), A_ub=-a, b_ub=-np.ones(n), bounds=(0, None), method="highs")
    return res.fun


def cover_feasible_oracle(n: int, edges, k: int) -> bool:
    """Whether the vertices split into at most k cliques (integer program).

    A maximum independent set needs one class per vertex, so its vertices
    are fixed to classes 0, 1, ... to break the symmetry between classes.
    """
    independent, size = nx.max_weight_clique(nx.complement(_nx_graph(n, edges)), weight=None)
    if size > k:
        return False
    adjacent = set(edges)
    rows, lo, hi = [], [], []
    for v in range(n):  # each vertex in exactly one class
        row = np.zeros(n * k)
        row[v * k:(v + 1) * k] = 1
        rows.append(row)
        lo.append(1)
        hi.append(1)
    for u in range(n):  # non-adjacent vertices never share a class
        for v in range(u + 1, n):
            if (u, v) in adjacent:
                continue
            for c in range(k):
                row = np.zeros(n * k)
                row[u * k + c] = row[v * k + c] = 1
                rows.append(row)
                lo.append(-np.inf)
                hi.append(1)
    fixed = np.zeros(n * k)
    for c, v in enumerate(independent):
        fixed[v * k + c] = 1
    res = milp(np.zeros(n * k), constraints=LinearConstraint(np.array(rows), lo, hi),
               integrality=np.ones(n * k), bounds=Bounds(fixed, np.ones(n * k)))
    return res.status == 0


def odd_cycle_theta(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def johnson_theta(n: int) -> Fraction:
    """Closed form n(n-2)(2n-11) / (3(3n-14)) for the 3-subset graph at p = 2."""
    return Fraction(n * (n - 2) * (2 * n - 11), 3 * (3 * n - 14))


class Gate:
    """Checks one run's op records against the plan that produced them."""

    def __init__(self, plan: Plan, main):
        self.plan = plan
        self.main = main  # hfrac.cli.main, for re-verifying witnesses
        self._graphs = {"file:" + plan.graph_file(name): g for name, g in plan.graphs.items()}
        self._alpha_cache: dict[str, int] = {}
        self._verify_dir = os.path.join(plan.workdir, "gate")
        os.makedirs(self._verify_dir, exist_ok=True)

    def alpha(self, expr: str) -> int:
        if expr not in self._alpha_cache:
            self._alpha_cache[expr] = alpha_oracle(*self._graphs[expr])
        return self._alpha_cache[expr]

    def verify(self, text: str, index: int) -> str | None:
        """Re-check a reported witness with ``hfrac verify``."""
        path = os.path.join(self._verify_dir, f"op{index}.json")
        with open(path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.main(["verify", "--cert", path, "--json"])
        if rc != 0 or json.loads(out.getvalue()).get("verified") is not True:
            return f"witness failed hfrac verify: {out.getvalue().strip()[:200]}"
        return None

    def check(self, index: int, record: dict) -> str | None:
        """None when op ``index`` is correct, else the reason it failed."""
        op = self.plan.ops[index]
        if record["error"]:
            return f"raised: {record['error'].strip().splitlines()[-1]}"
        kind = op.check["kind"]
        try:
            out = json.loads(record["stdout"]) if record["stdout"].strip() else None
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if out is None and kind != "certify":
            return f"exit {record['rc']} with empty stdout"
        return getattr(self, "_" + kind.replace("-", "_"))(op, record["rc"], out, record["stdout"], index)

    def _graph_expr(self, op) -> str:
        return op.argv[op.argv.index("--graph") + 1]

    def _alpha(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        lower, upper = Fraction(out["lower"]), Fraction(out["upper"])
        truth = op.check.get("value")
        if truth is None:
            truth = self.alpha(self._graph_expr(op))
        if lower != upper or lower != truth:
            return f"alpha [{lower}, {upper}], expected {truth}"
        return self.verify(text, index)

    def _fracchrom(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        value = Fraction(out["value"])
        if "value" in op.check:
            if value != Fraction(op.check["value"]):
                return f"fracchrom {value}, expected {op.check['value']}"
        else:
            expected = fracchrom_oracle(*self._graphs[self._graph_expr(op)])
            if abs(float(value) - expected) > 1e-6:
                return f"fracchrom {value}, oracle {expected}"
        return self.verify(text, index)

    def _hfrac(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        lower, upper = Fraction(out["lower"]), Fraction(out["upper"])
        expr = self._graph_expr(op)
        alpha = op.check.get("alpha")
        alpha = self.alpha(expr) if alpha is None else alpha
        cover = op.check.get("fracchrom")
        cover = fracchrom_oracle(*self._graphs[expr]) if cover is None else Fraction(cover)
        # alpha <= hfrac <= fractional clique cover number
        if not alpha <= lower <= upper or lower > cover + 1e-9:
            return f"hfrac [{lower}, {upper}] misses [alpha, cover] = [{alpha}, {cover}]"
        return self.verify(text, index)

    def _minrank(self, op, rc, out, text, index):
        lower, upper = Fraction(out["lower"]), Fraction(out["upper"])
        if rc != (0 if lower == upper else 3):
            return f"exit {rc} for interval [{lower}, {upper}]"
        truth = op.check.get("value")
        if truth is not None and not lower <= truth <= upper:
            return f"minrank [{lower}, {upper}] misses {truth}"
        expr = self._graph_expr(op)
        if truth is None and lower < self.alpha(expr):
            return f"minrank lower end {lower} below alpha {self.alpha(expr)}"
        return self.verify(text, index)

    def _cover(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        k = op.check["k"]
        n, edges = self._graphs[self._graph_expr(op)]
        if out.get("cover", ...) is None:
            if cover_feasible_oracle(n, edges, k):
                return f"reported no {k}-clique partition, but one exists"
            return None
        if len(out["classes"]) > k:
            return f"{len(out['classes'])} classes for k = {k}"
        return self.verify(text, index)

    def _theta_lp(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        if Fraction(out["value"]) != johnson_theta(op.check["n"]):
            return f"theta {out['value']}, expected {johnson_theta(op.check['n'])}"
        return None

    def _theta_circulant(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        if abs(out["value"] - odd_cycle_theta(op.check["n"])) > 1e-9:
            return f"theta {out['value']}, expected {odd_cycle_theta(op.check['n'])}"
        return None

    def _certify(self, op, rc, out, text, index):
        if rc != 0:
            return f"exit {rc}"
        if out is not None:
            return "certify --out printed to stdout"
        with open(op.check["path"]) as fh:
            cert = json.load(fh)
        if cert.get("kind") != op.check["cert"]:
            return f"certificate kind {cert.get('kind')!r}"
        if "d" in op.check:
            side = op.check["vertices"] * op.check["d"]
            if cert["d"] != op.check["d"] or cert["rows"] != side or cert["cols"] != side:
                return f"drep d={cert['d']} {cert['rows']}x{cert['cols']}, expected d={op.check['d']} side {side}"
        if "max_rank" in op.check and cert["claimed_rank"] > op.check["max_rank"]:
            return f"claimed rank {cert['claimed_rank']} above {op.check['max_rank']}"
        return None

    def _verify(self, op, rc, out, text, index):
        if rc != 0 or out.get("verified") is not True:
            return f"verify exit {rc}: {text.strip()[:200]}"
        return None
