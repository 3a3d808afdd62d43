"""Workload manifest and seeded input generation.

Each workload is a fixed list of ops for a given seed.  An op is one
``hfrac.cli.main(argv)`` call with ``--json``; the only inputs the program
sees are the argv strings and the ``file:`` graphs written by ``write_inputs``.
Every op carries a ``check`` record that ``gate.py`` uses, after the timed
region, to decide whether the output is correct.

Sizes were chosen on the seed commit (Python 3.11, numpy 2.4, 2-core Xeon)
so that each workload's op list takes roughly 10-20 s.  ``tiny=True``
builds a seconds-long version of the same op kinds for the smoke test.

Left out on purpose (costs measured on the seed commit):
  * ``fracchrom johnson:2,8``: did not finish in 120 s, and the exact
    simplex ignores the budget.
  * ``alpha`` on 1000 or more vertices: ``cycle:1000`` takes 21 s and
    ``empty:1000`` fails with RecursionError after 25 s; too costly per op
    for repeated runs.
  * any op with ``--budget-ms``: its output depends on machine speed.
  * ``reproduce``: one of its claims gates on wall time, so its output
    depends on machine speed as well.  It is the only caller of
    ``gfmat.kronecker``, so that function gets no span in any workload.
  * ``certify --kind cycle-drep --k 4 --power 3``: a 5832x5832 matrix,
    beyond the memory a repeated run should take.
Whichever change makes one of these cheap or deterministic adds it back as
a benchmark change of its own.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WHY = {
    "cover-lp": "fracchrom/hfrac column generation and the exact simplex do almost all the work; "
                "one-shot theta LPs use the lp layer with cold solves",
    "exact-search": "alpha/cover bitset branch-and-bound and the minrank DFS do the work, with zero "
                    "LP calls; gated minrank graphs keep intervals open",
    "certify-verify": "certificate construction, tensoring, canonical JSON writing and verify's JSON "
                      "reading and rank checks over the same objects",
}
WORKLOADS = tuple(WHY)


@dataclass
class Op:
    argv: list[str]
    check: dict
    save_as: str | None = None  # write captured stdout here (for a later verify op)


@dataclass
class Plan:
    workload: str
    seed: int
    workdir: str
    graphs: dict[str, tuple[int, list[tuple[int, int]]]] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def graph_file(self, name: str) -> str:
        return os.path.join(self.workdir, "graphs", f"{name}.txt")

    def out_file(self, name: str) -> str:
        return os.path.join(self.workdir, "out", f"{name}.json")

    def add_random(self, rng: random.Random, name: str, n: int, p: float) -> str:
        """Seeded G(n, p) conditioned on its expected edge count, i.e. the
        uniform G(n, m) with m = round(p n (n-1) / 2); fixing m removes the
        largest source of cost variation between seeds.  Registered for
        writing; returns the graph expression."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, round(p * len(pairs))))
        self.graphs[name] = (n, edges)
        return "file:" + self.graph_file(name)

    def op(self, *argv, save_as: str | None = None, **check) -> None:
        self.ops.append(Op([*map(str, argv), "--json"], check, save_as))


def write_inputs(plan: Plan) -> None:
    """Write every generated graph in the ``n m`` / ``u v`` text format."""
    os.makedirs(os.path.join(plan.workdir, "graphs"), exist_ok=True)
    os.makedirs(os.path.join(plan.workdir, "out"), exist_ok=True)
    for name, (n, edges) in plan.graphs.items():
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        with open(plan.graph_file(name), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def greedy_cover_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Size of a first-fit clique partition: an upper bound on the clique
    cover number, from which the ``--k`` values are picked."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    classes: list[list[int]] = []
    for v in sorted(range(n), key=lambda x: (-len(adj[x]), x)):
        for cls in classes:
            if all(u in adj[v] for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    return len(classes)


def _random_cells(plan: Plan, rng: random.Random, prefix: str, cells) -> list[tuple[str, str]]:
    """One seeded graph per (n, density, rep); returns (name, expression) pairs."""
    out = []
    for n, densities, reps in cells:
        for p in densities:
            for r in range(reps):
                name = f"{prefix}-{n}-{p}-{r}"
                out.append((name, plan.add_random(rng, name, n, p)))
    return out


def _cover_lp(plan: Plan, rng: random.Random, tiny: bool) -> None:
    # Density 0.7 stops at 12 vertices and 14-16 vertices come at 0.3 only:
    # above that a single op takes 0.02-1.9 s across seeds, too wide a
    # spread for a steady total.  Many small graphs keep the latency
    # percentiles steady across seeds.
    cells = ((8, (0.3, 0.5, 0.7), 1),) if tiny else (
        (10, (0.3, 0.5, 0.7), 24), (12, (0.3, 0.5, 0.7), 16), (14, (0.3,), 16), (16, (0.3,), 4))
    for _, expr in _random_cells(plan, rng, "fc", cells):
        plan.op("fracchrom", "--graph", expr, kind="fracchrom")
    for k in ((5, 7) if tiny else (5, 7, 9, 11, 13, 15, 17, 19, 21)):
        plan.op("fracchrom", "--graph", f"cycle:{k}", kind="fracchrom", value=str(Fraction(k, 2)))
        plan.op("theta-circulant", "--n", k, kind="theta-circulant", n=k)
    if not tiny:
        # The fixed ops of 0.1-0.5 s (cycles 17-21, the products with
        # complete graphs, the complements) sit around the 90th percentile,
        # so latency_p90_ms does not hinge on the tail of the random graphs.
        # Fractional clique covers multiply under strong and lex products;
        # the complement of C(2k+1) has fractional chromatic number 2 + 1/k.
        for expr, value in (("strong(cycle:5,complete:2)", "5/2"), ("strong(cycle:5,complete:3)", "5/2"),
                            ("strong(cycle:7,complete:2)", "7/2"), ("strong(cycle:5,cycle:3)", "5/2"),
                            ("complement(cycle:9)", "9/4"), ("complement(cycle:11)", "11/5")):
            plan.op("fracchrom", "--graph", expr, kind="fracchrom", value=value)
        # vertex-transitive, so n / omega = 20 / 4
        plan.op("fracchrom", "--graph", "johnson:2,6", kind="fracchrom", value="5")
        plan.op("fracchrom", "--graph", "lex(cycle:5,cycle:5)", kind="fracchrom", value="25/4")
    for k in ((5, 7) if tiny else (5, 7, 9, 11, 13)):
        plan.op("hfrac", "--graph", f"cycle:{k}", "--p", 2, kind="hfrac", alpha=k // 2, fracchrom=str(Fraction(k, 2)))
    if not tiny:
        plan.op("hfrac", "--graph", "strong(cycle:5,cycle:5)", "--p", 2, kind="hfrac", alpha=5, fracchrom="25/4")
    for n in (range(8, 11) if tiny else range(8, 25)):
        plan.op("theta-lp", "--p", 2, "--n", n, kind="theta-lp", n=n)


def _exact_search(plan: Plan, rng: random.Random, tiny: bool) -> None:
    # Sparse graphs on 60-80 vertices are left out (density 0.2 and up at
    # 60 and 70 vertices, 0.3 and up at 80): single ops there take 0.02-4.4 s
    # across seeds, too wide a spread for a steady total and steady
    # latency percentiles.  cycle:600 keeps a large sparse search in.
    every = (0.05, 0.1, 0.2, 0.3, 0.4)
    cells = ((20, every, 1),) if tiny else (
        (40, every, 6), (50, every, 6), (60, every[2:], 3), (70, every[2:3], 3), (70, every[3:], 6),
        (80, every[3:], 6))
    for _, expr in _random_cells(plan, rng, "al", cells):
        plan.op("alpha", "--graph", expr, kind="alpha")
    for k in ((20, 31) if tiny else (200, 400, 600)):
        plan.op("alpha", "--graph", f"cycle:{k}", kind="alpha", value=k // 2)
    if not tiny:
        for n in (9, 10):
            plan.op("alpha", "--graph", f"johnson:2,{n}", kind="alpha", value=8)
        plan.op("alpha", "--graph", "strong(cycle:7,cycle:7)", kind="alpha", value=10)
    cells = ((12, (0.5,), 1),) if tiny else tuple((n, (0.5,), 2) for n in range(16, 31, 2))
    for name, expr in _random_cells(plan, rng, "cv", cells):
        k = greedy_cover_size(*plan.graphs[name])
        # below the first-fit size some k are feasible and some are not
        for kk in range(max(1, k - 3), k):
            plan.op("cover", "--graph", expr, "--k", kk, kind="cover", k=kk)
    for k in ((7,) if tiny else (7, 9, 11, 13)):
        for p in (2, 3):  # cycle:11 and cycle:13 at p=3 hit the search gate
            plan.op("minrank", "--graph", f"cycle:{k}", "--p", p, kind="minrank", value=(k + 1) // 2)
    if not tiny:
        # gated at p=2 (20 edges); its minrank is 3, the gate reports [2, 3]
        plan.op("minrank", "--graph", "strong(cycle:5,complete:2)", "--p", 2, kind="minrank", value=3)
    # Random minrank graphs stay below the gate (15 edges at p=2): a gated
    # random graph adds 0, 1 or 2 to interval_gap depending on the seed,
    # which spreads it across seeds by more than its bound.  Search time
    # grows with the edge count: 9 vertices at density 0.3 (11 edges) take
    # up to 4.6 s per op and 10 vertices at 12-14 edges up to 4 s, so 9
    # vertices come at density 0.25 (9 edges, at most 0.7 s).
    cells = ((8, (0.3,), 2),) if tiny else ((8, (0.3,), 12), (9, (0.25,), 6))
    for _, expr in _random_cells(plan, rng, "mr", cells):
        plan.op("minrank", "--graph", expr, "--p", 2, kind="minrank")


def _certify_verify(plan: Plan, rng: random.Random, tiny: bool) -> None:
    def certify_then_verify(name: str, *argv, **check) -> None:
        path = plan.out_file(name)
        plan.op("certify", *argv, "--out", path, kind="certify", path=path, **check)
        plan.op("verify", "--cert", path, kind="verify")

    def report_then_verify(name: str, *argv, **check) -> None:
        path = plan.out_file(name)
        plan.op(*argv, save_as=path, **check)
        plan.op("verify", "--cert", path, kind="verify")

    drep = ((2, 1), (2, 2)) if tiny else ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2))
    for p in (2, 3):
        for k, power in drep:
            if p == 3 and (k, power) == (3, 3):
                continue  # one 2744 x 2744 certificate (at p=2) per pass is enough
            certify_then_verify(f"drep-{k}-{power}-{p}", "--kind", "cycle-drep", "--k", k, "--p", p,
                                "--power", power, cert="drep", d=2 ** power, vertices=(2 * k + 1) ** power)
    for n in ((8, 9) if tiny else range(8, 19)):
        certify_then_verify(f"johnson-{n}", "--kind", "johnson", "--p", 2, "--n", n,
                            cert="fit", max_rank=n)
    alons = (("P", 2, 3, 7),) if tiny else (
        ("P", 2, 3, 7), ("Q", 2, 3, 7), ("P", 2, 3, 8), ("Q", 2, 3, 8),
        ("R", 2, 2, 6), ("R", 2, 2, 7), ("R", 2, 2, 8), ("P", 3, 2, 8))
    for variant, p, q, n in alons:
        certify_then_verify(f"alon-{variant}-{p}-{q}-{n}", "--kind", "alon", "--variant", variant,
                            "--p", p, "--q", q, "--n", n, cert="fit")
    cells = ((10, (0.5,), 1),) if tiny else tuple((n, (0.5,), 2) for n in (12, 14, 16, 18, 20, 22))
    for name, expr in _random_cells(plan, rng, "cc", cells):
        k = greedy_cover_size(*plan.graphs[name])
        certify_then_verify(name, "--kind", "cover", "--graph", expr, "--k", k, "--p", 2,
                            cert="fit", max_rank=k)
    for k in ((5,) if tiny else (5, 7, 9)):
        for p in (2, 3):
            report_then_verify(f"minrank-{k}-{p}", "minrank", "--graph", f"cycle:{k}", "--p", p,
                               kind="minrank", value=(k + 1) // 2)
    for name, expr in _random_cells(plan, rng, "mr", ((8, (0.3,), 1 if tiny else 4),)):
        report_then_verify(name, "minrank", "--graph", expr, "--p", 2, kind="minrank")
    for k in ((5,) if tiny else (5, 7)):
        report_then_verify(f"hfrac-{k}", "hfrac", "--graph", f"cycle:{k}", "--p", 3,
                           kind="hfrac", alpha=k // 2, fracchrom=str(Fraction(k, 2)))


_BUILDERS = {"cover-lp": _cover_lp, "exact-search": _exact_search, "certify-verify": _certify_verify}


def build_plan(workload: str, seed: int, workdir: str, tiny: bool = False) -> Plan:
    """The op list of one workload; the same seed gives the same ops and graphs."""
    plan = Plan(workload, seed, workdir)
    _BUILDERS[workload](plan, random.Random(f"{workload}/{seed}"), tiny)
    return plan
