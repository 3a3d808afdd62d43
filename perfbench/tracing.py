"""Spans around the program's public functions, for the traced run only.

``install()`` replaces each function listed in ``PUBLISHED`` with a wrapper in
every ``hfrac`` module namespace that binds it (so ``simplex_solve`` is
wrapped in ``lp``, ``fraccover`` and ``theta`` alike), and methods on their
class.  A span records its name, start, end, parent span id and a few
counts; spans stay in memory until ``dump`` writes them out.  Functions a
later version of the program no longer has are skipped.

``layer_metrics`` turns spans into ``<module>.<function>.<stat>`` figures:
``calls``, ``self_s`` (span time minus the time its child spans cover) and
the per-function counts below.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Traced functions as ``<module>.<qualified name>`` (``init`` for
# ``__init__``) and the figures published for each.  Counts other than
# ``calls``, ``self_s`` and ``master_solves`` (the ``lp.simplex_solve`` spans
# under a cover solve) are recorded by the wrapper.
PUBLISHED: dict[str, tuple[str, ...]] = {
    "lp.simplex_solve": ("calls", "self_s", "rows"),
    "lp.check_solution": ("calls", "self_s"),
    "fraccover.fractional_clique_cover": ("calls", "self_s", "master_solves"),
    "fraccover.cover_violation": ("self_s",),
    "independence.max_weight_independent_set": ("calls", "self_s", "nodes"),
    "independence.alpha": ("calls", "self_s", "nodes"),
    "independence.clique_cover_leq": ("calls", "self_s", "nodes"),
    "independence.greedy_clique_cover": ("self_s",),
    "minrank.minrank_exact": ("calls", "self_s", "nodes", "exact"),
    "minrank.cover_certificate": ("self_s",),
    "minrank.FitCertificate.check": ("self_s",),
    "minrank.johnson_certificate": ("self_s",),
    "minrank.alon_certificate": ("self_s",),
    "gfmat.rank": ("calls", "self_s", "entries"),
    "gfmat.matmul": ("self_s",),
    "gfmat.kronecker": ("self_s",),
    "gfmat.FMatrix.init": ("calls", "self_s"),
    "gfmat.FMatrix.to_json": ("self_s",),
    "gfmat.FMatrix.from_json": ("self_s",),
    "reps.tensor_dreps": ("calls", "self_s", "out_entries"),
    "reps.drep_violation": ("calls", "self_s"),
    "reps.drep_from_fractional_cover": ("self_s",),
    "reps.cycle_drep": ("self_s",),
    "reps.hfrac_upper_search": ("calls", "self_s"),
    "serialize.canonical_json": ("calls", "self_s", "bytes"),
    "graphs.generate": ("calls", "self_s"),
    "graphs.complement": ("self_s",),
    "graphs.strong_product": ("self_s",),
    "theta.theta_johnson_lp": ("self_s",),
    "theta.theta_circulant": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

# Layers as the benchmark groups them; every traced function is in one.
LAYERS: dict[str, tuple[str, ...]] = {
    "lp": ("lp.", "fraccover.", "independence.max_weight_independent_set"),
    "independence": ("independence.", "minrank.minrank_exact", "minrank.cover_certificate",
                     "minrank.FitCertificate.check"),
    "gfmat": ("gfmat.", "reps.", "serialize.", "minrank.johnson_certificate", "minrank.alon_certificate"),
    "graphs": ("graphs.", "theta.", "cli."),
}
# Reading and writing certificate JSON: the matrix codec, canonical_json, and
# cli.main's own time (which holds verify's json.load).
JSON_PART = ("gfmat.FMatrix.to_json", "gfmat.FMatrix.from_json", "serialize.canonical_json", "cli.main")


def unit_of(stat: str) -> str:
    return "s" if stat.endswith("_s") else "B" if stat == "bytes" else "count"


def layer_of(name: str) -> str:
    """First layer with a matching prefix (``lp`` claims its pricing oracle
    before ``independence`` sees the rest of that module)."""
    for layer, prefixes in LAYERS.items():
        if any(name.startswith(p) if p.endswith(".") else name == p for p in prefixes):
            return layer
    raise KeyError(name)


class Tracer:
    """In-memory span recorder.  A span is
    ``[id, parent_id, name, start, end, counts]`` with perf_counter times."""

    def __init__(self, budget_type: type):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._budget_type = budget_type

    def wrap(self, name: str, fn, stats: tuple[str, ...]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            budget = tracer._budget_arg(args, kwargs) if "nodes" in stats else None
            nodes0 = budget.nodes if budget is not None else 0
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1, name, 0.0, 0.0, {}]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            counts = span[5]
            if budget is not None:
                counts["nodes"] = budget.nodes - nodes0
            if "rows" in stats:
                counts["rows"] = len(args[0].constraints)
            if "entries" in stats:
                counts["entries"] = int(args[0].a.size)
            if "out_entries" in stats:
                counts["out_entries"] = int(result.matrix.a.size)
            if "bytes" in stats:
                counts["bytes"] = len(result)
            if "exact" in stats:
                counts["exact"] = int(bool(result.exact))
            return result

        return traced

    def _budget_arg(self, args, kwargs):
        for value in (*args, *kwargs.values()):
            if isinstance(value, self._budget_type):
                return value
        return None

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "counts"], "spans": self.spans}, fh)


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in ``TRACED``; returns the metric names wrapped."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "hfrac" or name.startswith("hfrac.")}
    wrapped = []
    for name, stats in PUBLISHED.items():
        module, qualname = name.split(".", 1)
        if qualname.endswith(".init"):
            qualname = qualname[:-len("init")] + "__init__"
        home = modules.get(f"hfrac.{module}")
        if home is None:
            continue
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, stats)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw, stats))
        else:
            original = getattr(home, qualname, None)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original, stats)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        wrapped.append(name)
    return wrapped


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-function and per-layer figures from one run's spans."""
    child_time: dict[int, float] = {}
    child_solves: dict[int, int] = {}
    for sid, parent, name, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if name == "lp.simplex_solve":
                child_solves[parent] = child_solves.get(parent, 0) + 1
    stats: dict[str, dict[str, float]] = {}
    for sid, parent, name, start, end, counts in spans:
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time.get(sid, 0.0)
        for key, value in counts.items():
            s[key] = s.get(key, 0) + value
        if name == "fraccover.fractional_clique_cover":
            s["master_solves"] = s.get("master_solves", 0) + child_solves.get(sid, 0)
    out: dict[str, float] = {}
    for name, keys in PUBLISHED.items():
        for key in keys:
            out[f"{name}.{key}"] = stats.get(name, {}).get(key, 0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(s["self_s"] for n, s in stats.items() if layer_of(n) == layer)
    out["layer.json.self_s"] = sum(stats.get(n, {}).get("self_s", 0.0) for n in JSON_PART)
    return out
