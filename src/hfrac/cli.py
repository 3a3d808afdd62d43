"""Command-line frontend.

Subcommands: alpha | cover | fracchrom | minrank | hfrac | theta-circulant
| theta-lp | certify | verify | generate | reproduce.  Graphs are accepted
as expressions (``cycle:5``, ``strong(cycle:5,cycle:5)``, ``file:PATH``)
anywhere a graph is expected.  ``--json`` switches to canonical JSON that
is byte-identical across identical invocations.

Exit codes: 0 success, 2 verification failure, 3 budget exhausted or a
minrank search stopped at its node allowance above the search cap (a
certified interval is still emitted), 64 usage error (a bad option, graph
or path).  A closed stdout is none of these: ``main`` flushes stdout
itself, and once a write or that flush finds the pipe closed, the rest of
the output goes to ``os.devnull`` and the command keeps its own code.

``verify`` handles every certificate kind through one table, ``_KINDS``:
how the kind is read, its check, and, for the kinds a bound report may
cite, the report parameters it may witness and how it attains its end.
Certificates carry no graph; the commands that write one add the
``"graph"`` expression to the document.

The argument parser is built once per process, on the first ``main``
call, so a caller that runs ``main`` in a loop pays for it once.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .budget import BUDGET_ENV_VAR, Budget
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    GraphParseError,
    GuardExceeded,
    PreconditionError,
    SearchCutoff,
    UnsupportedFamily,
    VerificationError,
)
from .fraccover import FractionalCover, cover_violation, fractional_clique_cover
from .graphs import DEFAULT_MAX_VERTICES, Graph, format_graph, generate, is_prime, write_graph_file
from .independence import CliqueCover, alpha, clique_cover_leq, clique_cover_violation, independent_set_violation
from .minrank import (
    ATTEMPT_NODES,
    FitCertificate,
    alon_certificate,
    cover_certificate,
    johnson_certificate,
    minrank_exact,
)
from .report import BoundReport
from .reps import DRep, cycle_drep, drep_violation, hfrac_upper_search, tensor_dreps
from .reproduce import run_claims
from .serialize import canonical_json, excerpt, frac_str, json_pieces, load_json, parse_frac, read_ints
from .theta import OrthoRep, orthorep_violation, theta_circulant, theta_johnson_lp

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 64 here
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="hfrac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    common.add_argument("--budget-ms", type=float, default=None,
                        help=f"search budget in ms (default: ${BUDGET_ENV_VAR})")
    common.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES,
                        help="vertex-count guard for generated graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", parents=[common], help="exact independence number")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("cover", parents=[common], help="partition into at most k cliques")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("fracchrom", parents=[common], help="exact fractional clique cover value")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("minrank", parents=[common], help="minimum fit-matrix rank over GF(p)")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("hfrac", parents=[common], help="certified interval for the fractional minrank bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("theta-circulant", parents=[common], help="closed-form theta for circulants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connection", default="1", help="comma-separated offsets (default 1)")

    p = sub.add_parser("theta-lp", parents=[common], help="exact theta of the (p+1)-subset graph")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("certify", parents=[common], help="construct a certificate file")
    p.add_argument("--kind", required=True, choices=["johnson", "alon", "cover", "cycle-drep"])
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--graph")
    p.add_argument("--variant", choices=["P", "Q", "R"])
    p.add_argument("--modulus", type=int)
    p.add_argument("--power", type=int, default=1, help="tensor power (cycle-drep only)")
    p.add_argument("--out", help="write the certificate here instead of stdout")

    p = sub.add_parser("verify", parents=[common], help="re-verify a certificate file")
    p.add_argument("--cert", required=True)
    p.add_argument("--graph", help="overrides the expression embedded in the certificate")

    p = sub.add_parser("generate", parents=[common], help="emit a graph in text format")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    sub.add_parser("reproduce", parents=[common], help="run the full claim suite")

    return parser


def _budget(args) -> Budget:
    if args.budget_ms is not None:
        return Budget(ms=args.budget_ms)
    return Budget.from_env()


def _graph(args) -> Graph:
    return generate(args.graph, max_vertices=args.max_vertices)


def _write(text: str, end: str = "\n", flush: bool = False) -> None:
    """Print text on stdout.  A closed stdout (a pipe whose reader has
    gone) is no error: the rest of the output goes to ``os.devnull``, and
    the command keeps its own exit code."""
    try:
        print(text, end=end, flush=flush)
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _emit(args, human: str, payload: dict) -> None:
    _write(canonical_json(payload) if args.json else human)


def _cmd_alpha(args) -> int:
    g = _graph(args)
    try:
        a, witness = alpha(g, _budget(args))
        report = BoundReport("alpha", args.graph, Fraction(a), Fraction(a),
                             ({"kind": "independent_set", "vertices": list(witness)},))
        _emit(args, str(a), report.to_json())
        return EXIT_OK
    except SearchCutoff as cut:
        report = BoundReport("alpha", args.graph, Fraction(cut.lower), Fraction(cut.upper),
                             ({"kind": "independent_set", "vertices": list(cut.witness or ())},))
        _emit(args, f"[{cut.lower}, {cut.upper}] (budget exhausted)", report.to_json())
        return EXIT_BUDGET


def _cmd_cover(args) -> int:
    g = _graph(args)
    try:
        cover = clique_cover_leq(g, args.k, _budget(args))
    except BudgetExhausted:
        _emit(args, "budget exhausted before the search resolved", {"status": "budget-exhausted"})
        return EXIT_BUDGET
    if cover is None:
        _emit(args, f"no partition into {args.k} cliques exists", {"cover": None})
        return EXIT_OK
    _emit(args, "\n".join(" ".join(map(str, cls)) for cls in cover.classes),
          {**cover.to_json(), "graph": args.graph})
    return EXIT_OK


def _cmd_fracchrom(args) -> int:
    g = _graph(args)
    try:
        cover = fractional_clique_cover(g, _budget(args))
    except (BudgetExhausted, SearchCutoff):
        _emit(args, "budget exhausted before the LP converged", {"status": "budget-exhausted"})
        return EXIT_BUDGET
    _emit(args, frac_str(cover.value), {**cover.to_json(), "graph": args.graph})
    return EXIT_OK


def _cmd_minrank(args) -> int:
    g = _graph(args)
    budget = _budget(args)
    res = minrank_exact(g, args.p, budget)
    witnesses: list = [res.certificate]
    if not res.exact and res.alpha_witness is not None:
        witnesses.append({"kind": "independent_set", "vertices": list(res.alpha_witness)})
    report = BoundReport(f"minrank[gf({args.p})]", args.graph,
                         Fraction(res.lower), Fraction(res.upper), tuple(witnesses))
    if res.exact:
        _emit(args, str(res.upper), report.to_json())
        return EXIT_OK
    why = "search budget exhausted" if budget.exhausted else \
        f"search stopped after {ATTEMPT_NODES} nodes: above the search cap"
    _emit(args, f"[{res.lower}, {res.upper}] ({why})", report.to_json())
    return EXIT_BUDGET


def _cmd_hfrac(args) -> int:
    g = _graph(args)
    budget = _budget(args)
    report = hfrac_upper_search(g, args.p, budget=budget)
    human = f"[{frac_str(report.lower)}, {frac_str(report.upper)}]"
    if budget.exhausted:
        human += " (budget exhausted)"
    _emit(args, human, report.to_json())
    return EXIT_BUDGET if budget.exhausted else EXIT_OK


def _cmd_theta_circulant(args) -> int:
    try:
        connection = {int(tok) for tok in args.connection.split(",") if tok.strip()}
    except ValueError as exc:
        raise UsageError(f"bad connection set: {args.connection!r}") from exc
    # the eigenvalue loop takes time linear in n, so n is capped as every graph is
    if args.n > args.max_vertices:
        raise GuardExceeded(f"circulant:{args.n} would have {args.n} vertices (cap {args.max_vertices})")
    value = theta_circulant(args.n, connection)
    _emit(args, repr(value), {"param": "theta", "graph": f"circulant:{args.n}",
                              "connection": sorted(connection), "value": value})
    return EXIT_OK


def _cmd_theta_lp(args) -> int:
    value = theta_johnson_lp(args.p, args.n)
    _emit(args, frac_str(value),
          {"param": "theta", "graph": f"johnson:{args.p},{args.n}", "value": frac_str(value)})
    return EXIT_OK


def _cmd_certify(args) -> int:
    kind = args.kind
    if kind == "johnson":
        if args.p is None or args.n is None:
            raise UsageError("certify johnson needs --p and --n")
        cert, expr = johnson_certificate(args.p, args.n, args.max_vertices), f"johnson:{args.p},{args.n}"
    elif kind == "alon":
        if args.variant is None or args.p is None or args.q is None or args.n is None:
            raise UsageError("certify alon needs --variant, --p, --q, --n")
        cert = alon_certificate(args.variant, args.p, args.q, args.n, args.modulus, args.max_vertices)
        base = f"alon:{args.p},{args.q},{args.n}"
        expr = base if args.variant == "P" else f"complement({base})"
    elif kind == "cover":
        if args.graph is None or args.k is None or args.p is None:
            raise UsageError("certify cover needs --graph, --k, --p")
        g = _graph(args)
        try:
            cover = clique_cover_leq(g, args.k, _budget(args))
        except BudgetExhausted:
            _emit(args, "budget exhausted before the search resolved", {"status": "budget-exhausted"})
            return EXIT_BUDGET
        if cover is None:
            print(f"no partition into {args.k} cliques exists", file=sys.stderr)
            return EXIT_VERIFY_FAIL
        cert, expr = cover_certificate(g, cover, args.p), args.graph
    else:  # cycle-drep
        if args.k is None or args.p is None:
            raise UsageError("certify cycle-drep needs --k and --p")
        if args.power < 1:
            raise UsageError(f"--power must be >= 1, got {args.power}")
        rep = cycle_drep(args.k, args.p)
        expr = f"cycle:{2 * args.k + 1}"
        cert = rep
        for _ in range(args.power - 1):
            cert = tensor_dreps(cert, rep)
            expr = f"strong({expr},cycle:{2 * args.k + 1})"

    doc = {**cert.to_json(), "graph": expr}
    if args.out:
        # piece by piece: the text of a large certificate is never held whole
        with open(args.out, "wb") as fh:
            fh.writelines(json_pieces(doc))
            fh.write(b"\n")
        if not args.json:
            _write(f"wrote {args.out}")
    else:
        _write(canonical_json(doc))
    return EXIT_OK


class _Kind(NamedTuple):
    """How ``verify`` reads and checks one certificate kind.  A kind that a
    bound report may cite also names the report parameters it may witness
    (over GF(p) its modulus must be the report's p), the report end it
    stands for and whether it attains that end."""

    read: Callable  # the file's object -> the certificate
    violation: Callable  # (graph, certificate) -> None, or why it fails
    params: tuple[str, ...] = ()
    modulus: Callable | None = None  # certificate -> p; None for a kind that names no field
    end: str = ""  # "lower" or "upper"
    attains: Callable | None = None  # (certificate, the report's value at end) -> bool


# Every row calls its functions by their module names at call time, so a
# function rebound after import (a tracing wrapper, a test patch) is the
# one that runs.
_KINDS = {
    "fit": _Kind(lambda obj: FitCertificate.from_json(obj),
                 lambda g, cert: None if cert.check(g) else "fit certificate failed verification",
                 ("minrank", "hfrac"), lambda cert: cert.matrix.p,
                 "upper", lambda cert, upper: upper >= cert.claimed_rank),
    "drep": _Kind(lambda obj: DRep.from_json(obj), lambda g, rep: drep_violation(g, rep),
                  ("hfrac",), lambda rep: rep.matrix.p,
                  "upper", lambda rep, upper: rep.ratio() == upper),
    "independent_set": _Kind(lambda obj: read_ints(obj["vertices"], "vertices"),
                             lambda g, verts: independent_set_violation(g, verts),
                             ("alpha", "minrank", "hfrac"), None,
                             "lower", lambda verts, lower: lower <= len(verts)),
    "fraccover": _Kind(lambda obj: FractionalCover.from_json(obj), lambda g, cover: cover_violation(g, cover),
                       ("hfrac",), None,
                       "upper", lambda cover, upper: cover.value == upper),
    "cliquecover": _Kind(lambda obj: CliqueCover.from_json(obj),
                         lambda g, cover: clique_cover_violation(g, cover)),
    "orthorep": _Kind(lambda obj: OrthoRep.from_json(obj), lambda g, rep: orthorep_violation(g, rep)),
}

# Report parameters: alpha, or minrank / hfrac over GF(p).  A modulus has
# at most 24 digits, below the range where ``is_prime`` gives no answer
# (every certificate's modulus is an int64-safe prime of 10 digits or fewer).
_PARAM = re.compile(r"alpha|(minrank|hfrac)\[gf\(([1-9][0-9]{0,23})\)\]")


def _report_param(report: dict) -> tuple[str, int | None]:
    """The name and the prime (None for alpha) of the parameter a bound
    report bounds."""
    param = report["param"]
    match = _PARAM.fullmatch(param) if isinstance(param, str) else None
    if match is None:
        raise VerificationError(f"unknown report parameter {excerpt(param)}")
    if not match[1]:
        return param, None
    p = int(match[2])
    if not is_prime(p):
        raise VerificationError(f"report parameter {excerpt(param)} is over GF({p}), and {p} is not prime")
    return match[1], p


def _verify_witness(obj, g: Graph, report: dict | None = None) -> str | None:
    """None if the witness verifies (and, in a report, may witness the
    report's parameter and attains its end), else why not."""
    if not isinstance(obj, dict):
        return f"witness {excerpt(obj)} is not a JSON object"
    kind = obj.get("kind")
    row = _KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        return f"unknown certificate kind {excerpt(kind)}"
    cert = row.read(obj)
    if report is not None:
        name, p = _report_param(report)
        if name not in row.params or (row.modulus is not None and row.modulus(cert) != p):
            return f"a {kind} witness cannot certify {report['param']}"
    failure = row.violation(g, cert)
    if failure is None and report is not None and not row.attains(cert, parse_frac(report[row.end])):
        return f"{kind} witness does not attain the reported {row.end} bound"
    return failure


def _cmd_verify(args) -> int:
    expr = args.graph
    try:
        with open(args.cert, "rb") as fh:
            obj = load_json(fh)
        if not isinstance(obj, dict):
            raise VerificationError("certificate is not a JSON object")
        expr = args.graph or obj.get("graph")
        if not expr:
            raise UsageError("certificate has no embedded graph; pass --graph")
        if not isinstance(expr, str):
            raise VerificationError(f"graph must be a string, got {excerpt(expr)}")
        try:
            g = generate(expr, max_vertices=args.max_vertices)
        except (GraphParseError, PreconditionError) as exc:
            if args.graph:  # a bad --graph is a usage error, a bad embedded graph a bad file
                raise
            raise VerificationError(f"certificate graph: {exc}") from exc
        if obj.get("kind") is None and "witness_refs" in obj:  # a bound report
            _report_param(obj)  # also when no witness is cited
            refs = obj["witness_refs"]
            if not isinstance(refs, list):
                raise VerificationError("witness_refs is not a list")
            failures = [f for w in refs if (f := _verify_witness(w, g, obj))]
            if not failures and parse_frac(obj["lower"]) > parse_frac(obj["upper"]):
                failures.append(f"lower end {obj['lower']} exceeds upper end {obj['upper']}")
            failure = failures[0] if failures else None
            ok = failure is None
        else:
            failure = _verify_witness(obj, g)
            ok = failure is None
    # a certificate that is not well-formed fails; it is not a usage error
    except KeyError as exc:
        ok, failure = False, f"certificate lacks the field {exc}"
    except (DimensionMismatch, VerificationError) as exc:
        ok, failure = False, str(exc)
    if ok:
        _emit(args, "OK", {"verified": True, "graph": expr})
        return EXIT_OK
    _emit(args, f"FAIL: {failure}", {"verified": False, "graph": expr, "reason": failure})
    return EXIT_VERIFY_FAIL


def _cmd_generate(args) -> int:
    g = _graph(args)
    if args.out:
        write_graph_file(g, args.out)
        if not args.json:
            _write(f"wrote {args.out}")
    else:
        _write(format_graph(g), end="")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    results = run_claims()
    all_pass = all(r.passed for r in results)
    if args.json:
        _write(canonical_json({"all_pass": all_pass, "claims": [r.to_json() for r in results]}))
    else:
        for r in results:
            _write(r.line())
        _write(f"{sum(r.passed for r in results)}/{len(results)} claims pass")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


_HANDLERS = {
    "alpha": _cmd_alpha,
    "cover": _cmd_cover,
    "fracchrom": _cmd_fracchrom,
    "minrank": _cmd_minrank,
    "hfrac": _cmd_hfrac,
    "theta-circulant": _cmd_theta_circulant,
    "theta-lp": _cmd_theta_lp,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionMismatch, GraphParseError, GuardExceeded, PreconditionError, UnsupportedFamily) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        # flushed here, where a closed stdout is caught, and not at exit,
        # where it would be a traceback on stderr and exit code 120
        _write("", end="", flush=True)


if __name__ == "__main__":
    sys.exit(main())
