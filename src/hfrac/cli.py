"""Command-line frontend.

Subcommands: alpha | cover | fracchrom | minrank | hfrac | theta-circulant
| theta-lp | certify | verify | generate | reproduce.  Graphs are accepted
as expressions (``cycle:5``, ``strong(cycle:5,cycle:5)``, ``file:PATH``)
anywhere a graph is expected.  ``--json`` switches to canonical JSON that
is byte-identical across identical invocations.

Exit codes: 0 success, 2 verification failure, 3 budget exhausted or a
minrank search stopped at its node allowance above the search cap, with
an interval that alpha does not close (a certified interval is still
emitted), 64 usage error (a bad option, graph or path).  A closed stdout
is none of these: ``main`` flushes stdout itself, and once a write or
that flush finds the pipe closed, the rest of the output goes to
``os.devnull`` and the command keeps its own code.

Each command decides its own lower end: ``minrank`` searches alpha
first, on the same budget, and passes its size to the search as a floor.
It closes its interval at the search's rank when the search finished (or
reached the floor), and otherwise takes alpha's end, cited by its
independent set.

``verify`` handles every certificate kind through one table, ``_KINDS``:
how the kind is read, its check, and, for the kinds a bound report may
cite, the report parameters it may witness and how it attains its end.
Every kind is checked in exact arithmetic; any other kind, a float one
included, fails as unknown.  Certificates carry no graph; the commands
that write one add the ``"graph"`` expression to the document.

Each command's argument parser is built on that command's first call and
reused, so a caller that runs ``main`` in a loop pays for it once.  The
whole tree of commands (one table, ``_COMMANDS``, gives each command's
help, options and handler) is built only for an argv that names no
command, such as ``hfrac`` or ``hfrac -h``, which prints the help or a
usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .budget import BUDGET_ENV_VAR, Budget, parse_ms
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
from .graphs import DEFAULT_MAX_VERTICES, Graph, digits_value, format_graph, generate, is_prime, write_graph_file
from .independence import (CliqueCover, alpha, alpha_lower_end, clique_cover_leq, clique_cover_violation,
                           independent_set_violation)
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
from .theta import theta_circulant, theta_johnson_lp

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 64 here
        raise UsageError(message)


def _natural(text: str) -> int:
    """A command-line integer: ASCII digits only, the grammar of graph
    expression parameters and graph files (``int`` would also take a sign,
    underscores, surrounding whitespace and non-ASCII digits)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{excerpt(text)} is not an integer in ASCII digits")
    value = digits_value(text)
    if isinstance(value, str):
        raise argparse.ArgumentTypeError(f"integer {value} is over every cap")
    return value


def _milliseconds(text: str) -> float:
    """``--budget-ms``: read as ``$CAPACITY_BUDGET_MS`` is (``parse_ms``)."""
    try:
        return parse_ms(text, "--budget-ms")
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _shared_parser() -> _Parser:
    """The options every command takes, as a parent parser."""
    shared = _Parser(add_help=False)
    shared.add_argument("--json", action="store_true", help="canonical JSON output")
    shared.add_argument("--budget-ms", type=_milliseconds, default=None,
                        help=f"search budget in ms (default: ${BUDGET_ENV_VAR})")
    shared.add_argument("--max-vertices", type=_natural, default=DEFAULT_MAX_VERTICES,
                        help="vertex-count guard for generated graphs")
    return shared


def _add_options(parser: _Parser, name: str) -> _Parser:
    for flag, kwargs in _COMMANDS[name].options:
        parser.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _command_parser(name: str) -> _Parser:
    """The parser of one command: what its subparser in the whole tree
    would be, with the same prog, help and messages."""
    return _add_options(_Parser(prog=f"hfrac {name}", parents=[_shared_parser()]), name)


@functools.cache
def _build_parser() -> _Parser:
    """The whole tree of commands, for an argv that names none: it prints
    the help or the usage error."""
    parser = _Parser(prog="hfrac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_options(sub.add_parser(name, parents=[_shared_parser()], help=command.help), name)
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
    a, witness = alpha_lower_end(g, budget)
    res = minrank_exact(g, args.p, budget, a)
    witnesses: list = [res.certificate]
    lower = res.upper
    if not res.exact:
        lower = min(a, res.upper)
        witnesses.append({"kind": "independent_set", "vertices": list(witness)})
    report = BoundReport(f"minrank[gf({args.p})]", args.graph,
                         Fraction(lower), Fraction(res.upper), tuple(witnesses))
    if lower == res.upper:
        _emit(args, str(res.upper), report.to_json())
        return EXIT_OK
    why = "search budget exhausted" if budget.exhausted else \
        f"search stopped after {ATTEMPT_NODES} nodes: above the search cap"
    _emit(args, f"[{lower}, {res.upper}] ({why})", report.to_json())
    return EXIT_BUDGET


def _cmd_hfrac(args) -> int:
    g = _graph(args)
    budget = _budget(args)
    report = hfrac_upper_search(g, args.p, budget, args.max_vertices)
    human = f"[{frac_str(report.lower)}, {frac_str(report.upper)}]"
    if budget.exhausted:
        human += " (budget exhausted)"
    _emit(args, human, report.to_json())
    return EXIT_BUDGET if budget.exhausted else EXIT_OK


def _cmd_theta_circulant(args) -> int:
    try:
        connection = {_natural(tok) for tok in args.connection.split(",")}
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad connection set {excerpt(args.connection)}: {exc}") from exc
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


class _Command(NamedTuple):
    run: Callable  # the parsed arguments -> the exit code
    help: str
    options: tuple = ()  # (flag, add_argument keywords) beyond the shared ones


_GRAPH = ("--graph", {"required": True})
_P = ("--p", {"type": _natural, "required": True})
_N = ("--n", {"type": _natural, "required": True})

_COMMANDS = {
    "alpha": _Command(_cmd_alpha, "exact independence number", (_GRAPH,)),
    "cover": _Command(_cmd_cover, "partition into at most k cliques",
                      (_GRAPH, ("--k", {"type": _natural, "required": True}))),
    "fracchrom": _Command(_cmd_fracchrom, "exact fractional clique cover value", (_GRAPH,)),
    "minrank": _Command(_cmd_minrank, "minimum fit-matrix rank over GF(p)", (_GRAPH, _P)),
    "hfrac": _Command(_cmd_hfrac, "certified interval for the fractional minrank bound", (_GRAPH, _P)),
    "theta-circulant": _Command(_cmd_theta_circulant, "closed-form theta for circulants",
                                (_N, ("--connection", {"default": "1",
                                                       "help": "comma-separated offsets (default 1)"}))),
    "theta-lp": _Command(_cmd_theta_lp, "exact theta of the (p+1)-subset graph", (_P, _N)),
    "certify": _Command(_cmd_certify, "construct a certificate file", (
        ("--kind", {"required": True, "choices": ["johnson", "alon", "cover", "cycle-drep"]}),
        ("--p", {"type": _natural}),
        ("--q", {"type": _natural}),
        ("--n", {"type": _natural}),
        ("--k", {"type": _natural}),
        ("--graph", {}),
        ("--variant", {"choices": ["P", "Q", "R"]}),
        ("--modulus", {"type": _natural}),
        ("--power", {"type": _natural, "default": 1, "help": "tensor power (cycle-drep only)"}),
        ("--out", {"help": "write the certificate here instead of stdout"}),
    )),
    "verify": _Command(_cmd_verify, "re-verify a certificate file", (
        ("--cert", {"required": True}),
        ("--graph", {"help": "overrides the expression embedded in the certificate"}),
    )),
    "generate": _Command(_cmd_generate, "emit a graph in text format", (_GRAPH, ("--out", {}))),
    "reproduce": _Command(_cmd_reproduce, "run the full claim suite"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:
            name = argv[0]
            args = _command_parser(name).parse_args(argv[1:])
        else:
            args = _build_parser().parse_args(argv)
            name = args.command
        return _COMMANDS[name].run(args)
    except (UsageError, DimensionMismatch, GraphParseError, GuardExceeded, PreconditionError,
            UnsupportedFamily, OSError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    finally:
        # flushed here, where a closed stdout is caught, and not at exit,
        # where it would be a traceback on stderr and exit code 120
        _write("", end="", flush=True)


if __name__ == "__main__":
    sys.exit(main())
