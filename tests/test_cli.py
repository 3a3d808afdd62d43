"""Command-line behavior: outputs, exit codes, JSON determinism, round trips."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from test_reps import FORGED_ENTRIES, forge_first_entry
from test_symmetry import lying_graph_truth

import hfrac
from hfrac import cli
from hfrac.cli import main
from hfrac.budget import Budget
from hfrac.errors import PreconditionError, VerificationError
from hfrac.fraccover import fractional_clique_cover
from hfrac.gfmat import KRON_ENTRY_CAP, FMatrix, rank
from hfrac.graphs import Graph, format_graph, generate, write_graph_file
from hfrac.independence import CliqueCover
from hfrac.lp import LinearProgram, simplex_solve
from hfrac.minrank import FitCertificate, graph_hash
from hfrac.reproduce import CLAIMS
from hfrac.serialize import canonical_json, load_json
from hfrac.theta import pentagon_umbrella


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alpha_plain(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "cycle:5")
    assert code == 0 and out.strip() == "2"


def _verify_report(tmp_path, capsys, out):
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and out.strip() == "OK"


def test_alpha_on_a_1200_vertex_graph_is_verified(tmp_path, capsys):
    code, out, err = run(capsys, "alpha", "--graph", "empty:1200", "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["lower"] == report["upper"] == "1200"
    assert report["witness_refs"][0]["vertices"] == list(range(1200))
    _verify_report(tmp_path, capsys, out)


def test_minrank_on_a_1200_vertex_empty_graph_is_verified(tmp_path, capsys):
    code, out, err = run(capsys, "minrank", "--graph", "empty:1200", "--p", "2", "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["lower"] == report["upper"] == "1200"
    _verify_report(tmp_path, capsys, out)


def test_minrank_deep_search_is_verified(tmp_path, capsys):
    # 1,195 isolated vertices come first, so the search descends through
    # them before it reaches the 5-cycle on the last five vertices
    n = 1200
    graph = tmp_path / "c5_plus_isolated.txt"
    edges = sorted(tuple(sorted((n - 5 + i, n - 5 + (i + 1) % 5))) for i in range(5))
    graph.write_text(f"{n} 5\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run(capsys, "minrank", "--graph", f"file:{graph}", "--p", "2", "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["lower"] == report["upper"] == "1198"
    _verify_report(tmp_path, capsys, out)


def test_theta_lp_plain(capsys):
    code, out, _ = run(capsys, "theta-lp", "--p", "2", "--n", "10")
    assert code == 0 and out.strip() == "15"


def test_fracchrom_plain(capsys):
    code, out, _ = run(capsys, "fracchrom", "--graph", "cycle:7")
    assert code == 0 and out.strip() == "7/2"


def test_theta_circulant(capsys):
    code, out, _ = run(capsys, "theta-circulant", "--n", "5")
    assert code == 0
    assert abs(float(out.strip()) - 5 ** 0.5) < 1e-9


def test_theta_circulant_is_capped_like_every_graph(capsys):
    code, _, err = run(capsys, "theta-circulant", "--n", "5001")
    assert code == 64 and "cap 5000" in err
    code, out, _ = run(capsys, "theta-circulant", "--n", "5001", "--max-vertices", "6000")
    assert code == 0 and abs(float(out) - 5001 * np.cos(np.pi / 5001) / (1 + np.cos(np.pi / 5001))) < 1e-6


@pytest.mark.parametrize("argv, expr, vertices, cap", [
    (("--kind", "johnson", "--p", "2", "--n", "12"), "johnson:2,12", 220, 100),
    (("--kind", "alon", "--variant", "P", "--p", "2", "--q", "3", "--n", "9"), "alon:2,3,9", 126, 50),
    (("--kind", "alon", "--variant", "Q", "--p", "2", "--q", "3", "--n", "9"), "alon:2,3,9", 126, 50),
])
def test_certify_johnson_and_alon_honour_the_vertex_cap(capsys, argv, expr, vertices, cap):
    code, out, err = run(capsys, "certify", *argv, "--max-vertices", str(cap))
    assert (code, out) == (64, "") and f"{expr} would have {vertices} vertices (cap {cap})" in err
    code, out, _ = run(capsys, "certify", *argv, "--max-vertices", str(vertices), "--json")
    assert code == 0 and json.loads(out)["kind"] == "fit"


def test_cycle_drep_refuses_a_composite_modulus(capsys):
    code, out, err = run(capsys, "certify", "--kind", "cycle-drep", "--k", "2", "--p", "4")
    assert (code, out) == (64, "") and "modulus 4 is not prime" in err


def test_minrank(capsys):
    code, out, _ = run(capsys, "minrank", "--graph", "cycle:5", "--p", "2")
    assert code == 0 and out.strip() == "3"


def test_hfrac_interval(capsys):
    code, out, _ = run(capsys, "hfrac", "--graph", "cycle:5", "--p", "2")
    assert code == 0 and out.strip() == "[2, 5/2]"
    # the cover is cited at any denominator, so no option caps it
    assert run(capsys, "hfrac", "--graph", "cycle:5", "--p", "2", "--dmax", "4")[0] == 64


@pytest.mark.parametrize("graph, p", [("cycle:7", "2"), ("strong(cycle:5,cycle:5)", "2"), ("johnson:2,10", "2"),
                                      ("cycle:5", "3"), ("cycle:7", "3")])
def test_hfrac_cites_the_cover_that_fracchrom_prints(tmp_path, capsys, graph, p):
    code, report, _ = run(capsys, "hfrac", "--graph", graph, "--p", p, "--json")
    assert code == 0
    cited = json.loads(report)["witness_refs"][1]
    code, out, _ = run(capsys, "fracchrom", "--graph", graph, "--json")
    assert code == 0
    printed = json.loads(out)
    del printed["graph"]
    assert canonical_json(cited) == canonical_json(printed)
    _verify_report(tmp_path, capsys, report)


def test_hfrac_leaves_out_a_tensor_above_the_entry_cap(tmp_path, capsys, monkeypatch):
    # the tensor candidate of strong(cycle:5,complete:2) has 20^2 entries;
    # a product whose tensor is above the cap (strong(cycle:33,cycle:33) at
    # 4356^2) exited 64 with "usage error: tensor certificate has ..."
    monkeypatch.setattr("hfrac.reps.KRON_ENTRY_CAP", 399)
    code, out, err = run(capsys, "hfrac", "--graph", "strong(cycle:5,complete:2)", "--p", "2", "--json")
    assert code == 0, err
    assert (json.loads(out)["lower"], json.loads(out)["upper"]) == ("2", "5/2")
    _verify_report(tmp_path, capsys, out)


def test_json_outputs_are_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "hfrac", "--graph", "cycle:7", "--p", "2", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    obj = json.loads(runs[0])
    assert obj["lower"] == "3" and obj["upper"] == "7/2"


def test_cover_and_exit_codes(capsys):
    code, out, _ = run(capsys, "cover", "--graph", "cycle:5", "--k", "3")
    assert code == 0 and len(out.strip().splitlines()) == 3
    code, out, _ = run(capsys, "cover", "--graph", "cycle:5", "--k", "2")
    assert code == 0 and "no partition" in out


def test_generate_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "generate", "--graph", "johnson:2,5", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == format_graph(generate("johnson:2,5")).encode()
    code, out, _ = run(capsys, "alpha", "--graph", f"file:{path}")
    assert code == 0


def test_certify_verify_roundtrips(tmp_path, capsys):
    cases = [
        (["certify", "--kind", "johnson", "--p", "2", "--n", "8"], None),
        (["certify", "--kind", "alon", "--variant", "P", "--p", "2", "--q", "3", "--n", "7"], None),
        (["certify", "--kind", "alon", "--variant", "Q", "--p", "2", "--q", "3", "--n", "7"], None),
        (["certify", "--kind", "cover", "--graph", "cycle:5", "--k", "3", "--p", "2"], None),
        (["certify", "--kind", "cycle-drep", "--k", "2", "--p", "2", "--power", "2"], None),
    ]
    for i, (argv, _) in enumerate(cases):
        path = tmp_path / f"cert{i}.json"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and out.strip() == "OK", (argv, out)
    # --graph overrides the embedded expression
    path = tmp_path / "cert0.json"
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--graph", "johnson:2,8")
    assert code == 0 and out.strip() == "OK"
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--graph", "cycle:5")
    assert code == 2  # certificate does not verify against the wrong graph


def test_verify_detects_corruption(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--kind", "johnson", "--p", "2", "--n", "6", "--out", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    obj["claimed_rank"] += 1
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.startswith("FAIL")
    # json.dumps puts spaces in the entries list, which the reader refuses by
    # itself; the canonical text reaches the rank check
    path.write_text(canonical_json(obj))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.strip() == "FAIL: fit certificate failed verification"


def test_verify_report_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "hfrac", "--graph", "cycle:5", "--p", "2", "--json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and out.strip() == "OK"


def test_budget_exit_code(capsys):
    code, out, _ = run(capsys, "minrank", "--graph", "strong(cycle:5,cycle:5)",
                       "--p", "2", "--budget-ms", "200")
    assert code == 3
    assert "[" in out  # an interval is still emitted


def test_minrank_says_why_its_interval_is_open(capsys, monkeypatch):
    monkeypatch.delenv("CAPACITY_BUDGET_MS", raising=False)
    # 2^(2|E|) = 2^200 is above the search cap, and the search does not
    # finish within its allowance
    assert run(capsys, "minrank", "--graph", "strong(cycle:5,cycle:5)", "--p", "2") == \
        (3, "[5, 9] (search stopped after 256 nodes: above the search cap)\n", "")
    # 2^28 is below it; the search runs 784 nodes and the clock is read at 256
    assert run(capsys, "minrank", "--graph", "complement(cycle:7)", "--p", "2", "--budget-ms", "0") == \
        (3, "[2, 3] (search budget exhausted)\n", "")


@pytest.mark.parametrize("graph, p, value", [
    ("cycle:11", 3, 6), ("cycle:13", 3, 7), ("strong(cycle:5,complete:2)", 2, 3), ("strong(cycle:7,complete:2)", 2, 4),
])
def test_minrank_above_the_search_cap_is_exact_when_the_attempt_finishes(tmp_path, capsys, graph, p, value):
    # p^(2|E|) is 3^22, 3^26, 2^50 and 2^70: each above the cap, each
    # search finishing in under 100 nodes
    assert run(capsys, "minrank", "--graph", graph, "--p", str(p)) == (0, f"{value}\n", "")
    code, out, _ = run(capsys, "minrank", "--graph", graph, "--p", str(p), "--json")
    report = json.loads(out)
    assert code == 0 and report["lower"] == report["upper"] == str(value)
    assert [w["kind"] for w in report["witness_refs"]] == ["fit"]
    _verify_report(tmp_path, capsys, out)


def test_a_graph_without_vertices_has_no_fit_certificate(tmp_path, capsys):
    graph = tmp_path / "none.txt"
    graph.write_text("0 0\n")
    message = "usage error: a fit certificate needs a graph with at least one vertex\n"
    cover = ("certify", "--kind", "cover", "--k", "1", "--p", "2")
    for argv in (("minrank", "--p", "2"), ("hfrac", "--p", "2"), cover):
        assert run(capsys, *argv, "--graph", f"file:{graph}") == (64, "", message), argv
    # the parameters that need no certificate are 0
    for argv in (("alpha",), ("fracchrom",)):
        assert run(capsys, *argv, "--graph", f"file:{graph}") == (0, "0\n", ""), argv


def file_copy(tmp_path, expr: str) -> str:
    """A ``file:`` expression for the graph of ``expr``: the same matrix,
    with no automorphisms named, so the searches and the cover master run
    in full."""
    path = tmp_path / "copy.txt"
    write_graph_file(generate(expr), str(path))
    return f"file:{path}"


def test_budgeted_hfrac_exits_3_with_a_verified_report(tmp_path, capsys):
    # johnson:2,10 itself finishes within the budget, by its orbit cover
    code, out, err = run(capsys, "hfrac", "--graph", file_copy(tmp_path, "johnson:2,10"), "--p", "2",
                         "--budget-ms", "500", "--json")
    assert code == 3, err
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and out.strip() == "OK"


def test_budgeted_certify_cover_exits_3_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "cert.json"
    args = ("certify", "--kind", "cover", "--graph", "strong(cycle:7,cycle:7)", "--k", "14", "--p", "2",
            "--budget-ms", "0", "--out", str(path))
    assert run(capsys, *args) == (3, "budget exhausted before the search resolved\n", "")
    assert run(capsys, *args, "--json") == (3, '{"status":"budget-exhausted"}\n', "")
    assert not path.exists()


def test_usage_errors_are_64(tmp_path, capsys):
    assert run(capsys, "alpha", "--graph", "nonsense:5")[0] == 64
    assert run(capsys, "alpha", "--graph", "cycle:x")[0] == 64
    assert run(capsys, "theta-circulant", "--n", "7", "--connection", "1,2")[0] == 64
    assert run(capsys, "certify", "--kind", "johnson")[0] == 64
    # a modulus too large for int64 elimination is refused up front
    assert run(capsys, "minrank", "--graph", "cycle:5", "--p", "3037000507")[0] == 64
    # each of these ended in a traceback (exit 1): ValueError for k < 1,
    # ZeroDivisionError for n = 0, ValueError (an empty max) for n < 0
    assert run(capsys, "cover", "--graph", "cycle:5", "--k", "0")[0] == 64
    assert run(capsys, "cover", "--graph", "cycle:5", "--k", "-1")[0] == 64
    assert run(capsys, "theta-circulant", "--n", "0")[0] == 64
    assert run(capsys, "theta-circulant", "--n", "-3")[0] == 64
    # a tensor power below 1 wrote the power-1 certificate and exited 0
    assert run(capsys, "certify", "--kind", "cycle-drep", "--k", "2", "--p", "2", "--power", "0")[0] == 64
    # a directory where a file belongs ended in an IsADirectoryError traceback
    assert run(capsys, "verify", "--cert", str(tmp_path))[0] == 64
    assert run(capsys, "certify", "--kind", "johnson", "--p", "2", "--n", "6", "--out", str(tmp_path))[0] == 64
    # theta-lp took any p (printing 5, 12 and 15 with exit 0), while the
    # johnson family it solves refuses a p that is not prime
    assert run(capsys, "theta-lp", "--p", "0", "--n", "5")[0] == 64
    assert run(capsys, "theta-lp", "--p", "4", "--n", "12")[0] == 64
    assert run(capsys, "theta-lp", "--p", "1", "--n", "6")[0] == 64


def test_huge_inputs_are_refused_quickly(tmp_path, capsys):
    start = time.perf_counter()
    # the Mersenne prime 2^61 - 1: decided prime, then refused for int64
    assert run(capsys, "minrank", "--graph", "cycle:5", "--p", "2305843009213693951")[0] == 64
    huge = tmp_path / "huge.txt"
    huge.write_text("100000000 0\n")
    assert run(capsys, "alpha", "--graph", f"file:{huge}")[0] == 64
    assert time.perf_counter() - start < 10
    small = tmp_path / "small.txt"
    small.write_text("6000 0\n")
    assert run(capsys, "alpha", "--graph", f"file:{small}")[0] == 64
    code, out, _ = run(capsys, "alpha", "--graph", f"file:{small}", "--max-vertices", "6000")
    assert code == 0 and out.strip() == "6000"


# SHA-256 of ``reproduce --json``: the claim suite's bytes stay the same
# through every refactor.
REPRODUCE_SHA256 = "36cae7756a49475adcbe63e2e07f7448181bd91405687e79e44d4f81f9a109db"


def test_reproduce(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_SHA256
    obj = json.loads(out)
    assert obj["all_pass"] is True and all(c["pass"] for c in obj["claims"])
    assert [c["id"] for c in obj["claims"]] == [c.id for c in CLAIMS]
    # identical invocation, identical bytes
    assert run(capsys, "reproduce", "--json") == (0, out, "")
    # the suite has no seed and no subset to pick
    assert run(capsys, "reproduce", "--quick")[0] == 64
    assert run(capsys, "reproduce", "--seed", "1")[0] == 64


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CAPACITY_BUDGET_MS", "200")
    code, out, _ = run(capsys, "minrank", "--graph", "strong(cycle:5,cycle:5)", "--p", "2")
    assert code == 3 and "[" in out
    monkeypatch.setenv("CAPACITY_BUDGET_MS", "abc")  # ended in a ValueError traceback (exit 1)
    assert run(capsys, "alpha", "--graph", "cycle:5")[0] == 64


@pytest.mark.parametrize("ms", ["nan", "-5", "-0.5"])
def test_a_nan_or_negative_time_budget_is_a_usage_error(capsys, monkeypatch, ms):
    # a NaN budget compared false against the clock, so it never tripped
    monkeypatch.delenv("CAPACITY_BUDGET_MS", raising=False)
    code, out, err = run(capsys, "alpha", "--graph", "cycle:5", "--budget-ms", ms)
    assert (code, out) == (64, "") and "time budget must be a nonnegative number" in err
    monkeypatch.setenv("CAPACITY_BUDGET_MS", ms)
    assert run(capsys, "alpha", "--graph", "cycle:5")[:2] == (64, "")
    for ok in ("0", "inf"):
        assert run(capsys, "alpha", "--graph", "cycle:5", "--budget-ms", ok)[0] in (0, 3)


def test_a_budget_refuses_limits_it_could_not_keep():
    for limits in ({"ms": float("nan")}, {"ms": float("-inf")}, {"ms": -1}, {"nodes": -1}):
        with pytest.raises(PreconditionError):
            Budget(**limits)
    assert Budget(ms=0, nodes=0).ms == 0 and Budget(ms=float("inf")).ms == float("inf")


def test_a_graph_file_with_an_odd_integer_count_names_both_counts(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 1 5\n")
    code, out, err = run(capsys, "alpha", "--graph", f"file:{path}")
    assert (code, out) == (64, "")
    assert err == "usage error: expected 1 edges (4 integers), found 5 integers\n"


def _cycle_drep_file(tmp_path, capsys) -> str:
    path = tmp_path / "c5.json"
    code, _, _ = run(capsys, "certify", "--kind", "cycle-drep", "--k", "2", "--p", "2", "--out", str(path))
    assert code == 0
    return path.read_text()


@pytest.mark.parametrize("value", [*FORGED_ENTRIES, None])
def test_verify_refuses_malformed_entries(tmp_path, capsys, value):
    # 1.5, true, "1" and -1 were read as 1 (and the file verified), the
    # nested list, null and 2^70 ended in a traceback
    text = _cycle_drep_file(tmp_path, capsys)
    assert text.count('"entries":[1,') == 1
    path = tmp_path / "forged.json"
    path.write_text(forge_first_entry(text, '"entries":[', value))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.startswith("FAIL: "), (out, err)
    assert "Traceback" not in err


def test_verify_refuses_a_truncated_file(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"kind":"drep","graph":"cycle:5"')
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.startswith("FAIL: not a JSON document")


def test_verify_refuses_a_certificate_without_d(tmp_path, capsys):
    text = _cycle_drep_file(tmp_path, capsys)
    path = tmp_path / "no_d.json"
    path.write_text(text.replace('"d":2,', "", 1))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.strip() == "FAIL: certificate lacks the field 'd'"


def test_universal_graph_is_refused_before_enumeration(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "generate", "--graph", "universal:2,11,1")
    assert code == 64 and "2096128 vertices" in err
    assert time.perf_counter() - start < 1.0


def test_main_calls_in_one_process_do_not_leak_options(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CAPACITY_BUDGET_MS", raising=False)
    square, plain = tmp_path / "square.json", tmp_path / "plain.json"
    drep = ("certify", "--kind", "cycle-drep", "--k", "2", "--p", "2")
    assert run(capsys, *drep, "--power", "2", "--out", str(square))[0] == 0
    assert run(capsys, *drep, "--out", str(plain))[0] == 0
    assert json.loads(plain.read_text())["graph"] == "cycle:5"  # --power back to 1

    assert run(capsys, "verify", "--cert", str(plain), "--graph", "cycle:7", "--json")[0] == 2
    code, out, _ = run(capsys, "verify", "--cert", str(plain))
    assert code == 0 and out.strip() == "OK"  # the embedded graph again, and no --json

    # 1,179 search nodes (johnson:2,9 itself takes 121, below the first clock read at 256)
    alpha = ("alpha", "--graph", file_copy(tmp_path, "johnson:2,9"))
    assert run(capsys, *alpha, "--budget-ms", "0")[0] == 3
    assert run(capsys, *alpha)[0] == 0  # no budget left over
    monkeypatch.setenv("CAPACITY_BUDGET_MS", "0")
    assert run(capsys, *alpha)[0] == 3
    assert run(capsys, *alpha, "--budget-ms", "60000")[0] == 0


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert run(capsys, "alpha", "--graph", "cycle:5")[0] == 0
    first = len(built)
    assert first > 1  # the top parser, the shared options and each subcommand
    assert run(capsys, "fracchrom", "--graph", "cycle:7")[0] == 0
    assert run(capsys, "alpha", "--graph", "nonsense:5")[0] == 64
    assert len(built) == first


def _singleton_cover(g):
    return CliqueCover(tuple((v,) for v in range(g.n)))


# Each exact gate: a command that reaches it, and the checker patches that
# make the gate reject.  ``{tmp}/cycle5.txt`` is a file copy of cycle:5,
# which names no automorphisms, so fracchrom solves it by the master; on
# cycle:5 itself fracchrom takes the orbit cover and its gate.  The minrank search's final gate is reached by
# starting it from the singleton cover, so that it finds a better matrix
# after the incumbent's own fit check passed.  The ``*_rank`` gates check
# what the rank kernel returns, so a lying ``rank`` must make them reject.
EXACT_GATES = {
    "simplex_solve": (["theta-lp", "--p", "2", "--n", "8"],
                      [("hfrac.lp.check_solution", {"return_value": False})]),
    "cover_certificate": (["minrank", "--graph", "cycle:5", "--p", "2"],
                          [("hfrac.minrank.fit_violation", {"return_value": "planted defect"})]),
    "minrank_exact": (["minrank", "--graph", "cycle:5", "--p", "2"],
                      [("hfrac.minrank.greedy_clique_cover", {"side_effect": _singleton_cover}),
                       ("hfrac.minrank.fit_violation", {"side_effect": [None, "planted defect"]})]),
    "cover_certificate_rank": (["certify", "--kind", "cover", "--graph", "cycle:5", "--k", "3", "--p", "2"],
                               [("hfrac.minrank.rank", {"return_value": 2})]),
    "johnson_certificate_rank": (["certify", "--kind", "johnson", "--p", "2", "--n", "8"],
                                 [("hfrac.minrank.rank", {"return_value": 9})]),
    "alon_certificate_rank": (["certify", "--kind", "alon", "--variant", "P", "--p", "2", "--q", "3", "--n", "7"],
                              [("hfrac.minrank.rank", {"return_value": 10**6})]),
    "fractional_clique_cover_lp": (["fracchrom", "--graph", "file:{tmp}/cycle5.txt"],
                                   [("hfrac.fraccover._certifies_optimum", {"return_value": False})]),
    "fractional_clique_cover_cover": (["fracchrom", "--graph", "file:{tmp}/cycle5.txt"],
                                      [("hfrac.fraccover.cover_violation", {"return_value": "planted defect"})]),
    "fractional_clique_cover_orbit": (["fracchrom", "--graph", "cycle:5"],
                                      [("hfrac.fraccover.cover_violation", {"return_value": "planted defect"})]),
}


def exact_gate_exit(gate: str) -> tuple[int, str]:
    """Exit code and stderr of the gate's command with its checker patched."""
    argv, patches = EXACT_GATES[gate]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        write_graph_file(generate("cycle:5"), os.path.join(tmp, "cycle5.txt"))
        for target, kwargs in patches:
            stack.enter_context(mock.patch(target, **kwargs))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp=tmp) for arg in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("gate", EXACT_GATES)
def test_a_rejecting_exact_gate_exits_2(gate):
    code, err = exact_gate_exit(gate)
    assert code == 2 and err.startswith("verification failure: internal error"), err


def phase_one_gate_error() -> str:
    """What simplex_solve raises on an LP that needs phase 1 (a >= row with
    a nonnegative right-hand side) when phase 1 stops short of an optimum."""
    lp = LinearProgram((Fraction(1),), (({0: Fraction(1)}, ">=", Fraction(0)),))
    with mock.patch("hfrac.lp.IntegerSimplex._optimize", return_value=False):
        try:
            simplex_solve(lp)
        except VerificationError as exc:
            return str(exc)
    return ""


def test_a_phase_one_that_stops_short_is_an_internal_error():
    assert phase_one_gate_error().startswith("internal error: phase 1")


def test_exact_gates_hold_under_python_O():
    # assert statements are stripped under -O; the gates must not be, nor
    # the automorphism check that keeps a lying expression from cutting
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfrac.__file__)))
    code = ("import sys; from test_cli import EXACT_GATES, exact_gate_exit, phase_one_gate_error; "
            "from test_symmetry import lying_graph_answers; "
            "print(sys.flags.optimize, *(exact_gate_exit(g)[0] for g in EXACT_GATES), "
            "phase_one_gate_error().startswith('internal error: phase 1'), *lying_graph_answers())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.stdout.split() == ["1", *["2"] * len(EXACT_GATES), "True", *map(str, lying_graph_truth())], \
        proc.stderr


@pytest.mark.parametrize("old, new", [
    ('"p":2,', '"p":"2",'),
    ('"d":2,', '"d":2.0,'),
    ('"p":2,', '"p":true,'),
    ('"rows":10}', '"rows":"10"}'),
    ('"p":2,', '"p":4,'),  # the file's modulus is at fault, not the command line
    ('"p":2,', '"p":3037000507,'),
])
def test_verify_refuses_malformed_scalars(tmp_path, capsys, old, new):
    # "p":"2" and "d":2.0 were coerced and printed OK; "p":4 exited 64
    text = _cycle_drep_file(tmp_path, capsys)
    assert text.count(old) == 1
    path = tmp_path / "forged.json"
    path.write_text(text.replace(old, new))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.startswith("FAIL: "), (out, err)


@pytest.mark.parametrize("field, value", [
    ("witness_refs", [5]),
    ("witness_refs", 5),
    ("lower", "two"),
    ("upper", None),
    ("vertices", ["0", "2"]),
])
def test_verify_refuses_a_malformed_report(tmp_path, capsys, field, value):
    # a non-object witness ended in an AttributeError traceback, a
    # non-rational bound in a ValueError one, a string vertex in a TypeError
    code, out, _ = run(capsys, "hfrac", "--graph", "cycle:5", "--p", "2", "--json")
    assert code == 0
    report = json.loads(out)
    lower_witness = report["witness_refs"][0]
    assert lower_witness["kind"] == "independent_set"
    (lower_witness if field == "vertices" else report)[field] = value
    path = tmp_path / "forged.json"
    path.write_text(canonical_json(report))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.startswith("FAIL: "), (out, err)


@pytest.mark.parametrize("fields, reason", [
    ({"param": "bogus"}, "unknown report parameter 'bogus'"),
    ({}, "certificate lacks the field 'param'"),
    ({"param": "alpha", "lower": "3", "upper": "1/2"}, "lower end 3 exceeds upper end 1/2"),
])
def test_verify_checks_a_report_without_witnesses(tmp_path, capsys, fields, reason):
    # the first two printed OK, the third "FAIL: None" with a null reason
    report = {"graph": "cycle:5", "lower": "0", "upper": "0", "witness_refs": [], **fields}
    path = tmp_path / "report.json"
    path.write_text(canonical_json(report))
    assert run(capsys, "verify", "--cert", str(path)) == (2, f"FAIL: {reason}\n", "")
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--json")
    assert code == 2 and json.loads(out) == {"graph": "cycle:5", "reason": reason, "verified": False}


@pytest.mark.parametrize("param, reason", [
    ("minrank[gf(1)]", "report parameter 'minrank[gf(1)]' is over GF(1), and 1 is not prime"),
    ("hfrac[gf(4)]", "report parameter 'hfrac[gf(4)]' is over GF(4), and 4 is not prime"),
    ("minrank[gf(9)]", "report parameter 'minrank[gf(9)]' is over GF(9), and 9 is not prime"),
    ("hfrac[gf(2)]", None),
    # 25 digits: int() of a 5,000-digit modulus was a ValueError traceback
    ("minrank[gf(1" + "0" * 24 + ")]", "unknown report parameter 'minrank[gf(1" + "0" * 24 + ")]'"),
])
def test_verify_refuses_a_report_over_a_modulus_that_is_not_prime(tmp_path, capsys, param, reason):
    # the first three printed {"graph":"cycle:5","verified":true}
    report = {"graph": "cycle:5", "lower": "2", "upper": "3", "param": param,
              "witness_refs": [{"kind": "independent_set", "vertices": [0, 2]}]}
    path = tmp_path / "report.json"
    path.write_text(canonical_json(report))
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--json")
    if reason is None:
        assert (code, json.loads(out)) == (0, {"graph": "cycle:5", "verified": True})
    else:
        assert (code, json.loads(out)) == (2, {"graph": "cycle:5", "reason": reason, "verified": False})


def test_a_bad_graph_on_the_command_line_stays_a_usage_error(tmp_path, capsys):
    path = tmp_path / "c5.json"
    path.write_text(_cycle_drep_file(tmp_path, capsys))
    assert run(capsys, "verify", "--cert", str(path), "--graph", "nonsense:5")[0] == 64
    code, _, err = run(capsys, "verify", "--cert", str(path), "--graph", "cycle:2")
    assert (code, err) == (64, "usage error: cycle needs k >= 3, got 2\n")


@pytest.mark.parametrize("graph, reason", [
    ("cycle:2", "cycle needs k >= 3, got 2"),
    ("johnson:4,8", "p=4 is not prime"),
])
def test_verify_fails_a_certificate_that_names_an_invalid_graph(tmp_path, capsys, graph, reason):
    # both exited 64 with "usage error: ...", although the file is at fault
    doc = json.loads(_cycle_drep_file(tmp_path, capsys))
    doc["graph"] = graph
    path = tmp_path / "forged.json"
    path.write_text(canonical_json(doc))
    assert run(capsys, "verify", "--cert", str(path)) == (2, f"FAIL: certificate graph: {reason}\n", "")


def test_an_embedded_graph_above_the_vertex_guard_stays_a_usage_error(tmp_path, capsys):
    # --max-vertices lifts the guard, so the command line is at fault
    doc = json.loads(_cycle_drep_file(tmp_path, capsys))
    doc["graph"] = "cycle:6000"
    path = tmp_path / "big.json"
    path.write_text(canonical_json(doc))
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == 64 and err.startswith("usage error: cycle would have 6000 vertices")
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--max-vertices", "6000")
    assert code == 2 and out.startswith("FAIL: ")


def _set(keys, value):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _as_hfrac_upper_witness(doc):
    """Replace a certificate of cycle:5 by an hfrac[gf(2)] report that
    claims [2, 2] with the certificate as its upper witness."""
    cert = dict(doc)
    doc.clear()
    doc.update({"param": "hfrac[gf(2)]", "graph": "cycle:5", "lower": "2", "upper": "2",
                "witness_refs": [{"kind": "independent_set", "vertices": [0, 2]}, cert]})


@pytest.mark.parametrize("argv, edit", [
    (("alpha", "--graph", "cycle:5"), _set(("witness_refs", 0, "vertices"), [0, 99])),
    (("fracchrom", "--graph", "cycle:5"), _set(("graph",), 5)),
    (("fracchrom", "--graph", "cycle:5"), _set(("graph",), "nonsense:5")),
    (("fracchrom", "--graph", "cycle:5"), _set(("classes",), 3)),
    (("fracchrom", "--graph", "cycle:5"), _set(("classes", 0), 7)),
    (("fracchrom", "--graph", "cycle:5"), _set(("classes", 0, "clique"), [0, 99])),
    (("cover", "--graph", "cycle:5", "--k", "3"), _set(("classes", 0), [0, 99])),
    (("cover", "--graph", "cycle:5", "--k", "3"), _set(("classes",), 3)),
    (("alpha", "--graph", "cycle:5"), _set(("witness_refs", 0, "vertices"), [0, 0])),
    (("minrank", "--graph", "cycle:7", "--p", "3"), _set(("param",), "alpha")),
    (("minrank", "--graph", "cycle:7", "--p", "3"), _set(("param",), "minrank[gf(2)]")),
    (("fracchrom", "--graph", "cycle:5"), _as_hfrac_upper_witness),
    (("fracchrom", "--graph", "cycle:5"), _set(("classes", 0, "clique"), [0, 0, 1])),
], ids=["independent-set-vertex", "graph-not-a-string", "graph-unparsable", "classes-not-a-list",
        "class-not-an-object", "fraccover-clique-vertex", "cliquecover-vertex", "cliquecover-classes",
        "independent-set-repeated-vertex", "fit-cited-for-alpha", "fit-cited-over-another-field",
        "fraccover-cited-for-hfrac", "fraccover-repeated-vertex"])
def test_verify_refuses_a_malformed_witness(tmp_path, capsys, argv, edit):
    # the first eight ended in a traceback (exit 1): ValueError for a vertex
    # out of range, AttributeError for a non-string graph, TypeError for the
    # rest.  The last five printed OK: the set {0, 0} passed for
    # alpha(C5) >= 2, a GF(3) fit certificate of rank 4 for alpha(C7) = 4
    # (alpha is 3) and for minrank over GF(2), the 5/2 fractional cover
    # for an hfrac upper end of 2 (a cover may witness hfrac's upper end,
    # but this one does not attain 2), and a cover class listing vertex 0
    # twice.
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    edit(doc)
    path = tmp_path / "forged.json"
    path.write_text(canonical_json(doc))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out.startswith("FAIL: "), (out, err)


@pytest.mark.parametrize("param, graph, upper, reason", [
    ("hfrac[gf(2)]", "cycle:5", "5/2", None),
    ("hfrac[gf(3)]", "cycle:5", "5/2", None),  # the cover names no field: it bounds hfrac over every one
    ("hfrac[gf(2)]", "cycle:5", "2", "fraccover witness does not attain the reported upper bound"),
    ("hfrac[gf(2)]", "cycle:5", "3", "fraccover witness does not attain the reported upper bound"),
    ("alpha", "cycle:5", "5/2", "a fraccover witness cannot certify alpha"),
    ("minrank[gf(2)]", "cycle:5", "5/2", "a fraccover witness cannot certify minrank[gf(2)]"),
    ("hfrac[gf(2)]", "cycle:7", "5/2", "class 1 is not a clique: [0, 4]"),  # cycle:5's cover
])
def test_verify_takes_a_cover_for_the_hfrac_upper_end_alone(tmp_path, capsys, param, graph, upper, reason):
    code, out, _ = run(capsys, "fracchrom", "--graph", "cycle:5", "--json")
    assert code == 0
    cover = json.loads(out)
    del cover["graph"]
    path = tmp_path / "report.json"
    path.write_text(canonical_json({"param": param, "graph": graph, "lower": "2", "upper": upper,
                                    "witness_refs": [{"kind": "independent_set", "vertices": [0, 2]}, cover]}))
    want = (0, "OK\n", "") if reason is None else (2, f"FAIL: {reason}\n", "")
    assert run(capsys, "verify", "--cert", str(path)) == want


# SHA-256 of ``certify --out`` files as written before GF(2) elimination
# moved to packed rows and tensoring to one broadcast multiply: the
# certificate bytes must not depend on the kernels that build them.
PINNED_CERTIFICATES = [
    (("--kind", "cycle-drep", "--k", "2", "--power", "3", "--p", "2"),
     "e2c909cc704e120111e38b9e5dc3fa46bf6a0baefbe8ca63a72273e323f9ee64"),
    (("--kind", "cycle-drep", "--k", "2", "--power", "3", "--p", "3"),
     "d34b6d38193e387e576f3056e76faf00ded1e32e610ead2aef5063beb45eb798"),
    (("--kind", "johnson", "--p", "2", "--n", "12"),
     "267e4537551afd3ab49a42bdb7d3c19c908bcd814f675452643f44ecb4fd6412"),
    (("--kind", "cover", "--graph", "cycle:7", "--k", "4", "--p", "2"),
     "52ada4f84a6ea673e49b64fb314b038e45b6083f7f3a7fcab588bac36bb76f6f"),
    (("--kind", "cover", "--graph", "strong(cycle:5,complete:2)", "--k", "5", "--p", "3"),
     "eced2b131c44ec944ac0f72fb1b95bd7f0725b86590f1a420141a676013f8bf6"),
    # as written while every certificate's to_json still took the graph
    (("--kind", "alon", "--variant", "P", "--p", "2", "--q", "3", "--n", "7"),
     "ad8df308b01ddbc820f0c896f8a4a621274535c9b016a805d4e5cc3f367c0e68"),
    # as written while Alon's polynomials were evaluated one entry at a
    # time; the last one's entries include 11 and 12, so reading it back
    # goes through the general (multi-digit) decode
    (("--kind", "alon", "--variant", "Q", "--p", "2", "--q", "3", "--n", "8"),
     "904000c11f320521eda1fe02abeb0ca82279ac919de9aa95f3375fea1bcfb9b5"),
    (("--kind", "alon", "--variant", "R", "--p", "2", "--q", "2", "--n", "8"),
     "ebdc653b77e904007249a4b6db23265b1c35549a5883b528cc15af839e2af290"),
    (("--kind", "alon", "--variant", "P", "--p", "3", "--q", "2", "--n", "8"),
     "d10ace960c4f80e0261173144a8d6215e4009cc799a776b39dfb5de451cc2ca6"),
    (("--kind", "alon", "--variant", "R", "--p", "3", "--q", "3", "--n", "9"),
     "e47c35bb7634d877e29696402c49db08361552f3422802b6667d11cd26ea6eb1"),
    (("--kind", "alon", "--variant", "R", "--p", "2", "--q", "2", "--n", "7", "--modulus", "23"),
     "cf69c2923816ee5b16f3530674f98fbb642df41cca1b8a3d5fa0c338f5bf48a6"),
    # as written while the intersection counts were an integer product and
    # the digits were written in int64; the last is 15,059,186 bytes
    (("--kind", "johnson", "--p", "2", "--n", "18"),
     "dafeae1f0f4e5ff9c86ff340a4af2647fb735fbf145e1982585a05ed43829059"),
    (("--kind", "johnson", "--p", "3", "--n", "12"),
     "aec1d5d2e0e81ccf2748642d202283c5f049f0173886851307d7470feff7283a"),
    (("--kind", "cycle-drep", "--k", "3", "--power", "3", "--p", "2"),
     "20cdcd8d39d32a94b262e2de13d5577374ecaa0150daa7eb21bcdab06a43daf7"),
]


@pytest.mark.parametrize("args, sha256", PINNED_CERTIFICATES)
def test_certificate_bytes_are_pinned(tmp_path, capsys, args, sha256):
    path = tmp_path / "cert.json"
    assert run(capsys, "certify", *args, "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# one certificate of every kind, the last over GF(5) with two-digit entries
CERTIFY_KINDS = [
    ("--kind", "johnson", "--p", "3", "--n", "8"),
    ("--kind", "alon", "--variant", "R", "--p", "2", "--q", "2", "--n", "7"),
    ("--kind", "cover", "--graph", "strong(cycle:5,complete:2)", "--k", "5", "--p", "3"),
    ("--kind", "cycle-drep", "--k", "2", "--power", "2", "--p", "3"),
    ("--kind", "alon", "--variant", "Q", "--p", "2", "--q", "3", "--n", "8"),
]


@pytest.mark.parametrize("args", CERTIFY_KINDS)
def test_certificate_file_is_the_printed_document(tmp_path, capsys, args):
    # the file is written piece by piece, stdout from canonical_json
    path = tmp_path / "cert.json"
    code, printed, _ = run(capsys, "certify", *args)
    assert code == 0
    assert run(capsys, "certify", *args, "--out", str(path)) == (0, f"wrote {path}\n", "")
    assert path.read_bytes() == printed.encode("ascii")


@pytest.mark.parametrize("p, rows, decoded", [
    # one-digit text (decoded as its uint8 digits), two-byte storage
    (257, [[1, 2, 3], [4, 1, 5], [6, 7, 1]], np.uint8),
    (11, [[1, 10, 3], [4, 1, 5], [6, 7, 1]], np.int64),  # a two-digit entry
])
def test_fit_certificates_over_wider_fields_round_trip(tmp_path, capsys, p, rows, decoded):
    g = generate("complete:3")
    m = FMatrix(p, rows)
    doc = {**FitCertificate(graph_hash(g), m, rank(m)).to_json(), "graph": "complete:3"}
    path = tmp_path / "fit.json"
    path.write_text(canonical_json(doc))
    obj = load_json(path.read_bytes())
    assert obj["entries"].dtype == decoded
    back = FMatrix.from_json(obj)
    assert back == m and back.a.dtype == np.min_scalar_type(p - 1)
    assert run(capsys, "verify", "--cert", str(path)) == (0, "OK\n", "")


@pytest.mark.parametrize("k", [2, 3])
def test_a_tensor_power_above_the_entry_cap_exits_64(tmp_path, capsys, k):
    # 10,000^2 and 38,416^2 entries; certify builds no product graph, so
    # --max-vertices does not stop them
    path = tmp_path / "cert.json"
    code, out, err = run(capsys, "certify", "--kind", "cycle-drep", "--k", str(k), "--power", "4", "--p", "2",
                         "--out", str(path))
    assert (code, out) == (64, "")
    assert f"(cap {KRON_ENTRY_CAP})" in err
    assert not path.exists()


def test_the_largest_certificate_stays_in_its_memory_budget(tmp_path, capsys):
    # the 2744 x 2744 certificate of C7^3: certify holds its entries once
    # (one byte each) and never its text whole; verify holds the decoded
    # entries and one block of the file
    entries = 2744 * 2744
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        assert main(["certify", "--kind", "cycle-drep", "--k", "3", "--power", "3", "--p", "2",
                     "--out", str(path)]) == 0
        certify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["verify", "--cert", str(path)]) == 0
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"wrote {path}\nOK\n"
    assert certify_peak < 2 * entries
    assert verify_peak < 1.5 * entries


def test_a_digit_run_too_long_for_a_field_is_refused_without_reading_it_whole(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_bytes(b'{"cols":2000,"d":1,"entries":[' + b"1" * 4_000_000
                     + b'],"graph":"cycle:5","kind":"drep","p":2,"rows":2000}\n')
    tracemalloc.start()
    try:
        code = main(["verify", "--cert", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (2, "FAIL: an entry has more than 18 digits\n")
    assert peak < path.stat().st_size / 2


def test_verify_reads_a_certificate_from_a_pipe(tmp_path, capsys):
    # a pipe has no size: a reader that sized its buffers from fstat would
    # read nothing from it
    path = tmp_path / "cert.json"
    assert main(["certify", "--kind", "johnson", "--p", "2", "--n", "12", "--out", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfrac.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hfrac.cli", "verify", "--cert", "/dev/stdin"],
                          input=path.read_bytes(), capture_output=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"OK\n", b"")


def test_generated_graph_text_is_pinned(capsys):
    # 364 vertices: the edge lines hold ids of 1 to 3 digits, some above 255
    code, out, _ = run(capsys, "generate", "--graph", "johnson:2,14")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "ff7678cba15ace856d55a869b88a84073f86c80a991254317a39b84470e77260"


# SHA-256 of ``--json`` reports as printed while column generation still
# priced Fraction duals: the covers must not depend on the arithmetic of
# the loop that finds them.  (cycle:9 and the other vertex-transitive
# graphs here now take the orbit cover, which prints the same bytes.)
PINNED_REPORTS = [
    (("fracchrom", "--graph", "cycle:9"),
     "fe57818d6b3c5fb44a6c8dd2a2b1cbe7fbcbc7e65617058605b807a2db3f2f6f"),
    # orbit covers: 30 cliques of size 4 at weight 1/6, and 25 at 1/4
    (("fracchrom", "--graph", "johnson:2,6"),
     "11b0fe79e5fa926bb00d13d4db1f9dfa8060bc098fd95ff5f76ea41bc8734eb1"),
    (("fracchrom", "--graph", "lex(cycle:5,cycle:5)"),
     "d9656e6a198eeeb693e66d08a959ce5dbaba858333c21962e6410b2efe48aa39"),
    (("fracchrom", "--graph", "strong(cycle:5,complete:3)"),
     "11a7e9cfeb99e1e63249ad428f398acaf7578f4f1dfc74e5a73b65b5e3f4edbd"),
    (("fracchrom", "--graph", "complement(cycle:11)"),
     "8925db212b74392af789d70fbf34c14aa5db1778754cd0546a4e345bd42e764d"),
    # as printed once the cover itself, not its d = 4 blow-up, witnessed
    # the upper end; the cited cover is the one fracchrom prints
    (("hfrac", "--graph", "strong(cycle:5,cycle:5)", "--p", "2"),
     "4f12b9d183fc4164ddc3b475bdd28e6d1f159a19a1d1bba84c542cbaf4e753f1"),
    # as printed while every certificate's to_json still took the graph
    (("cover", "--graph", "cycle:7", "--k", "4"),
     "f5bbd030ed4352170289045ca7667d399cd2923f362057348c9f8c1ac081a905"),
    (("minrank", "--graph", "cycle:7", "--p", "3"),
     "d236b24e1dc048dcf8f3d09a4f81b594818415573084aaf1a923f2b1603d41d3"),
    (("alpha", "--graph", "cycle:9"),
     "6cf73acc7aaae1d2f79fe0cb71d4116f600f145346cbc3b306ca67ede6f64aad"),
]


@pytest.mark.parametrize("argv, sha256", PINNED_REPORTS)
def test_cover_reports_are_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha256


# The master's covers of the two graphs whose reports changed with the
# orbit cover, pinned at their old report hashes through the library.
@pytest.mark.parametrize("expr, sha256", [
    ("johnson:2,6", "029a020e89e0538e42c7e52d626a7bc78af8507120d2f020e1c3b2ba8e483207"),
    ("lex(cycle:5,cycle:5)", "86997dc08df5a5a23d686f7ca9ec007a7dc5b4035bae6fe88fb0692c206e7af2"),
])
def test_master_covers_are_pinned(expr, sha256):
    cover = fractional_clique_cover(Graph(generate(expr).matrix))
    out = canonical_json({**cover.to_json(), "graph": expr}) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _theta_rep_file(tmp_path, kind: str, field: str | None = None, value=None):
    """A verifying orthorep file of cycle:5 (the umbrella), with ``field``
    set to ``value`` when given."""
    doc = pentagon_umbrella(1).to_json()
    doc["graph"] = "cycle:5"
    if field is not None:
        doc[field] = value
    path = tmp_path / f"{kind}.json"
    path.write_text(canonical_json(doc))
    return path


# SHA-256 of the umbrella file as written while the tolerance was an
# argument of ``to_json`` rather than a field of the representation.
PINNED_THETA_REPS = {
    "orthorep": "e06c7aa532464d1cbbecddf25288e7232b51e84162fbacf65938863e391bf524",
}


@pytest.mark.parametrize("kind", PINNED_THETA_REPS)
def test_theta_representation_bytes_are_pinned(tmp_path, kind):
    path = _theta_rep_file(tmp_path, kind)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_THETA_REPS[kind]


@pytest.mark.parametrize("kind", ["orthorep"])
def test_verify_accepts_the_umbrella(tmp_path, capsys, kind):
    code, out, _ = run(capsys, "verify", "--cert", str(_theta_rep_file(tmp_path, kind)))
    assert code == 0 and out.strip() == "OK"


def _empty_representation_file(tmp_path, kind, field):
    """A ``kind`` file with an empty ``field`` list, for the empty graph."""
    graph = tmp_path / "z.txt"
    graph.write_text("0 0\n")
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"kind": kind, "n": 1, "d": 1, "p": 2, field: [], "graph": f"file:{graph}"}))
    return path


@pytest.mark.parametrize("kind, field", [("pairrep", "pairs"), ("rankrrep", "sizes"), ("matrixrep", "frames"),
                                         ("subspacerep", "bases")])
def test_verify_refuses_the_factor_pair_and_rank_r_kinds(tmp_path, capsys, kind, field):
    # the block form (drep) is the fractional bound's only certificate kind,
    # and orthorep is theta's; the subspace form was the last to go
    code, out, err = run(capsys, "verify", "--cert", str(_empty_representation_file(tmp_path, kind, field)))
    assert (code, out, err) == (2, f"FAIL: unknown certificate kind {kind!r}\n", "")


@pytest.mark.parametrize("kind, field, value", [
    ("orthorep", "vectors", "x"),
    ("orthorep", "vectors", [[1.0, 0.0, 0.0]] * 4 + [[1.0, 0.0]]),
    ("orthorep", "tol", "a"),
    ("orthorep", "vectors", [1, 2, 3, 4, 5]),
    ("orthorep", "tol", float("nan")),
    ("orthorep", "handle", [1.0, 0.0]),
    ("orthorep", "handle", [True, 0, 0]),
], ids=["vectors-string", "vectors-ragged", "tol-string", "vectors-numbers", "tol-nan", "handle-length",
        "handle-bool"])
def test_verify_refuses_a_malformed_theta_representation(tmp_path, capsys, kind, field, value):
    # the first three ended in a traceback (exit 1): ValueError, ValueError
    # and UFuncNoLoopError; a NaN tolerance passed every check; the numbers
    # and bool cases reach read_reals' depth and bool refusals
    code, out, err = run(capsys, "verify", "--cert", str(_theta_rep_file(tmp_path, kind, field, value)))
    assert code == 2 and out.startswith("FAIL: "), (out, err)


# a report whose lower end exceeds its upper end: verify exits 2
_CROSSED_REPORT = '{"graph":"cycle:5","lower":"3","param":"alpha","upper":"2","witness_refs":[]}\n'


def test_verify_refuses_an_exponent_without_evaluating_it(tmp_path, capsys):
    # Fraction("1e100000000") builds 10**100000000 first; that took more
    # than 100 s, where the refusal takes milliseconds
    path = tmp_path / "report.json"
    path.write_text(_CROSSED_REPORT.replace('"3"', '"1e100000000"'))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfrac.__file__)))
    proc = subprocess.run([sys.executable, "-m", "hfrac.cli", "verify", "--cert", str(path)],
                          capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, b"FAIL: not a rational: '1e100000000'\n")
    start = time.perf_counter()
    assert run(capsys, "verify", "--cert", str(path))[0] == 2
    assert time.perf_counter() - start < 1


def test_verify_echoes_a_long_malformed_value_cut_short(tmp_path, capsys):
    # the whole 1,000,000-character value made a 1,000,025-byte line
    path = tmp_path / "report.json"
    path.write_text(_CROSSED_REPORT.replace('"3"', f'"{"1" * 10**6}"'))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, err) == (2, "") and len(out.encode()) < 300
    assert out == f"FAIL: not a rational: '{'1' * 99}... (1000002 characters)\n"


@pytest.mark.parametrize("doc", [
    {"graph": "cycle:5", "lower": "2", "upper": "2", "witness_refs": [], "param": "p" * 10**6},
    {"graph": "cycle:5", "lower": "2", "upper": "2", "witness_refs": [[1] * 10**5], "param": "alpha"},
    {"graph": "cycle:5", "kind": "k" * 10**6},
    {"graph": [1] * 10**5, "kind": "fit"},
    {"graph": "cycle:5" + "x" * 10**6, "kind": "fit"},
    {"graph": "a" * 10**6, "kind": "fit"},
], ids=["param", "witness", "kind", "graph-type", "graph-trailing", "graph-generator"])
def test_verify_cuts_every_long_echoed_value_short(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, err) == (2, "") and out.startswith("FAIL: ") and len(out.encode()) < 300
    assert " characters)" in out


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: ``fails`` (write or flush) raises
    BrokenPipeError, as a pipe does once its reader has closed it."""

    def __init__(self, fails: str):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.fails == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fails", ["write", "flush"])
def test_a_closed_stdout_ends_with_the_commands_own_exit_code(tmp_path, monkeypatch, capsys, fails):
    # a closed stdout used to be a usage error (exit 64), or, flushed at
    # exit, a traceback on stderr and exit 120
    report = tmp_path / "report.json"
    report.write_text(_CROSSED_REPORT)
    for argv, code in ((["alpha", "--graph", "cycle:5", "--json"], 0), (["verify", "--cert", str(report)], 2)):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fails))
        assert main(argv) == code
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_pipe_ends_with_the_commands_own_exit_code(tmp_path, unbuffered):
    # the pipe's reader is closed before the process starts, so every
    # write fails; a buffered stdout fails only when flushed
    report = tmp_path / "report.json"
    report.write_text(_CROSSED_REPORT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfrac.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    for argv, code in ((["alpha", "--graph", "cycle:5", "--json"], 0), (["verify", "--cert", str(report)], 2)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "hfrac.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=300, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")
