"""Command-line behavior: outputs, exit codes, JSON determinism, round trips."""

from __future__ import annotations

import json
import time

import pytest
from test_reps import FORGED_ENTRIES, forge_first_entry

from hfrac.cli import main
from hfrac.serialize import canonical_json


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


def test_minrank(capsys):
    code, out, _ = run(capsys, "minrank", "--graph", "cycle:5", "--p", "2")
    assert code == 0 and out.strip() == "3"


def test_hfrac_interval(capsys):
    code, out, _ = run(capsys, "hfrac", "--graph", "cycle:5", "--p", "2", "--dmax", "2")
    assert code == 0 and out.strip() == "[2, 5/2]"


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


def test_budgeted_hfrac_exits_3_with_a_verified_report(tmp_path, capsys):
    code, out, err = run(capsys, "hfrac", "--graph", "johnson:2,10", "--p", "2",
                         "--budget-ms", "500", "--json")
    assert code == 3, err
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and out.strip() == "OK"


def test_usage_errors_are_64(capsys):
    assert run(capsys, "alpha", "--graph", "nonsense:5")[0] == 64
    assert run(capsys, "alpha", "--graph", "cycle:x")[0] == 64
    assert run(capsys, "theta-circulant", "--n", "7", "--connection", "1,2")[0] == 64
    assert run(capsys, "certify", "--kind", "johnson")[0] == 64
    # a modulus too large for int64 elimination is refused up front
    assert run(capsys, "minrank", "--graph", "cycle:5", "--p", "3037000507")[0] == 64


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


def test_reproduce_quick(capsys):
    code, out, _ = run(capsys, "reproduce", "--quick", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    ids = [c["id"] for c in obj["claims"]]
    assert "johnson-alpha" not in ids  # the slow claim is skipped
    assert "theta-c5" in ids
    # identical invocation, identical bytes
    code, out2, _ = run(capsys, "reproduce", "--quick", "--json")
    assert out == out2


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CAPACITY_BUDGET_MS", "200")
    code, out, _ = run(capsys, "minrank", "--graph", "strong(cycle:5,cycle:5)", "--p", "2")
    assert code == 3 and "[" in out


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
