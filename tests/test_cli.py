"""CLI subcommands, exit codes and output formats (driven in-process)."""

import json

import pytest

from spectral_lb.cli import main
from spectral_lb.decomp import CertificateError
from spectral_lb.graph_io import format_edge_list
from spectral_lb.catalog import cycle, petersen
from spectral_lb.simplex import SimplexError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "petersen" in out and "johnson v k" in out


def test_catalog_list_rejects_a_name(capsys):
    code, out, err = run(capsys, "catalog", "list", "zzz", "1", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_catalog_get_and_spectrum(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "get", "petersen")
    assert code == 0
    path = tmp_path / "pet.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("+3.000000000000")
    assert lines[0].startswith("-2.000000000000") and "exact" in lines[0]


def test_spectrum_exact_flags_stop_at_the_declared_cap(tmp_path, capsys, monkeypatch):
    from spectral_lb import cli
    from spectral_lb.spectra import EXACT_MAX_ORDER

    path = tmp_path / "pet.txt"
    path.write_text(format_edge_list(petersen()))
    with pytest.raises(SystemExit):
        main(["spectrum", "--help"])
    assert f"at most {EXACT_MAX_ORDER} vertices" in " ".join(capsys.readouterr().out.split())
    _, out, _ = run(capsys, "spectrum", str(path))
    assert out.count("exact)") == 10
    monkeypatch.setattr(cli, "EXACT_MAX_ORDER", 9)
    _, out, _ = run(capsys, "spectrum", str(path))
    assert "exact" not in out


def test_spectrum_runs_lapack_once(tmp_path, capsys, monkeypatch):
    # the displayed eigenvalues also choose the integer candidates to certify
    import numpy as np

    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    path = tmp_path / "pet.txt"
    path.write_text(format_edge_list(petersen()))
    _, out, _ = run(capsys, "spectrum", str(path))
    assert out.count("exact)") == 10
    assert calls == [(10, 10)]


def test_catalog_get_unknown(capsys):
    code, _, err = run(capsys, "catalog", "get", "zzz")
    assert code == 2 and "unknown" in err


def test_catalog_get_without_name(capsys):
    code, out, err = run(capsys, "catalog", "get")
    assert code == 2 and out == ""
    assert "needs a graph name" in err and "None" not in err


def test_spectrum_weighted_loops(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("2 2\n0 1 1\n0 0 2\n")
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    values = [float(line.split()[0]) for line in out.strip().splitlines()]
    assert values[0] == pytest.approx(1 - 2**0.5, abs=1e-9)
    # the same graph as a multigraph document prints the same lines
    mg = tmp_path / "m.json"
    mg.write_text(json.dumps({"fmt": 1, "type": "multigraph", "n": 2, "mult": [[0, 1, 1], [0, 0, 2]]}))
    assert run(capsys, "spectrum", str(mg)) == (0, out, "")


def test_spectrum_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 7\n")
    code, _, err = run(capsys, "spectrum", str(path))
    assert code == 2 and "line 2" in err


def test_bounds_with_partition_and_lp(tmp_path, capsys):
    from spectral_lb.catalog import octahedron
    from spectral_lb.cliqopt import enumerate_cliques

    g = octahedron()
    gp = tmp_path / "octa.txt"
    gp.write_text(format_edge_list(g))
    tris = [list(c) for c in enumerate_cliques(g, 3) if len(c) == 3]
    pp = tmp_path / "part.json"
    pp.write_text(json.dumps({"mu": 2, "cliques": tris}))
    code, out, _ = run(capsys, "bounds", str(gp), "--partition", str(pp), "--lp")
    assert code == 0
    assert "clique_partition" in out and "lambda_star_K" in out
    code, out, _ = run(capsys, "bounds", str(gp), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == pytest.approx(-2, abs=1e-9)


def test_lambda_star_commands(tmp_path, capsys):
    gp = tmp_path / "c5.txt"
    code, out, _ = run(capsys, "catalog", "get", "cycle", "5")
    gp.write_text(out)
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "lambda-star-k", str(gp), "--cert", str(cert))
    assert code == 0 and "lambda*_K = -2" in out
    doc = json.loads(cert.read_text())
    assert doc["mu"] == 1 and doc["value"] == "-2"
    code, out, _ = run(capsys, "lambda-star-c", str(gp))
    assert code == 0 and "lambda*_C = -2" in out


def test_spectrum_json_integer_weight(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"fmt": 1, "type": "weighted", "n": 2, "weights": [[0, 1, 1]]}))
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    assert [float(line.split()[0]) for line in out.strip().splitlines()] == [-1.0, 1.0]


@pytest.mark.parametrize("as_json", [False, True])
def test_bounds_violation_exits_1_in_both_modes(tmp_path, capsys, monkeypatch, as_json):
    import spectral_lb.cli as cli
    from spectral_lb.bounds import BoundEntry, bound_report

    def planted(g, **kwargs):
        rep = bound_report(g, **kwargs)
        rep.entries.append(BoundEntry("planted", "lower", rep.lam + 1))
        return rep

    monkeypatch.setattr(cli, "bound_report", planted)
    gp = tmp_path / "pet.txt"
    gp.write_text(format_edge_list(petersen()))
    code, out, err = run(capsys, "bounds", str(gp), *(["--json"] if as_json else []))
    assert code == 1
    assert "BOUND VIOLATION: planted" in err
    if as_json:
        assert any(b["name"] == "planted" for b in json.loads(out)["bounds"])


@pytest.mark.parametrize("error", [CertificateError, SimplexError])
def test_failed_check_exits_1_with_one_line(tmp_path, capsys, monkeypatch, error):
    import spectral_lb.cli as cli

    def broken(g):
        raise error("certificate failed to re-validate")

    monkeypatch.setattr(cli, "lambda_star_C", broken)
    gp = tmp_path / "pet.txt"
    gp.write_text(format_edge_list(petersen()))
    code, out, err = run(capsys, "lambda-star-c", str(gp))
    assert code == 1 and out == ""
    assert err == "check failed: certificate failed to re-validate\n"


def test_reproduce_roundtrip(tmp_path, capsys):
    j1 = tmp_path / "r1.json"
    code, out, _ = run(capsys, "reproduce", "--filter", "johnson", "--json", str(j1))
    assert code == 0
    assert "johnson" in out and "pass" in out
    doc = json.loads(j1.read_text())
    assert doc["passed"] is True


def test_reproduce_negative_control(tmp_path, capsys):
    code, out, _ = run(capsys, "reproduce", "--filter", "petersen", "--negative-control")
    assert code == 1
    assert "FAIL" in out


def test_reproduce_negative_control_json_is_strict(tmp_path, capsys):
    # the perturbed Petersen "cubic bound" row has a NaN diff; it must be null
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = tmp_path / "neg.json"
    code, _, _ = run(capsys, "reproduce", "--negative-control", "--filter", "petersen", "--json", str(out))
    assert code == 1
    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["passed"] is False
    assert any(r["diff"] is None for r in doc["rows"])


def test_reproduce_bad_filter(capsys):
    code, _, err = run(capsys, "reproduce", "--filter", "zzz")
    assert code == 2 and "no rows" in err


def test_reproduce_json_deterministic(tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "reproduce", "--filter", "five-cycle", "--json", str(j1))
    run(capsys, "reproduce", "--filter", "five-cycle", "--json", str(j2))
    assert j1.read_bytes() == j2.read_bytes()


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    text = format_edge_list(petersen())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "spectrum", "-")
    assert code == 0 and out.strip().splitlines()[-1].startswith("+3.0")


def _pipe(capsys, monkeypatch, producer, consumer):
    import io

    code, out, _ = run(capsys, *producer)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    return run(capsys, *consumer)


def test_bounds_above_clique_cap_skips_hoffman(capsys, monkeypatch):
    code, out, _ = _pipe(
        capsys, monkeypatch, ("catalog", "get", "circulant", "30", "2"), ("bounds", "-")
    )
    assert code == 0
    assert "hoffman" in out and "skipped [n = 30 exceeds the cap n <= 24]" in out


def test_bounds_lp_above_clique_cap_skips_lambda_star_k(capsys, monkeypatch):
    code, out, _ = _pipe(
        capsys, monkeypatch, ("catalog", "get", "path", "30"), ("bounds", "-", "--lp", "--json")
    )
    assert code == 0
    doc = json.loads(out)
    skipped = {s["name"]: s["reason"] for s in doc["skipped"]}
    assert skipped["lambda_star_K"] == "n = 30 exceeds the cap n <= 24"
    assert "lambda_star_C" in skipped
    assert all(b["name"] != "lambda_star_K" for b in doc["bounds"])


@pytest.mark.parametrize(
    "command,n,line",
    [
        ("lambda-star-k", 25, "lambda*_K skipped [n = 25 exceeds the cap n <= 24]"),
        ("lambda-star-c", 13, "lambda*_C skipped [n = 13 exceeds the cap n <= 12]"),
    ],
    ids=["lambda-star-k", "lambda-star-c"],
)
def test_lambda_star_above_cap_is_a_skip(tmp_path, capsys, monkeypatch, command, n, line):
    # a valid graph above the cap is reported as a skip, in the words of bounds, not as an input error
    cert = tmp_path / "cert.json"
    result = _pipe(capsys, monkeypatch, ("catalog", "get", "cycle", str(n)), (command, "-", "--cert", str(cert)))
    assert result == (0, line + "\n", "")
    assert not cert.exists()


@pytest.mark.parametrize("command", [("spectrum", "-"), ("bounds", "-"), ("bounds", "-", "--lp", "--json")])
def test_eigensolver_cap_is_a_skip(capsys, monkeypatch, command):
    # C2049 is one vertex above the eigensolver's cap: a skip line and exit 0, not an input error
    result = _pipe(capsys, monkeypatch, ("catalog", "get", "cycle", "2049"), command)
    assert result == (0, "spectrum skipped [n = 2049 exceeds the cap n <= 2048]\n", "")


@pytest.mark.parametrize("command", [("spectrum", "-"), ("bounds", "-")])
def test_eigensolver_cap_is_checked_before_the_matrix_is_built(capsys, monkeypatch, command):
    # a dense 3000 x 3000 float matrix alone would take 72 MB
    import io
    import tracemalloc

    text = format_edge_list(cycle(3000))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    tracemalloc.start()
    try:
        result = run(capsys, *command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "spectrum skipped [n = 3000 exceeds the cap n <= 2048]\n", "")
    assert peak < 10 * 2**20


_HUGE_DOCUMENTS = {
    "json": '{"fmt": 1, "type": "simple", "n": 1000000, "edges": []}',
    "edge-list": "1000000 0\n",
    "malformed-body": "1000000 1\n0 1000000\n",  # a malformed body above the cap is never read
}
# each command's first capped computation: bounds runs the eigensolver first
_FIRST_CAP = {
    "spectrum": "spectrum skipped [n = 1000000 exceeds the cap n <= 2048]",
    "bounds": "spectrum skipped [n = 1000000 exceeds the cap n <= 2048]",
    "lambda-star-k": "lambda*_K skipped [n = 1000000 exceeds the cap n <= 24]",
    "lambda-star-c": "lambda*_C skipped [n = 1000000 exceeds the cap n <= 12]",
}


@pytest.mark.parametrize(
    "command,doc",
    [
        pytest.param(command, doc, id=doc if command == "spectrum" else f"{command}-{doc}")
        for command in _FIRST_CAP
        for doc in _HUGE_DOCUMENTS
    ],
)
def test_spectrum_skips_from_the_declared_order(capsys, monkeypatch, command, doc):
    # the graph of 10^6 vertices is never built: its rows alone would take 15 MiB
    import io
    import tracemalloc

    monkeypatch.setattr("sys.stdin", io.StringIO(_HUGE_DOCUMENTS[doc]))
    tracemalloc.start()
    try:
        result = run(capsys, command, "-")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, _FIRST_CAP[command] + "\n", "")
    assert peak < 2**20


def test_lambda_star_k_tests_for_an_edge_before_its_cap(tmp_path, capsys):
    # below the cap an edgeless graph is an input error; above it, a skip from the header
    path = tmp_path / "edgeless.txt"
    path.write_text("24 0\n")
    assert run(capsys, "lambda-star-k", str(path)) == (2, "", "error: lambda*_K needs at least one edge\n")
    path.write_text("25 0\n")
    assert run(capsys, "lambda-star-k", str(path)) == (0, "lambda*_K skipped [n = 25 exceeds the cap n <= 24]\n", "")


def test_bounds_below_cap_reports_no_skips(capsys, monkeypatch):
    code, out, _ = _pipe(
        capsys, monkeypatch, ("catalog", "get", "petersen"), ("bounds", "-", "--json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped"] == []
    assert {b["name"] for b in doc["bounds"]} >= {"hoffman", "chromatic", "lovasz_chromatic"}


def test_reproduce_filter_prints_exactly_the_matching_rows(tmp_path, capsys):
    from spectral_lb.reproduce import build_rows, format_table

    full = tmp_path / "full.json"
    part = tmp_path / "part.json"
    assert run(capsys, "reproduce", "--json", str(full))[0] == 0
    code, out, _ = run(capsys, "reproduce", "--filter", "five-cycle", "--json", str(part))
    assert code == 0
    rows = [r for r in json.loads(full.read_text())["rows"] if r["example"] == "five-cycle"]
    assert rows and json.loads(part.read_text())["rows"] == rows
    expected = [r for r in build_rows() if r.example == "five-cycle"]
    assert out == format_table(expected) + "\n"
