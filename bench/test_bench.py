"""Tests of the benchmark: each workload end to end at a tiny size, and the
checkers as negative controls (each must reject one planted fault)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
import spectral_lb  # noqa: E402
from spectral_lb import cli  # noqa: E402

import child  # noqa: E402

TINY_CATALOG = (
    ("spectrum", "petersen", [()]),
    ("spectrum", "prism", [(5,), (6,)]),
    ("bounds", "prism", [(6,)]),
)


def _run(workload, rounds, tmp_path, spans=None):
    rounds = run.attach_argv(workload, rounds, tmp_path)
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps({"workload": workload, "rounds": rounds}))
    result = run.run_child(inputs, tmp_path / "out.json", 0, rounds=1, spans=spans)
    return rounds, result


def _chain_output(n, edges):
    op = {"n": n, "edges": edges}
    return op, child._chain_op(spectral_lb, op)


def _spectrum_output(tmp_path, family, params):
    n, edges = workloads.family_graph(family, params)
    path = tmp_path / f"{family}.txt"
    path.write_text(workloads.edge_list_text(n, edges))
    op = {"command": "spectrum", "family": family, "params": list(params), "n": n, "edges": edges}
    return op, child._cli_op(cli, ["spectrum", str(path)])


@pytest.mark.parametrize("workload", ["chain-sweep", "catalog-report"])
def test_workload_end_to_end(workload, tmp_path):
    if workload == "chain-sweep":
        rounds = workloads.chain_rounds(0, rounds=1, order7=1, order6_limit=3)
    else:
        rounds = workloads.catalog_rounds(0, rounds=1, slots=TINY_CATALOG)
    rounds, result = _run(workload, rounds, tmp_path)
    assert result["failed"] == 0
    assert len(result["op_s"]) == len(rounds[0])
    assert result["backend"] in ("Fraction", "gmpy2.mpq")
    assert run.check_outputs(workload, rounds, result) == []


def test_reproduce_end_to_end_and_failed_row_rejected(tmp_path):
    rounds, result = _run("reproduce", workloads.reproduce_rounds(), tmp_path)
    assert result["failed"] == 0
    assert run.check_outputs("reproduce", rounds, result) == []

    published = json.loads((run.HERE / "reproduce_published.json").read_text())
    doc = json.loads(result["outputs"][0]["doc"])
    assert len(doc["rows"]) == len(published) == 116
    row = doc["rows"][5]
    row["computed"], row["pass"] = "12345", False
    assert checks.check_reproduce(json.dumps(doc), published)


def test_traced_run_yields_every_layer_metric(tmp_path):
    rounds = workloads.catalog_rounds(0, rounds=1, slots=TINY_CATALOG)
    spans_path = tmp_path / "spans.json"
    rounds, result = _run("catalog-report", rounds, tmp_path, spans=spans_path)
    spans = json.loads(spans_path.read_text())
    metrics = tracer.layer_metrics(spans, len(result["op_s"]))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_pct"}
    assert names == set(metrics)
    assert metrics["simplex.pivots"][0] > 0 and metrics["spectra.eig_calls"][0] > 0
    assert all(s[tracer.END] >= s[tracer.START] for s in spans)
    # the op spans are the roots; every program span has one above it
    assert {s[tracer.NAME] for s in spans if s[tracer.PARENT] < 0} == {"op"}


def test_chain_checker_rejects_lambda_c_off_by_a_thousandth():
    op, out = _chain_output(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert checks.check_chain(op, out) == []
    out["C"]["value"] = str(Fraction(out["C"]["value"]) + Fraction(1, 1000))
    assert checks.check_chain(op, out)


@pytest.mark.parametrize("which", ["C", "K"])
def test_certificate_checker_rejects_a_missing_piece(which):
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (0, 5)]
    op, out = _chain_output(6, edges)
    cert = dict(out[which])
    key = "pieces" if which == "C" else "cliques"
    check = checks.check_c_certificate if which == "C" else checks.check_k_certificate
    assert check(6, edges, cert) == []
    cert[key] = cert[key][1:]
    assert check(6, edges, cert)


def test_spectrum_checker_rejects_a_shifted_eigenvalue(tmp_path):
    op, stdout = _spectrum_output(tmp_path, "prism", (6,))
    assert checks.check_spectrum(op, stdout) == []
    lines = stdout.splitlines()
    lines[3] = f"{float(lines[3].split()[0]) + 1e-6:+.12f}"
    assert checks.check_spectrum(op, "\n".join(lines))


def test_spectrum_checker_rejects_a_wrong_exact_flag(tmp_path):
    op, stdout = _spectrum_output(tmp_path, "petersen", ())
    lines = stdout.splitlines()
    lines[0] = lines[0].split()[0]
    assert checks.check_spectrum(op, "\n".join(lines))


def test_same_seed_same_inputs():
    assert workloads.catalog_rounds(7, rounds=2) == workloads.catalog_rounds(7, rounds=2)
    assert workloads.chain_rounds(7, rounds=1) != workloads.chain_rounds(8, rounds=1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
