"""The benchmark's span tracer around the decomposition LPs: each solve span
records the shape and pivots of the model it solved."""

import importlib.util
from pathlib import Path

import spectral_lb.cli  # noqa: F401  the tracer wraps every traced module, so all must be loaded
from spectral_lb import cliqopt
from spectral_lb.catalog import octahedron
from spectral_lb.graphs import build_weighted
from spectral_lb.rationals import Q

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shape(model, pivots):
    form = model.compiled()
    nnz = sum(len(col) for col in form.columns)
    return {"rows": form.m, "cols": len(form.columns), "nnz": nnz, "pivots": pivots}


def test_tracer_records_each_decomposition_solve():
    tracer_mod = _load_tracer()
    # lambda*_C solves the cached model of its order with its own right-hand sides
    h = build_weighted(5, {(0, 1): Q(3, 2), (1, 2): Q(-2), (2, 3): 1, (3, 4): 1, (0, 4): Q(1, 3),
                           (2, 2): Q(-1), (4, 4): Q(1, 2)})
    g = octahedron()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        c = cliqopt.lambda_star_C(h)
        k = cliqopt.lambda_star_K(g)
    finally:
        tracer.uninstall()
    solves = [s[tracer_mod.EXTRA] for s in tracer.spans
              if s[tracer_mod.NAME] == "simplex.RationalLP.solve"]
    k_model = cliqopt._decomposition_model(g.n, cliqopt.enumerate_cliques(g, 2), False)[0]
    assert c.pivots > 0 and k.pivots > 0
    assert solves == [_shape(cliqopt._complete_model(h.n)[0], c.pivots), _shape(k_model, k.pivots)]
