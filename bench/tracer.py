"""In-memory span tracer for the modules of spectral_lb.

install() wraps every public function of each traced module and rebinds
the wrapper wherever a spectral_lb module holds the original, so calls
made inside the package are traced too; the package's source is never
edited.  Each call records a span [name, start, end, parent, extra] in a
list; a few functions also record what they returned (LP shape and
pivots, clique counts, eigen residuals, row counts).  layer_metrics()
turns the spans into per-module self times and counts.  Standard library
only, because it runs in the process that times the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

TRACED_MODULES = ("simplex", "cliqopt", "decomp", "spectra", "bounds", "reproduce", "cli", "graph_io")

NAME, START, END, PARENT, EXTRA = range(5)


def _lp_extra(args, result):
    lp = args[0]
    slacks = sum(1 for _, rel, _ in lp.rows if rel != "=")
    nnz = sum(1 for coeffs, _, _ in lp.rows for v in coeffs.values() if v != 0)
    return {"rows": len(lp.rows), "cols": len(lp.obj) + slacks, "nnz": nnz + slacks,
            "pivots": result.pivots}


_EXTRAS = {
    "simplex.RationalLP.solve": _lp_extra,
    "cliqopt.enumerate_cliques": lambda args, result: {"cliques": len(result)},
    "spectra.spectrum": lambda args, result: {"residual": result.residual},
    "reproduce.build_rows": lambda args, result: {"rows": len(result)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around code outside the program, such as one operation."""

        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            self._stack.pop()
            span[END] = time.perf_counter()

    def install(self):
        holders = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "spectral_lb" or k.startswith("spectral_lb."))]
        for short in TRACED_MODULES:
            module = sys.modules[f"spectral_lb.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        lp_cls = sys.modules["spectral_lb.simplex"].RationalLP
        self._undo.append((lp_cls, "solve", lp_cls.solve))
        lp_cls.solve = self.wrap("simplex.RationalLP.solve", lp_cls.solve)

    def uninstall(self):
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


_ENUM = {"cliqopt.enumerate_cliques", "cliqopt.maximal_cliques"}
_SEARCH = {"cliqopt.clique_number", "cliqopt.independence_number",
           "cliqopt.chromatic_number", "cliqopt.fractional_chromatic"}
_MODEL = {"cliqopt.lambda_star_C", "cliqopt.lambda_star_K"}
_EIG = {"spectra.spectrum", "spectra.jacobi_eigh"}
_EXACT = {"spectra.rational_nullspace", "spectra.rational_rank", "spectra.psd_check_exact",
          "spectra.is_exact_eigenvalue", "spectra.lambda_min_exact",
          "spectra.verified_integer_eigenvalues"}


def layer_metrics(spans, ops: int) -> dict:
    """Per-operation self times and counts of each traced module.

    Times and counts are divided by the number of operations, so they do
    not grow with the length of the run; LP shape is a mean per solve.
    A span of an outermost call is one whose parent is not in the same
    set of names.
    """

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def self_time(i):
        s = spans[i]
        return s[END] - s[START] - child_time[i]

    def in_set(names):
        return lambda name: name in names

    def in_module(module):
        return lambda name: name.startswith(module + ".")

    def outermost(match):
        return [i for i, s in enumerate(spans)
                if match(s[NAME]) and not (s[PARENT] >= 0 and match(spans[s[PARENT]][NAME]))]

    def total(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx)

    def self_sum(match):
        return sum(self_time(i) for i, s in enumerate(spans) if match(s[NAME]))

    def extras(name):
        return [s[EXTRA] for s in spans if s[NAME] == name and s[EXTRA] is not None]

    per_op = 1.0 / max(ops, 1)
    solves = outermost(in_module("simplex"))
    lps = extras("simplex.RationalLP.solve")
    pivots = sum(e["pivots"] for e in lps)
    solve_s = total(solves)
    mean = (lambda key: sum(e[key] for e in lps) / len(lps)) if lps else (lambda key: 0.0)
    rows = extras("reproduce.build_rows")
    residuals = [e["residual"] for e in extras("spectra.spectrum")]
    return {
        "simplex.solve_s": (solve_s * per_op, "s"),
        "simplex.solves": (len(solves) * per_op, "count"),
        "simplex.pivots": (pivots * per_op, "count"),
        "simplex.s_per_pivot": (solve_s / pivots if pivots else 0.0, "s"),
        "simplex.lp_rows": (mean("rows"), "count"),
        "simplex.lp_cols": (mean("cols"), "count"),
        "simplex.lp_nnz": (mean("nnz"), "count"),
        "cliqopt.model_s": (self_sum(in_set(_MODEL)) * per_op, "s"),
        "cliqopt.enum_s": (total(outermost(in_set(_ENUM))) * per_op, "s"),
        "cliqopt.cliques": (sum(e["cliques"] for e in extras("cliqopt.enumerate_cliques")) * per_op, "count"),
        "cliqopt.search_s": (self_sum(in_set(_SEARCH)) * per_op, "s"),
        "decomp.verify_s": (self_sum(in_module("decomp")) * per_op, "s"),
        "decomp.calls": (len(outermost(in_module("decomp"))) * per_op, "count"),
        "spectra.eig_s": (total(outermost(in_set(_EIG))) * per_op, "s"),
        "spectra.eig_calls": (len(outermost(in_set(_EIG))) * per_op, "count"),
        "spectra.eig_residual_max": (max(residuals, default=0.0), "abs"),
        "spectra.exact_s": (self_sum(in_set(_EXACT)) * per_op, "s"),
        "spectra.exact_calls": (len(outermost(in_set(_EXACT))) * per_op, "count"),
        "bounds.self_s": (self_sum(in_module("bounds")) * per_op, "s"),
        "reproduce.self_s": (self_sum(in_module("reproduce")) * per_op, "s"),
        "reproduce.rows": (sum(e["rows"] for e in rows) / len(rows) if rows else 0.0, "count"),
        "cli.self_s": (self_sum(in_module("cli")) * per_op, "s"),
        "graph_io.s": (total(outermost(in_module("graph_io"))) * per_op, "s"),
    }
