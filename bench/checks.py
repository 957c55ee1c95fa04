"""Checks of the program's outputs against computations made apart from it.

Nothing here imports spectral_lb.  Optima come from the same LPs
formulated afresh and solved by HiGHS (scipy.optimize.linprog),
certificates are re-checked in integer arithmetic, spectra come from
numpy.linalg.eigvalsh and from the families' closed forms.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import numpy as np
from scipy.optimize import linprog

LP_TOL = 1e-7
EIG_TOL = 1e-8


def _graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    return g


def _adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def eigvalsh_min(n, edges) -> float:
    return float(np.linalg.eigvalsh(_adjacency(n, edges))[0])


# ---------------------------------------------------------------------------
# the two LPs, formulated independently and solved in floating point


def lambda_star_k_highs(n, edges) -> float:
    """min t: each edge covered once by cliques, each vertex load <= t; returns -t."""

    g = _graph(n, edges)
    cliques = [tuple(c) for c in nx.enumerate_all_cliques(g) if len(c) >= 2]
    edge_row = {tuple(sorted(e)): i for i, e in enumerate(g.edges())}
    ncols = len(cliques) + 1
    a_eq = np.zeros((len(edge_row), ncols))
    a_ub = np.zeros((n, ncols))
    for j, c in enumerate(cliques):
        for a, b in combinations(sorted(c), 2):
            a_eq[edge_row[(a, b)], j] = 1.0
        for u in c:
            a_ub[u, j] = 1.0
    a_ub[:, -1] = -1.0
    cost = np.zeros(ncols)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=np.ones(len(edge_row)),
                  bounds=[(0, None)] * ncols, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS lambda*_K: {res.message}")
    return -float(res.fun)


def piece_extremes(kind: str, size: int) -> tuple[int, int]:
    """(smallest, largest) eigenvalue of K_s (simple) or J_s (all ones, looped)."""

    if kind == "K":
        return -1, size - 1
    return (0 if size >= 2 else 1), size


def lambda_star_c_highs(n, edges) -> float:
    """max lam over signed sums of K_S and J_S equal to A, with per-vertex
    sums of piece minima >= lam (a piece a*M has minimum a*min(M) for a > 0
    and a*max(M) for a < 0, so each shape gets a positive and a negative
    column)."""

    shapes = [(kind, s) for size in range(1, n + 1) for s in combinations(range(n), size)
              for kind in ("K", "J") if not (kind == "K" and size == 1)]
    pairs = list(combinations(range(n), 2))
    pair_row = {p: i for i, p in enumerate(pairs)}
    ncols = 2 * len(shapes) + 1
    lam = ncols - 1
    a_eq = np.zeros((len(pairs) + n, ncols))
    a_ub = np.zeros((n, ncols))
    for j, (kind, s) in enumerate(shapes):
        lo, hi = piece_extremes(kind, len(s))
        for sign, col in ((1, 2 * j), (-1, 2 * j + 1)):
            for p in combinations(s, 2):
                a_eq[pair_row[p], col] = sign
            if kind == "J":
                for u in s:
                    a_eq[len(pairs) + u, col] = sign
            for u in s:
                # lam - sum(piece minima at u) <= 0
                a_ub[u, col] = -(lo if sign > 0 else -hi)
    a_ub[:, lam] = 1.0
    b_eq = np.zeros(len(pairs) + n)
    for u, v in edges:
        b_eq[pair_row[tuple(sorted((u, v)))]] = 1.0
    cost = np.zeros(ncols)
    cost[lam] = -1.0
    bounds = [(0, None)] * (ncols - 1) + [(None, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS lambda*_C: {res.message}")
    return -float(res.fun)


# ---------------------------------------------------------------------------
# certificates, re-checked in integer arithmetic


def check_k_certificate(n, edges, cert) -> list[str]:
    """Every edge covered exactly mu times by genuine cliques; max load / mu = -value."""

    problems = []
    value, mu = Fraction(cert["value"]), int(cert["mu"])
    edge_set = {tuple(sorted(e)) for e in edges}
    cover = dict.fromkeys(edge_set, 0)
    load = [0] * n
    for clique, count in cert["cliques"]:
        if count <= 0 or len(clique) < 2:
            problems.append(f"bad clique entry {clique} x{count}")
            continue
        for pair in combinations(sorted(clique), 2):
            if pair not in edge_set:
                problems.append(f"clique {clique} uses non-edge {pair}")
                break
            cover[pair] += count
        for u in clique:
            load[u] += count
    uncovered = [e for e, c in cover.items() if c != mu]
    if uncovered:
        problems.append(f"{len(uncovered)} edges not covered exactly mu={mu} times")
    if Fraction(max(load), mu) != -value:
        problems.append(f"max load {max(load)}/{mu} != -lambda*_K = {-value}")
    return problems


def check_c_certificate(n, edges, cert) -> list[str]:
    """Signed pieces sum to mu*A; the worst per-vertex sum of piece minima is mu*value."""

    problems = []
    value, mu = Fraction(cert["value"]), int(cert["mu"])
    total = [[0] * n for _ in range(n)]
    vertex_sum = [0] * n
    for kind, subset, count in cert["pieces"]:
        if kind not in ("K", "J") or not subset or count == 0:
            problems.append(f"bad piece {kind}{subset} x{count}")
            continue
        for a, b in combinations(subset, 2):
            total[a][b] += count
            total[b][a] += count
        lo, hi = piece_extremes(kind, len(subset))
        for u in subset:
            if kind == "J":
                total[u][u] += count
            vertex_sum[u] += count * (lo if count > 0 else hi)
    target = [[0] * n for _ in range(n)]
    for u, v in edges:
        target[u][v] = target[v][u] = mu
    if total != target:
        problems.append("signed pieces do not sum to mu*A")
    if min(vertex_sum) != mu * value:
        problems.append(f"min per-vertex sum {min(vertex_sum)} != mu*lambda*_C = {mu * value}")
    return problems


# ---------------------------------------------------------------------------
# chain-sweep


def check_chain(op, out) -> list[str]:
    n, edges = op["n"], op["edges"]
    problems = []
    eig = eigvalsh_min(n, edges)
    lam_c, lam_k = Fraction(out["C"]["value"]), Fraction(out["K"]["value"])
    if abs(out["lambda_min"] - eig) > EIG_TOL:
        problems.append(f"lambda_min {out['lambda_min']} != eigvalsh {eig}")
    if abs(float(lam_c) - lambda_star_c_highs(n, edges)) > LP_TOL:
        problems.append(f"lambda*_C {lam_c} differs from the HiGHS optimum")
    if abs(float(lam_k) - lambda_star_k_highs(n, edges)) > LP_TOL:
        problems.append(f"lambda*_K {lam_k} differs from the HiGHS optimum")
    problems += check_c_certificate(n, edges, out["C"])
    problems += check_k_certificate(n, edges, out["K"])
    if not lam_k <= lam_c <= eig + EIG_TOL:
        problems.append(f"chain lambda*_K {lam_k} <= lambda*_C {lam_c} <= lambda {eig} fails")
    g = _graph(n, edges)
    if not any(nx.triangles(g).values()) and lam_k != -max(d for _, d in g.degree()):
        problems.append(f"triangle-free but lambda*_K {lam_k} != -Delta")
    return [f"graph {edges}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# catalog-report


SQRT5 = math.sqrt(5)
_NAMED_SPECTRA = {
    "dodecahedron": [3] + [SQRT5] * 3 + [1] * 5 + [0] * 4 + [-2] * 4 + [-SQRT5] * 3,
    "icosahedron": [5] + [SQRT5] * 3 + [-1] * 5 + [-SQRT5] * 3,
    "shrikhande": [6] + [2] * 6 + [-2] * 9,
    "octahedron": [4] + [0] * 3 + [-2] * 2,
}


def _with_multiplicities(pairs):
    return [float(e) for e, mult in pairs for _ in range(mult)]


def closed_form_spectrum(family: str, params) -> list[float]:
    """Eigenvalues from the families' formulas, ascending."""

    if family == "johnson":
        v, k = params
        vals = _with_multiplicities(((k - i) * (v - k - i) - i, math.comb(v, i) - math.comb(v, i - 1) if i else 1)
                                    for i in range(min(k, v - k) + 1))
    elif family in ("kneser", "petersen"):
        v, k = params if family == "kneser" else (5, 2)
        vals = _with_multiplicities(((-1) ** i * math.comb(v - k - i, k - i), math.comb(v, i) - math.comb(v, i - 1) if i else 1)
                                    for i in range(k + 1))
    elif family == "hamming":
        vals = [float(sum(c)) for c in product(*[[q - 1] + [-1] * (q - 1) for q in params])]
    elif family == "circulant":
        n, r = params
        vals = [sum(2 * math.cos(2 * math.pi * j * ell / n) for j in range(1, r + 1)) for ell in range(n)]
    elif family == "prism":
        k = params[0]
        vals = [2 * math.cos(2 * math.pi * ell / k) + s for ell in range(k) for s in (1, -1)]
    else:
        vals = [float(x) for x in _NAMED_SPECTRA[family]]
    return sorted(vals)


EXACT_MAX_ORDER = 64


def check_spectrum(op, stdout: str) -> list[str]:
    expected = closed_form_spectrum(op["family"], op["params"])
    lines = stdout.splitlines()
    name = f"spectrum {op['family']}{tuple(op['params'])}"
    if len(lines) != len(expected):
        return [f"{name}: {len(lines)} eigenvalues printed, {len(expected)} expected"]
    problems = []
    for line, want in zip(lines, expected):
        value = float(line.split()[0])
        flagged = "exact)" in line
        integral = abs(want - round(want)) < 1e-9
        if abs(value - want) > EIG_TOL:
            problems.append(f"{name}: eigenvalue {value} != closed form {want}")
        elif flagged != (integral and op["n"] <= EXACT_MAX_ORDER):
            problems.append(f"{name}: exact flag {flagged} on {want}")
        elif flagged and f"(= {round(want)}, exact)" not in line:
            problems.append(f"{name}: wrong exact value on line {line!r}")
    return problems


def check_bounds(op, stdout: str) -> list[str]:
    n, edges = op["n"], op["edges"]
    name = f"bounds {op['family']}{tuple(op['params'])}"
    doc = json.loads(stdout)
    eig = eigvalsh_min(n, edges)
    problems = []
    if doc["n"] != n or doc["m"] != len(edges):
        problems.append(f"{name}: order/size {doc['n']}/{doc['m']} != {n}/{len(edges)}")
    if abs(doc["lambda"] - eig) > EIG_TOL:
        problems.append(f"{name}: lambda {doc['lambda']} != eigvalsh {eig}")
    by_name = {}
    for entry in doc["bounds"]:
        by_name[entry["name"]] = entry
        if entry["kind"] == "lower" and entry["value"] > eig + EIG_TOL:
            problems.append(f"{name}: lower bound {entry['name']} = {entry['value']} > {eig}")
        if entry["kind"] == "upper" and entry["value"] < eig - EIG_TOL:
            problems.append(f"{name}: upper bound {entry['name']} = {entry['value']} < {eig}")
    star_k = by_name.get("lambda_star_K")
    if star_k is None or star_k["exact"] is None:
        problems.append(f"{name}: no exact lambda_star_K entry")
    elif abs(float(Fraction(star_k["exact"])) - lambda_star_k_highs(n, edges)) > LP_TOL:
        problems.append(f"{name}: lambda*_K {star_k['exact']} differs from the HiGHS optimum")
    return problems


# ---------------------------------------------------------------------------
# reproduce


def check_reproduce(doc_text: str, published) -> list[str]:
    """All rows present with the published expected values, and each passes."""

    doc = json.loads(doc_text)
    rows = doc["rows"]
    problems = []
    got = [[r["example"], r["quantity"], r["expected"]] for r in rows]
    if got != published:
        problems.append(f"table rows differ from the {len(published)} published values")
    for r in rows:
        if r["tol"] == 0:
            ok = r["computed"] == r["expected"]
        else:
            ok = abs(float(r["computed"]) - float(r["expected"])) <= r["tol"]
        if not (ok and r["pass"]):
            problems.append(f"row {r['example']}/{r['quantity']}: computed {r['computed']} expected {r['expected']}")
    if doc["passed"] is not True:
        problems.append("table does not report passed")
    return problems
