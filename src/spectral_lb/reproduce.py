"""Regeneration of every worked numeric example as a pass/fail table.

Each row recomputes one published quantity (an eigenvalue, a bound, an
identity) from scratch and compares it against the expected value, exactly
for rational quantities and within a stated tolerance for irrational ones.
The table is deterministic: two runs serialise to identical JSON.

A negative-control hook can perturb the Petersen graph (one edge removed)
to prove the table actually bites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import catalog
from .bounds import (
    aab_lower,
    chromatic_uppers,
    cubic_clawfree_check,
    cubic_clawfree_theta,
    hoffman_upper,
    is_K1k_free,
    lovasz_upper,
    product_tightness,
    tm_lower,
    triangle_stats,
    vertrans_bound,
)
from .catalog import SrgParams, srg_cubic_coeffs, srg_second_eigenvalues
from .cliqopt import (
    clique_number,
    enumerate_cliques,
    fractional_chromatic,
    independence_number,
    lambda_star_C,
    lambda_star_K,
)
from .decomp import (
    CliquePartition,
    Decomposition,
    Piece,
    cartesian_copy_decomposition,
    clique_equality_certificate,
    clique_partition_bound,
    clique_partition_stats,
    cube_decomposition,
    cubic_power_bound,
    decomposition,
    decomposition_bound,
    equality_certificate,
    essential_vertices,
    line_graph_bound,
    multipartite_decomposition,
    piece_lambda,
    validate,
)
from .graphs import (
    build_multigraph,
    build_simple,
    cartesian_product,
    composition,
    direct_product,
    line_graph,
    multigraph_from_simple,
    power_multigraph,
    scale,
    special_graph,
    twig_replicate,
    weighted_from_multigraph,
    weighted_from_simple,
)
from .rationals import Q, format_q, is_rational
from .spectra import lambda_min, lambda_min_exact, psd_check_exact, spectrum

GOLDEN = (1 + math.sqrt(5)) / 2


@dataclass
class ReproRow:
    example: str
    quantity: str
    expected: str
    computed: str
    diff: float
    tol: float
    passed: bool
    provenance: str


def _fmt(x) -> str:
    if x is None:
        return "none"
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "yes" if x else "no"
    if is_rational(x):
        return format_q(x)
    return f"{float(x):.12f}"


def _row(example, quantity, expected, computed, tol=0.0, provenance="closed form"):
    if expected is None or computed is None:
        passed = expected is computed
        return ReproRow(
            example, quantity, _fmt(expected), _fmt(computed),
            0.0 if passed else math.inf, tol, passed, provenance,
        )
    if isinstance(expected, str) or isinstance(computed, str):
        passed = str(expected) == str(computed)
        diff = 0.0 if passed else math.inf
    elif is_rational(expected) and is_rational(computed):
        diff = abs(float(expected) - float(computed))
        passed = expected == computed
    elif isinstance(expected, bool) or isinstance(computed, bool):
        diff = 0.0 if bool(expected) == bool(computed) else 1.0
        passed = bool(expected) == bool(computed)
    else:
        diff = abs(float(expected) - float(computed))
        passed = diff <= tol
    return ReproRow(
        example, quantity, _fmt(expected), _fmt(computed), diff, tol, passed, provenance
    )


def _error_row(example, quantity, exc):
    return ReproRow(example, quantity, "-", f"error: {exc}", math.inf, 0.0, False, "exception")


def _petersen(perturb):
    g = catalog.petersen()
    if perturb == "petersen":
        edges = [e for e in g.edges() if e != (0, 1)]
        g = build_simple(10, edges)
    return g


def build_rows(perturb: str | None = None, select: str | None = None) -> list[ReproRow]:
    """Recompute every table row; perturb='petersen' flips the negative control.

    Row groups are independent and run in canonical order; select keeps
    only the groups whose example id contains it (every row of a group
    carries the group's id).
    """

    groups = [
        ("special-graphs", _rows_special),
        ("five-cycle", _rows_five_cycle),
        ("petersen", lambda: _rows_petersen(perturb)),
        ("srg-parameters", _rows_srg),
        ("cartesian-hamming", _rows_hamming),
        ("dodecahedron", _rows_dodecahedron),
        ("multipartite", _rows_multipartite),
        ("line-graphs", _rows_line_graphs),
        ("twigs", _rows_twigs),
        ("clique-partitions", _rows_clique_partitions),
        ("johnson", _rows_johnson),
        ("kneser", _rows_kneser),
        ("direct-product", _rows_product),
        ("composition", _rows_composition),
        ("triangulations", _rows_triangulations),
        ("shrikhande", _rows_shrikhande),
        ("ratio-bounds", _rows_ratio_bounds),
        ("essential-vertices", _rows_essential),
        ("lambda-star", _rows_lambda_star),
        ("circulants", _rows_circulants),
        ("star-free", _rows_star_free),
        ("cubic-claw-free", _rows_cubic_clawfree),
    ]

    if select:
        groups = [g for g in groups if select in g[0]]

    rows: list[ReproRow] = []
    for example, builder in groups:
        try:
            rows.extend(builder())
        except Exception as exc:  # pragma: no cover - defensive surface
            rows.append(_error_row(example, "construction", exc))
    return rows


# ---------------------------------------------------------------------------
# row groups


def _rows_special():
    e = "special-graphs"
    return [
        _row(e, "lambda(J_1)", Q(1), piece_lambda(special_graph("J", 1))),
        _row(e, "lambda(J_4)", Q(0), piece_lambda(special_graph("J", 4))),
        _row(e, "lambda(-J_5)", Q(-5), piece_lambda(scale(special_graph("J", 5), -1))),
        _row(e, "lambda(-K_4)", Q(-3), piece_lambda(scale(special_graph("K", 4), -1))),
    ]


def _rows_five_cycle():
    e = "five-cycle"
    c5 = catalog.cycle(5)
    rows = [
        _row(e, "lambda(C_5)", -GOLDEN, lambda_min(c5), tol=1e-10, provenance="eigensolver"),
    ]
    cube = power_multigraph(c5, 3)
    target = weighted_from_multigraph(cube)
    k5 = weighted_from_simple(catalog.complete(5))
    two_c5 = scale(weighted_from_simple(c5), 2)
    d = decomposition(target, [k5, two_c5])
    try:
        validate(d)
        ok = True
    except Exception:
        ok = False
    rows.append(_row(e, "C_5^(3) = K_5 + 2C_5", True, ok, provenance="exact identity"))
    bound = cubic_power_bound(c5, cube_decomposition(c5, 2, 1, 0))
    rows.append(_row(e, "cubic bound", -GOLDEN, bound, tol=1e-10, provenance="root isolation"))
    return rows


def _rows_petersen(perturb):
    e = "petersen"
    g = _petersen(perturb)
    rows = []
    spec = spectrum(g)
    expected = [-2.0] * 4 + [1.0] * 5 + [3.0]
    diff = max(abs(a - b) for a, b in zip(expected, spec.values)) if g.n == 10 else math.inf
    rows.append(
        ReproRow(e, "spectrum {-2^4, 1^5, 3}", "0", _fmt(diff), diff, 1e-9, diff <= 1e-9, "eigensolver")
    )
    exact = lambda_min_exact(g, spec)
    rows.append(_row(e, "lambda = -2 (exact)", Q(-2), exact, provenance="exact certificate"))
    try:
        d3 = cube_decomposition(g, 3, 2, 0)
        validate(d3)
        identity_ok = True
        bound = cubic_power_bound(g, d3)
    except Exception:
        identity_ok = False
        bound = math.nan
    rows.append(_row(e, "A^3 = 3A + 2(J - I)", True, identity_ok, provenance="exact identity"))
    rows.append(_row(e, "cubic bound", -2.0, bound, tol=1e-10, provenance="root isolation"))
    # walk counts in the cube: d(u)+d(v)-1 on edges (girth 5)
    try:
        cube = power_multigraph(g, 3)
        ok = all(
            cube.multiplicity(u, v) == g.degree(u) + g.degree(v) - 1
            for u, v in g.edges()
        )
    except Exception:
        ok = False
    rows.append(_row(e, "cube multiplicity d(u)+d(v)-1 on edges", True, ok, provenance="walk counting"))
    rows.append(_row(e, "A + 2I psd", True, psd_check_exact(g, -2), provenance="rational LDL^T"))
    return rows


def _rows_srg():
    e = "srg-parameters"
    rows = []
    theta, tau = srg_second_eigenvalues(SrgParams(10, 3, 0, 1))
    rows.append(_row(e, "petersen theta", Q(1), theta))
    rows.append(_row(e, "petersen tau", Q(-2), tau))
    rows.append(_row(e, "petersen (r,s,t)", "3,2,0", ",".join(map(str, srg_cubic_coeffs(SrgParams(10, 3, 0, 1))))))
    rows.append(_row(e, "five-cycle (r,s,t)", "2,1,0", ",".join(map(str, srg_cubic_coeffs(SrgParams(5, 2, 0, 1))))))
    th5, ta5 = srg_second_eigenvalues(SrgParams(5, 2, 0, 1))
    rows.append(_row(e, "five-cycle tau", -GOLDEN, ta5, tol=1e-12, provenance="quadratic roots"))
    rows.append(_row(e, "five-cycle theta", GOLDEN - 1, th5, tol=1e-12, provenance="quadratic roots"))
    return rows


def _rows_hamming():
    e = "cartesian-hamming"
    k33 = cartesian_product(catalog.complete(3), catalog.complete(3))
    rows = [_row(e, "lambda(K_3 [] K_3)", -2.0, lambda_min(k33), tol=1e-9, provenance="eigensolver")]
    q3 = catalog.hamming([2, 2, 2])
    rows.append(_row(e, "lambda(Q_3)", -3.0, lambda_min(q3), tol=1e-9, provenance="eigensolver"))
    d = cartesian_copy_decomposition(catalog.complete(3), catalog.complete(3), k33)
    b = decomposition_bound(d)
    rows.append(_row(e, "copy decomposition bound", Q(-2), b.value, provenance="per-vertex sums"))
    return rows


def _rows_dodecahedron():
    e = "dodecahedron"
    g = catalog.dodecahedron()
    rows = [_row(e, "lambda", -math.sqrt(5), lambda_min(g), tol=1e-10, provenance="eigensolver")]
    target = scale(weighted_from_simple(g), 2)
    pieces = []
    for face in catalog.DODECAHEDRON_FACES:
        cyc = weighted_from_simple(catalog.cycle(5))
        pieces.append(Piece(cyc, tuple(face)))
    d = Decomposition(target, tuple(pieces))
    b = decomposition_bound(d)
    expected = -3 * (1 + math.sqrt(5)) / 4
    rows.append(
        _row(e, "face-cycle bound on 2G over 2", expected, b.value / 2, tol=1e-9, provenance="per-vertex sums")
    )
    rows.append(_row(e, "bound below lambda", True, b.value / 2 <= lambda_min(g) + 1e-9, provenance="soundness"))
    return rows


def _rows_multipartite():
    e = "multipartite"
    rows = []
    dec = multipartite_decomposition([2, 2])
    rows.append(_row(e, "K_{2,2} J-bound", Q(-2), decomposition_bound(dec).value))
    cert = equality_certificate(dec)
    rows.append(_row(e, "K_{2,2} equality certificate", True, cert is not None, provenance="exact kernel"))
    rows.append(_row(e, "lambda(K_{2,2})", -2.0, lambda_min(catalog.complete_multipartite([2, 2])), tol=1e-9, provenance="eigensolver"))
    cert21 = equality_certificate(multipartite_decomposition([2, 1]))
    rows.append(_row(e, "K_{2,1} certificate absent", False, cert21 is not None, provenance="exact kernel"))
    rows.append(
        _row(e, "lambda(K_{2,1}) = -sqrt2", -math.sqrt(2), lambda_min(catalog.complete_multipartite([2, 1])), tol=1e-10, provenance="eigensolver")
    )
    return rows


def _rows_line_graphs():
    e = "line-graphs"
    rows = []
    k4 = catalog.complete(4)
    lk4 = line_graph(multigraph_from_simple(k4))
    rows.append(_row(e, "lambda(L(K_4))", -2.0, lambda_min(lk4), tol=1e-9, provenance="eigensolver"))
    rows.append(_row(e, "line bound simple", Q(-2), line_graph_bound(multigraph_from_simple(k4)), provenance="claw pieces"))
    # lambda(L(mu G)) = mu lambda(L(G))
    base = catalog.cycle(4)
    mg2 = build_multigraph(4, {e_: 2 for e_ in base.edges()})
    val = lambda_min(line_graph(mg2))
    ref = lambda_min(line_graph(multigraph_from_simple(base)))
    rows.append(_row(e, "lambda(L(2G)) = 2 lambda(L(G))", 2 * ref, val, tol=1e-8, provenance="eigensolver"))
    rows.append(_row(e, "line bound doubled", Q(-4), line_graph_bound(mg2), provenance="claw pieces"))
    return rows


def _rows_twigs():
    e = "twigs"
    rows = []
    star = build_simple(4, [(0, 1), (0, 2), (0, 3)])
    mg = twig_replicate(star, {(0, 1): 3})
    rows.append(_row(e, "star twig x3 bound min{-2,-3}", Q(-3), line_graph_bound(mg), provenance="claw pieces"))
    rows.append(
        _row(e, "lambda above bound", True, lambda_min(line_graph(mg)) >= -3 - 1e-9, provenance="soundness")
    )
    p3 = catalog.path(3)
    mg2 = twig_replicate(p3, {(0, 1): 2})
    rows.append(_row(e, "path twig x2 bound min{-2,-2}", Q(-2), line_graph_bound(mg2), provenance="claw pieces"))
    rows.append(
        _row(e, "generalized line graph lambda >= -2", True, lambda_min(line_graph(mg2)) >= -2 - 1e-9, provenance="soundness")
    )
    return rows


def _rows_clique_partitions():
    e = "clique-partitions"
    rows = []
    pet = catalog.petersen()
    lpet = line_graph(multigraph_from_simple(pet))
    d = line_graph_bound(multigraph_from_simple(pet))
    rows.append(_row(e, "L(petersen) bound", Q(-2), d, provenance="claw pieces"))
    rows.append(_row(e, "lambda(L(petersen)) >= -2", True, lambda_min(lpet) >= -2 - 1e-9, provenance="soundness"))
    return rows


def _rows_johnson():
    e = "johnson"
    rows = []
    for (v, k), mult in (((5, 2), 5), ((6, 2), 9), ((6, 3), 5)):
        g = catalog.johnson(v, k)
        lam = lambda_min(g)
        rows.append(_row(e, f"lambda(J({v},{k})) = -{k}", float(-k), lam, tol=1e-8, provenance="eigensolver"))
        part = catalog.johnson_partition(v, k)
        r_u, r, _ = clique_partition_stats(part, g)
        rows.append(_row(e, f"J({v},{k}) r_u = k", Q(k), Q(r), provenance="counting"))
        cert = clique_equality_certificate(part, g)
        rows.append(_row(e, f"J({v},{k}) certificate", True, cert is not None, provenance="exact kernel"))
        spec = spectrum(g)
        got = sum(1 for x in spec.values if abs(x + k) < 1e-7)
        rows.append(_row(e, f"J({v},{k}) multiplicity C(v,k)-C(v,k-1)", Q(mult), Q(got), provenance="eigensolver"))
    return rows


def _rows_kneser():
    e = "kneser"
    g = catalog.kneser(6, 2)
    rows = [_row(e, "lambda(Kn(6,2))", -3.0, lambda_min(g), tol=1e-8, provenance="eigensolver")]
    part = catalog.kneser_partition(2)
    r_u, r, _ = clique_partition_stats(part, g)
    rows.append(_row(e, "mu = 1", Q(1), Q(part.mu), provenance="counting"))
    rows.append(_row(e, "r_u = 3", Q(3), Q(r), provenance="counting"))
    rows.append(_row(e, "uniform r_u", True, all(x == 3 for x in r_u), provenance="counting"))
    rows.append(_row(e, "omega = 3", Q(3), Q(clique_number(g)), provenance="search"))
    rows.append(_row(e, "chi_f = v/k", Q(3), fractional_chromatic(g), provenance="exact LP"))
    cert = clique_equality_certificate(part, g)
    rows.append(_row(e, "certificate", True, cert is not None, provenance="exact kernel"))
    star = lambda_star_K(g)
    rows.append(_row(e, "lambda*_K = -3", Q(-3), star.value, provenance="exact LP"))
    return rows


def _rows_product():
    e = "direct-product"
    rows = []
    k3, k4 = catalog.complete(3), catalog.complete(4)
    prod = direct_product(k3, k4)
    rows.append(_row(e, "lambda(K_3 x K_4)", -3.0, lambda_min(prod), tol=1e-8, provenance="eigensolver"))
    part3 = CliquePartition(1, ((0, 1, 2),))
    part4 = CliquePartition(1, ((0, 1, 2, 3),))
    rep = product_tightness(k3, part3, k4, part4)
    rows.append(_row(e, "lambda*_K(K_3 x K_4)", Q(-3), rep["lambda_star_K"], provenance="exact LP"))
    c4 = catalog.cycle(4)
    rep2 = product_tightness(c4, CliquePartition(1, tuple(c4.edges())), k3, part3)
    rows.append(_row(e, "lambda(C_4 x K_3)", Q(-4), rep2["expected"], provenance="degree bound"))
    rows.append(_row(e, "eigensolver agrees", -4.0, rep2["lambda"], tol=1e-8, provenance="eigensolver"))
    return rows


def _rows_composition():
    e = "composition"
    rows = []
    k3 = catalog.complete(3)
    empty2 = build_simple(2, [])
    comp = composition(k3, empty2)
    rows.append(_row(e, "K_3[K_2^c] = K_{2,2,2} lambda", -2.0, lambda_min(comp), tol=1e-8, provenance="eigensolver"))
    # spectrum of G1[G2] for regular G2: eigenvalues of G2 (each m times) plus n lambda_j(G1) + k
    c4, k2 = catalog.cycle(4), catalog.complete(2)
    comp2 = composition(c4, k2)
    spec = sorted(spectrum(comp2).values)
    lam1 = sorted(spectrum(c4).values)
    expected = sorted([-1.0] * 4 + [2 * x + 1 for x in lam1])
    diff = max(abs(a - b) for a, b in zip(expected, spec))
    rows.append(ReproRow(e, "composition spectrum formula", "0", _fmt(diff), diff, 1e-8, diff <= 1e-8, "eigensolver"))
    vb = vertrans_bound(composition(k2, empty2))
    rows.append(_row(e, "K_2[K_2^c] transitive bound", Q(-2), vb, provenance="clique cover = hoffman"))
    rows.append(_row(e, "even cycle C_6 transitive bound", Q(-2), vertrans_bound(catalog.cycle(6)), provenance="clique cover = hoffman"))
    return rows


def _rows_triangulations():
    e = "triangulations"
    rows = []
    octa = catalog.octahedron()
    tris = [c for c in enumerate_cliques(octa, 3) if len(c) == 3]
    part = CliquePartition(2, tuple(tris))
    rows.append(_row(e, "octahedron face bound", Q(-2), clique_partition_bound(part, octa), provenance="counting"))
    rows.append(_row(e, "octahedron lambda", -2.0, lambda_min(octa), tol=1e-9, provenance="eigensolver"))
    m, t = triangle_stats(octa)
    val, _ = tm_lower(octa)
    rows.append(_row(e, "octahedron m,t", "4,2", f"{m},{t}", provenance="counting"))
    rows.append(_row(e, "octahedron -d + m/t", -2.0, val, tol=0.0, provenance="triangle density"))
    ico = catalog.icosahedron()
    tris_i = [c for c in enumerate_cliques(ico, 3) if len(c) == 3]
    part_i = CliquePartition(2, tuple(tris_i))
    rows.append(_row(e, "icosahedron face bound -5/2", Q(-5, 2), clique_partition_bound(part_i, ico), provenance="counting"))
    rows.append(_row(e, "icosahedron lambda", -math.sqrt(5), lambda_min(ico), tol=1e-10, provenance="eigensolver"))
    lov_f, lov_c = lovasz_upper(ico)
    rows.append(_row(e, "icosahedron upper -2e/3n", -5 / 3, lov_c, tol=1e-8, provenance="chromatic"))
    return rows


def _rows_shrikhande():
    e = "shrikhande"
    g = catalog.shrikhande()
    rows = [_row(e, "lambda", -2.0, lambda_min(g), tol=1e-9, provenance="eigensolver")]
    theta, tau = srg_second_eigenvalues(SrgParams(16, 6, 2, 2))
    rows.append(_row(e, "theta", Q(2), theta))
    rows.append(_row(e, "tau", Q(-2), tau))
    # a = c here, so tau <= c - a and the cube trick pins lambda to tau
    r, s, t = srg_cubic_coeffs(SrgParams(16, 6, 2, 2))
    bound = cubic_power_bound(g, cube_decomposition(g, r, s, t))
    rows.append(_row(e, "cube trick reaches tau", -2.0, bound, tol=1e-9, provenance="root isolation"))
    star = lambda_star_K(g)
    rows.append(_row(e, "lambda*_K = -Delta/2", Q(-3), star.value, provenance="exact LP"))
    return rows


def _rows_ratio_bounds():
    e = "ratio-bounds"
    rows = []
    pet = catalog.petersen()
    rows.append(_row(e, "hoffman petersen", -2.0, hoffman_upper(pet), tol=1e-12, provenance="ratio bound"))
    rows.append(_row(e, "alpha petersen", Q(4), Q(independence_number(pet)), provenance="search"))
    frac, chrom = chromatic_uppers(pet)
    rows.append(_row(e, "petersen -k/(chi_f - 1)", -2.0, frac, tol=1e-12, provenance="exact LP"))
    lov_f, _ = lovasz_upper(pet)
    rows.append(_row(e, "petersen lovasz", -2.0, lov_f, tol=1e-8, provenance="exact LP"))
    kn = catalog.complete_multipartite([3, 3])
    rows.append(_row(e, "hoffman K_{3,3}", -3.0, hoffman_upper(kn), tol=1e-12, provenance="ratio bound"))
    octa = catalog.octahedron()
    frac_o, chrom_o = chromatic_uppers(octa)
    rows.append(_row(e, "octahedron -k/(chi - 1)", -2.0, chrom_o, tol=1e-12, provenance="chromatic"))
    rows.append(_row(e, "chi_f(C_5)", Q(5, 2), fractional_chromatic(catalog.cycle(5)), provenance="exact LP"))
    return rows


def _rows_essential():
    e = "essential-vertices"
    g = build_simple(5, [(0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (3, 0)])
    # C_4 on 0-1-2-3 with the edge 0-1 replaced by the triangle {0,1,4}
    part = CliquePartition(1, ((0, 1, 4), (1, 2), (2, 3), (3, 0)))
    red = essential_vertices(part, g)
    rows = [
        _row(e, "V* = C_4", "0,1,2,3", ",".join(map(str, red.vstar)), provenance="fixed point"),
        _row(e, "K* is the 4 edges", Q(4), Q(len(red.kstar.cliques)), provenance="restriction"),
        _row(e, "lambda(G) = -2", -2.0, lambda_min(g), tol=1e-10, provenance="eigensolver"),
        _row(e, "lambda(G*) = -2", -2.0, lambda_min(red.gstar), tol=1e-10, provenance="eigensolver"),
    ]
    return rows


def _rows_lambda_star():
    e = "lambda-star"
    rows = []
    pet = catalog.petersen()
    star = lambda_star_K(pet)
    rows.append(_row(e, "triangle-free petersen -Delta", Q(-3), star.value, provenance="exact LP"))
    c5 = catalog.cycle(5)
    rows.append(_row(e, "triangle-free C_5 -Delta", Q(-2), lambda_star_K(c5).value, provenance="exact LP"))
    octa = catalog.octahedron()
    rows.append(_row(e, "octahedron -k/(omega-1)", Q(-2), lambda_star_K(octa).value, provenance="exact LP"))
    star_c = lambda_star_C(c5)
    rows.append(_row(e, "lambda*_C(C_5)", Q(-2), star_c.value, provenance="exact LP"))
    lam = lambda_min(c5)
    rows.append(_row(e, "strictly below lambda(C_5)", True, float(star_c.value) < lam - 1e-6, provenance="irrationality"))
    km = catalog.complete_multipartite([3, 2])
    rows.append(_row(e, "K_{3,2} lambda*_C >= -3", True, lambda_star_C(km).value >= Q(-3), provenance="exact LP"))
    return rows


def _rows_circulants():
    e = "circulants"
    rows = []
    for n, r in ((10, 2), (12, 1), (15, 2), (21, 3)):
        closed = catalog.circulant_spectrum(n, r)
        solved = spectrum(catalog.circulant(n, r)).values
        diff = max(abs(a - b) for a, b in zip(closed, solved))
        rows.append(
            ReproRow(e, f"C({n},{r}) closed form", "0", _fmt(diff), diff, 1e-8, diff <= 1e-8, "character sums")
        )
        free, _ = is_K1k_free(catalog.circulant(n, r), 3)
        rows.append(_row(e, f"C({n},{r}) claw-free", True, free, provenance="neighbourhood cliques"))
    # when l = 3n/(2(2r+1)) is an integer the closed form pins an upper bound
    for n, r in ((12, 1), (10, 2), (21, 3)):
        if (3 * n) % (2 * (2 * r + 1)) == 0:
            ub = -1 - 1 / math.sin(3 * math.pi / (2 * (2 * r + 1)))
            lam = lambda_min(catalog.circulant(n, r))
            rows.append(
                _row(e, f"C({n},{r}) lambda <= -1 - 1/sin", True, lam <= ub + 1e-9, provenance="character sums")
            )
    return rows


def _rows_star_free():
    e = "star-free"
    rows = []
    prism = catalog.prism(3)
    rows.append(_row(e, "cubic claw-free bound -2.5", -2.5, aab_lower(prism, 3), tol=0.0, provenance="turan"))
    circ = catalog.circulant(12, 2)
    val = aab_lower(circ, 3)
    rows.append(_row(e, "C(12,2) star-free bound", -4 + 2 / 3, val, tol=1e-12, provenance="turan"))
    rows.append(_row(e, "bound below lambda", True, val <= lambda_min(circ) + 1e-9, provenance="soundness"))
    return rows


def _rows_cubic_clawfree():
    e = "cubic-claw-free"
    rows = []
    theta = cubic_clawfree_theta()
    rows.append(_row(e, "theta root of x^3+x+14", -2.272, theta, tol=5e-4, provenance="root isolation"))
    resid = theta**3 + theta + 14
    rows.append(ReproRow(e, "theta residual", "0", _fmt(resid), abs(resid), 1e-12, abs(resid) <= 1e-12, "root isolation"))
    prism = catalog.prism(3)
    rep = cubic_clawfree_check(prism)
    rows.append(_row(e, "prism all K1+K2, lambda = -2", -2.0, rep.lam, tol=1e-9, provenance="eigensolver"))
    rows.append(_row(e, "prism triangle/edge partition", Q(-2), rep.triangle_edge_bound, provenance="counting"))
    dd = build_simple(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (2, 6), (3, 7)],
    )
    rep2 = cubic_clawfree_check(dd)
    rows.append(_row(e, "double diamond count", Q(2), Q(len(rep2.diamonds)), provenance="search"))
    rows.append(_row(e, "double diamond lambda >= theta", True, rep2.lam >= theta - 1e-9, provenance="eigensolver"))
    return rows


# ---------------------------------------------------------------------------
# table rendering


def rows_to_json(rows: list[ReproRow]) -> dict:
    return {
        "rows": [
            {
                "example": r.example,
                "quantity": r.quantity,
                "expected": r.expected,
                "computed": r.computed,
                "diff": round(float(r.diff), 12) if math.isfinite(r.diff) else None,
                "tol": float(r.tol),
                "pass": bool(r.passed),
                "provenance": r.provenance,
            }
            for r in rows
        ],
        "passed": bool(all(r.passed for r in rows)),
    }


def format_table(rows: list[ReproRow]) -> str:
    headers = ("example", "quantity", "expected", "computed", "diff", "ok")
    data = [
        (
            r.example,
            r.quantity,
            r.expected,
            r.computed,
            "inf" if math.isinf(r.diff) else f"{r.diff:.2e}",
            "pass" if r.passed else "FAIL",
        )
        for r in rows
    ]
    widths = [max(len(h), *(len(d[i]) for d in data)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for d in data:
        lines.append("  ".join(d[i].ljust(widths[i]) for i in range(len(headers))))
    npass = sum(1 for r in rows if r.passed)
    lines.append(f"{npass}/{len(rows)} rows pass")
    return "\n".join(lines)
