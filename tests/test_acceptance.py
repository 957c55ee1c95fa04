"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances and runtime budgets are pinned here; nothing is deferred to
later calibration.  Exact quantities are compared exactly (rationals),
irrational ones within their stated tolerances.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest

from corpus import catalog_corpus, connected_atlas, connected_cubic, random_connected_graph
from spectral_lb.bounds import (
    aab_lower,
    bound_report,
    cubic_clawfree_check,
    cubic_clawfree_theta,
    is_K1k_free,
    tm_lower,
)
from spectral_lb.catalog import (
    SrgParams,
    circulant,
    circulant_spectrum,
    cycle,
    dodecahedron,
    icosahedron,
    johnson,
    johnson_partition,
    kneser,
    kneser_partition,
    octahedron,
    petersen,
    shrikhande,
    srg_second_eigenvalues,
)
from spectral_lb.cliqopt import lambda_star_C, lambda_star_K
from spectral_lb.decomp import (
    CliquePartition,
    Decomposition,
    Piece,
    clique_equality_certificate,
    clique_partition_bound,
    clique_partition_stats,
    cube_decomposition,
    cubic_power_bound,
    decomposition_bound,
    equality_certificate,
    essential_vertices,
    validate,
    validate_partition,
)
from spectral_lb.graphs import (
    add,
    build_simple,
    build_weighted,
    power_multigraph,
)
from spectral_lb.rationals import Q
from spectral_lb.reproduce import build_rows
from spectral_lb.spectra import lambda_min, lambda_min_exact, spectrum

GOLDEN = (1 + math.sqrt(5)) / 2


def _report(criterion, detail):
    print(f"acceptance criterion {criterion}: PASS ({detail})")


def test_criterion_1_exact_spectra():
    t0 = time.perf_counter()
    assert lambda_min_exact(petersen().adjacency(dtype=object)) == Q(-2)
    theta, tau = srg_second_eigenvalues(SrgParams(10, 3, 0, 1))
    assert (theta, tau) == (Q(1), Q(-2))
    assert lambda_min(cycle(5)) == pytest.approx(-GOLDEN, abs=1e-10)
    assert lambda_min(dodecahedron()) == pytest.approx(-math.sqrt(5), abs=1e-10)
    assert lambda_min(icosahedron()) == pytest.approx(-math.sqrt(5), abs=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"exact spectra in {elapsed:.2f}s")


def test_criterion_2_power_identities():
    c5 = cycle(5)
    cube5 = power_multigraph(c5, 3)
    for u in range(5):
        for v in range(u, 5):
            want = (1 if u != v else 0) + 2 * (1 if c5.has_edge(u, v) else 0)
            assert cube5.multiplicity(u, v) == want
    pet = petersen()
    cube_p = power_multigraph(pet, 3)
    for u in range(10):
        for v in range(u, 10):
            if u == v:
                want = 0 + 3 * 0 + 2 * 0  # diagonal of 3A + 2(J - I) is 0
            elif pet.has_edge(u, v):
                want = 3 + 2
            else:
                want = 2
            assert cube_p.multiplicity(u, v) == want
    b5 = cubic_power_bound(c5, cube_decomposition(c5, 2, 1, 0))
    assert b5 == pytest.approx(-GOLDEN, abs=1e-10)
    bp = cubic_power_bound(pet, cube_decomposition(pet, 3, 2, 0))
    assert bp == pytest.approx(-2, abs=1e-10)
    _report(2, "exact cube identities and cubic-root bounds")


def _random_decomposition(rng):
    n = rng.randint(2, 8)
    pieces = []
    style = rng.random()
    if style < 0.4:
        # edge partition of a random simple graph
        g = random_connected_graph(rng, n)
        groups = {}
        for e in g.edges():
            groups.setdefault(rng.randrange(3), []).append(e)
        for edges in groups.values():
            verts = sorted({v for e in edges for v in e})
            index = {v: i for i, v in enumerate(verts)}
            w = {(index[u], index[v]): Q(1) for u, v in edges}
            pieces.append(Piece(build_weighted(len(verts), w), tuple(verts)))
    else:
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, n)
            verts = tuple(sorted(rng.sample(range(n), size)))
            w = {}
            for i, j in combinations(range(size), 2):
                if rng.random() < 0.5:
                    w[(i, j)] = Q(rng.randint(-2, 2), rng.randint(1, 2))
            if rng.random() < 0.3:
                i = rng.randrange(size)
                w[(i, i)] = Q(rng.randint(-2, 2))
            pieces.append(Piece(build_weighted(size, w), verts))
    total = build_weighted(n, {})
    for p in pieces:
        total = add(total, p.embedded(n))
    return Decomposition(total, tuple(pieces))


def test_criterion_3_decomposition_soundness():
    import random

    t0 = time.perf_counter()
    rng = random.Random(34251)
    certificates = 0
    for trial in range(500):
        d = _random_decomposition(rng)
        validate(d)
        b = decomposition_bound(d)
        lam = lambda_min(d.target) if d.target.n else 0.0
        assert b.value <= lam + 1e-8, f"trial {trial}: bound {b.value} above {lam}"
        cert = equality_certificate(d)
        if cert is None:
            continue
        certificates += 1
        x = [float(v) for v in cert]
        table = b.per_vertex
        lam_d = min(table)
        for u, t in enumerate(table):
            if t > lam_d + 1e-8:
                assert abs(x[u]) <= 1e-8, "support condition violated"
        for piece in d.pieces:
            xj = [x[u] for u in piece.embedding]
            if max(abs(v) for v in xj) <= 1e-8:
                continue
            aj = piece.graph.adjacency(dtype=float)
            from spectral_lb.decomp import piece_lambda

            lam_j = float(piece_lambda(piece.graph))
            for i in range(piece.graph.n):
                resid = sum(aj[i][j] * xj[j] for j in range(piece.graph.n)) - lam_j * xj[i]
                assert abs(resid) <= 1e-6, "eigenvector condition violated"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"500 random decompositions sound in {elapsed:.1f}s, {certificates} equality certificates checked")


def test_criterion_4_lambda_star_k():
    t0 = time.perf_counter()

    def has_triangle(g):
        return any((g.rows[u] & g.rows[v]) for u, v in g.edges())

    checked = 0
    for g in connected_atlas(7):
        if g.m == 0 or has_triangle(g):
            continue
        res = lambda_star_K(g)
        assert res.value == Q(-max(g.degrees()))
        _revalidate(res, g)
        checked += 1
    res = lambda_star_K(octahedron())
    assert res.value == Q(-2)
    _revalidate(res, octahedron())
    res = lambda_star_K(shrikhande())
    assert res.value == Q(-3)
    _revalidate(res, shrikhande())
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, f"{checked} triangle-free graphs at -Delta, octahedron -2, shrikhande -3 in {elapsed:.1f}s")


def _revalidate(res, g):
    cliques = tuple(c for c, k in sorted(res.multiplicities.items()) for _ in range(k))
    part = CliquePartition(res.mu, cliques)
    validate_partition(part, g)
    _, r, _ = clique_partition_stats(part, g)
    assert Q(-r, res.mu) == res.value
    assert clique_partition_bound(part, g) == res.value


def test_criterion_5_chain():
    t0 = time.perf_counter()
    count = 0
    for g in connected_atlas(7):
        lam = lambda_min(g)
        star_c = lambda_star_C(g).value
        assert float(star_c) <= lam + 1e-8, f"lambda*_C above lambda on {g.edges()}"
        if g.m:
            star_k = lambda_star_K(g).value
            assert star_k <= star_c, f"chain broken on {g.edges()}"
        count += 1
    c5 = cycle(5)
    assert float(lambda_star_C(c5).value) < lambda_min(c5) - 1e-6
    elapsed = time.perf_counter() - t0
    _report(5, f"chain verified on {count} connected graphs (n <= 7) in {elapsed:.1f}s")


def test_criterion_6_johnson_kneser():
    for v, k in ((5, 2), (6, 2), (6, 3)):
        g = johnson(v, k)
        spec = spectrum(g.adjacency())
        assert spec.values[0] == pytest.approx(-k, abs=1e-8)
        dim = sum(1 for x in spec.values if abs(x + k) < 1e-7)
        assert dim == math.comb(v, k) - math.comb(v, k - 1)
        part = johnson_partition(v, k)
        r_u, r, _ = clique_partition_stats(part, g)
        assert all(x == k for x in r_u)
        assert clique_equality_certificate(part, g) is not None
    g = kneser(6, 2)
    assert lambda_min(g) == pytest.approx(-3, abs=1e-8)
    part = kneser_partition(2)
    r_u, r, _ = clique_partition_stats(part, g)
    assert part.mu == 1 and r == 3 and all(x == 3 for x in r_u)
    assert clique_equality_certificate(part, g) is not None
    _report(6, "johnson (5,2),(6,2),(6,3) and kneser (6,2) with certificates")


def test_criterion_7_essential_vertices():
    g = build_simple(5, [(0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (3, 0)])
    part = CliquePartition(1, ((0, 1, 4), (1, 2), (2, 3), (3, 0)))
    red = essential_vertices(part, g)
    assert red.vstar == (0, 1, 2, 3)
    assert red.kstar is not None
    assert sorted(red.kstar.cliques) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert sorted(red.gstar.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    # the reduction pins lambda: r(K*)/mu on the C4, and the solver agrees
    assert clique_partition_bound(red.kstar, red.gstar) == Q(-2)
    assert clique_equality_certificate(red.kstar, red.gstar) is not None
    assert lambda_min(g) == pytest.approx(-2, abs=1e-10)
    assert lambda_min(red.gstar) == pytest.approx(-2, abs=1e-10)
    _report(7, "C4-plus-triangle reduction gives V* = C4 and lambda = -2")


def test_criterion_8_star_free_suite():
    t0 = time.perf_counter()
    for n, r in ((10, 2), (12, 1), (15, 2), (21, 3)):
        closed = circulant_spectrum(n, r)
        solved = spectrum(circulant(n, r).adjacency()).values
        assert max(abs(a - b) for a, b in zip(closed, solved)) < 1e-8
        free, _ = is_K1k_free(circulant(n, r), 3)
        assert free
    from spectral_lb.catalog import prism

    assert aab_lower(prism(3), 3) == -2.5  # the d = k = 3 case
    theta = cubic_clawfree_theta()
    # exact sign change within 1e-12 brackets the root of x^3 + x + 14
    for eps, sign in ((-1e-12, -1), (1e-12, 1)):
        x = Fraction(theta) + Fraction(eps)
        val = x**3 + x + 14
        assert (val > 0) == (sign > 0)
    corpus_size = 0
    for n in (6, 8, 10, 12):
        for g in connected_cubic(n):
            free, _ = is_K1k_free(g, 3)
            if not free:
                continue
            rep = cubic_clawfree_check(g)
            assert rep.lam >= theta - 1e-9
            corpus_size += 1
    val, vacuous = tm_lower(octahedron())
    assert val == -2.0 and not vacuous
    assert lambda_min(octahedron()) == pytest.approx(-2, abs=1e-9)
    elapsed = time.perf_counter() - t0
    _report(8, f"circulants, theta to 1e-12, {corpus_size} cubic claw-free graphs above theta in {elapsed:.1f}s")


def test_criterion_9_bound_sanity_sweep():
    import random

    t0 = time.perf_counter()
    rng = random.Random(99173)
    graphs = [(name, g) for name, g in catalog_corpus()]
    for i in range(200):
        graphs.append((f"random{i}", random_connected_graph(rng, rng.randint(2, 8))))
    for name, g in graphs:
        rep = bound_report(g, name=name)
        k = g.regular_degree()
        for en in rep.entries:
            if en.kind == "lower":
                assert en.value <= rep.lam + 1e-8, (name, en.name)
            else:
                assert en.value >= rep.lam - 1e-8, (name, en.name)
        if k and g.n <= 18:
            by_name = {en.name: en.value for en in rep.entries}
            if "hoffman" in by_name and "fractional_chromatic" in by_name:
                assert by_name["hoffman"] <= by_name["fractional_chromatic"] + 1e-12
                assert by_name["fractional_chromatic"] <= by_name["chromatic"] + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(9, f"{len(graphs)} graphs swept in {elapsed:.1f}s")


def test_criterion_10_reproduce():
    rows = build_rows()
    assert all(r.passed for r in rows), [r.quantity for r in rows if not r.passed]
    perturbed = build_rows(perturb="petersen")
    assert any(not r.passed for r in perturbed)
    bad = {r.example for r in perturbed if not r.passed}
    assert bad == {"petersen"}
    # command-level exit codes
    from spectral_lb.cli import main

    assert main(["reproduce", "--filter", "five-cycle"]) == 0
    assert main(["reproduce", "--filter", "petersen", "--negative-control"]) == 1
    _report(10, f"{len(rows)} reproduction rows pass; negative control trips")
