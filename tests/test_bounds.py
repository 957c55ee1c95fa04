"""Closed-form bound suite against oracles and known tight cases."""

import math
import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.generators.atlas import graph_atlas_g

from corpus import connected_atlas, random_connected_graph
from spectral_lb.bounds import (
    MAX_BETA_ORDER,
    alon_sudakov_lower,
    aab_lower,
    bipartiteness_ratio,
    bound_report,
    chromatic_uppers,
    cubic_clawfree_check,
    cubic_clawfree_theta,
    find_diamonds,
    hoffman_upper,
    is_K1k_free,
    lovasz_upper,
    product_partition,
    product_tightness,
    tm_lower,
    trevisan_lower,
    triangle_stats,
    vertrans_bound,
)
from spectral_lb.catalog import (
    circulant,
    complete,
    complete_multipartite,
    cycle,
    hamming,
    icosahedron,
    johnson,
    kneser,
    octahedron,
    petersen,
    prism,
    shrikhande,
)
from spectral_lb.decomp import CliquePartition
from spectral_lb.graphs import CapExceeded, NotApplicable, build_simple, composition
from spectral_lb.rationals import Q, is_rational
from spectral_lb.spectra import lambda_min, lambda_min_exact, psd_check_exact


# ---------------------------------------------------------------------------
# upper bounds


def test_hoffman():
    assert hoffman_upper(petersen()) == pytest.approx(-2, abs=1e-12)
    assert hoffman_upper(complete_multipartite([4, 4])) == pytest.approx(-4, abs=1e-12)
    c5 = cycle(5)
    assert hoffman_upper(c5) == pytest.approx(-4 / 3, abs=1e-12)
    assert lambda_min(c5) <= hoffman_upper(c5)
    with pytest.raises(ValueError):
        hoffman_upper(build_simple(3, [(0, 1)]))


def test_chromatic_chain_petersen():
    frac, chrom = chromatic_uppers(petersen())
    assert frac == pytest.approx(-2, abs=1e-12)  # chi_f = 5/2
    assert chrom == pytest.approx(-3 / 2, abs=1e-12)
    assert hoffman_upper(petersen()) <= frac <= chrom


def test_chromatic_chain_octahedron_tight():
    frac, chrom = chromatic_uppers(octahedron())
    assert chrom == pytest.approx(-2, abs=1e-12)
    assert lambda_min(octahedron()) == pytest.approx(-2, abs=1e-9)


def test_lovasz():
    lov_f, lov_c = lovasz_upper(complete(6))
    assert lov_f == pytest.approx(-1, abs=1e-9)
    ico = icosahedron()
    _, by_chi = lovasz_upper(ico)
    # 5-regular triangulation with chi = 4: upper bound -2e/3n = -5/3
    assert by_chi == pytest.approx(-5 / 3, abs=1e-9)
    assert lambda_min(ico) <= by_chi + 1e-9


def test_fracbound_chain_regular_corpus():
    for g in connected_atlas(6):
        k = g.regular_degree()
        if not k:
            continue
        lam = lambda_min(g)
        hoff = hoffman_upper(g)
        frac, chrom = chromatic_uppers(g)
        assert lam <= hoff + 1e-8
        assert hoff <= frac + 1e-12
        assert frac <= chrom + 1e-12


# ---------------------------------------------------------------------------
# lower bounds


def test_alon_sudakov():
    assert alon_sudakov_lower(cycle(5)) == pytest.approx(-2 + 1 / 15, abs=1e-12)
    assert alon_sudakov_lower(petersen()) == pytest.approx(-3 + 1 / 30, abs=1e-12)
    assert alon_sudakov_lower(complete(3)) == pytest.approx(-2 + 1 / 6, abs=1e-12)
    with pytest.raises(ValueError):
        alon_sudakov_lower(cycle(6))  # bipartite


def _beta_brute(g):
    best = None
    edges = g.edges()
    degs = g.degrees()
    for assign in product((0, 1, 2), repeat=g.n):
        den = sum(degs[v] for v in range(g.n) if assign[v])
        if not den:  # S empty or isolated vertices only
            continue
        num = 0
        for u, v in edges:
            au, av = assign[u], assign[v]
            if au and av:
                if au == av:
                    num += 2
            elif au or av:
                num += 1
        r = Q(num, den)
        if best is None or r < best:
            best = r
    return best


def _witness_ratio(g, wit):
    """(2e(L) + 2e(R) + e(S, V-S)) / vol(S), recomputed from left and right alone."""

    left, right = set(wit.left), set(wit.right)
    assert not left & right
    s = left | right
    assert wit.subset == tuple(sorted(s))
    num = 0
    for u, v in g.edges():
        if (u in left and v in left) or (u in right and v in right):
            num += 2
        elif (u in s) != (v in s):
            num += 1
    degs = g.degrees()
    return Q(num, sum(degs[v] for v in s))


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_simple(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _beta_dfs(g):
    """Reference beta: depth-first out / L / R assignment with a volume prune.

    A branch at vertex v carries the numerator num and the volume vol of S
    so far; num never decreases and vol grows by at most rest[v], the degree
    sum of v..n-1, so the branch is cut once num / (vol + rest[v]) reaches
    the incumbent.  The first vertex of S goes to L only.
    """

    n, rows, degs = g.n, g.rows, g.degrees()
    rest = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        rest[v] = rest[v + 1] + degs[v]
    best = [1, 0]  # num, den: +infinity

    def walk(v, mask_l, mask_r, mask_out, num, vol):
        if best[1] and num * best[1] >= best[0] * (vol + rest[v]):
            return
        if v == n:
            if vol:
                best[:] = num, vol
            return
        row, bit, deg = rows[v], 1 << v, degs[v]
        walk(v + 1, mask_l, mask_r, mask_out | bit, num + (row & (mask_l | mask_r)).bit_count(), vol)
        walk(v + 1, mask_l | bit, mask_r, mask_out,
             num + 2 * (row & mask_l).bit_count() + (row & mask_out).bit_count(), vol + deg)
        if mask_l:
            walk(v + 1, mask_l, mask_r | bit, mask_out,
                 num + 2 * (row & mask_r).bit_count() + (row & mask_out).bit_count(), vol + deg)

    walk(0, 0, 0, 0, 0, 0)
    return Q(*best)


def test_bipartiteness_ratio_matches_brute():
    # every graph on 1-6 vertices with an edge, disconnected ones included
    count = 0
    for h in graph_atlas_g():
        if not 1 <= h.number_of_nodes() <= 6 or not h.number_of_edges():
            continue
        g = build_simple(h.number_of_nodes(), list(h.edges()))
        wit = bipartiteness_ratio(g)
        assert wit.ratio == _beta_brute(g), list(h.edges())
        assert _witness_ratio(g, wit) == wit.ratio
        count += 1
    assert count == 202


def test_bipartiteness_ratio_matches_the_dfs_on_the_atlas():
    # every graph on 1-7 vertices with an edge
    count = 0
    for h in graph_atlas_g():
        if not h.number_of_edges():
            continue
        g = build_simple(h.number_of_nodes(), list(h.edges()))
        wit = bipartiteness_ratio(g)
        assert wit.ratio == _beta_dfs(g), list(h.edges())
        assert _witness_ratio(g, wit) == wit.ratio
        count += 1
    assert count == 1245


@st.composite
def _beta_cases(draw):
    """(graph with an edge, whether it is bipartite by construction, a relabelling).

    Part 2 holds isolated vertices; a bipartite draw keeps only the edges
    between parts 0 and 1.
    """

    n = draw(st.integers(2, 12))
    part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    bipartite = draw(st.booleans())
    pairs = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if 2 not in (part[u], part[v]) and not (bipartite and part[u] == part[v])
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    assume(edges)
    return build_simple(n, edges), bipartite, draw(st.permutations(range(n)))


@given(_beta_cases())
@example((build_simple(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), False, list(range(6, -1, -1))))
@example((build_simple(12, [(0, 11)]), True, list(range(12))))
@settings(max_examples=100, deadline=None)
def test_bipartiteness_ratio_matches_the_dfs_under_relabelling(case):
    g, bipartite, perm = case
    wit = bipartiteness_ratio(g)
    assert wit.ratio == _beta_dfs(g)
    assert _witness_ratio(g, wit) == wit.ratio
    if bipartite:
        assert wit.ratio == 0
    h = build_simple(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    wit_h = bipartiteness_ratio(h)
    assert wit_h.ratio == wit.ratio
    assert _witness_ratio(h, wit_h) == wit.ratio


@pytest.mark.parametrize(
    "g, beta",
    [
        (circulant(13, 3), Q(1, 3)),
        (circulant(14, 3), Q(1, 3)),
        (hamming((2, 6)), Q(1, 3)),
        (icosahedron(), Q(1, 3)),
        (prism(7), Q(2, 21)),
    ],
    ids=["circulant(13,3)", "circulant(14,3)", "hamming(2,6)", "icosahedron", "prism(7)"],
)
def test_bipartiteness_ratio_at_the_cap(g, beta):
    for seed in (1, 2):
        h = _relabelled(g, seed)
        wit = bipartiteness_ratio(h)
        assert wit.ratio == beta
        assert _witness_ratio(h, wit) == beta


@pytest.mark.parametrize("g", [prism(7), circulant(14, 3)], ids=["prism(7)", "circulant(14,3)"])
def test_bipartiteness_ratio_memory_at_the_cap(g):
    assert g.n == MAX_BETA_ORDER
    tracemalloc.start()
    try:
        bipartiteness_ratio(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bipartiteness_known_values():
    assert bipartiteness_ratio(cycle(6)).ratio == Q(0)  # bipartite
    assert bipartiteness_ratio(cycle(5)).ratio == Q(1, 5)
    assert bipartiteness_ratio(petersen()).ratio == Q(1, 5)


def test_bipartiteness_witness_consistent():
    wit = bipartiteness_ratio(cycle(5))
    assert set(wit.left) | set(wit.right) == set(wit.subset)
    assert not set(wit.left) & set(wit.right)
    assert _witness_ratio(cycle(5), wit) == wit.ratio


def test_trevisan():
    pet = petersen()
    val = trevisan_lower(pet)
    assert val == pytest.approx(-3 + (1 / 5) ** 2 / 3, abs=1e-12)
    assert val <= -2 + 1e-9  # below lambda


def test_triangle_stats():
    assert triangle_stats(octahedron()) == (4, 2)
    assert triangle_stats(petersen()) == (0, 0)
    assert triangle_stats(complete(4)) == (3, 2)


def test_tm_lower():
    assert tm_lower(octahedron()) == (-2.0, False)
    assert tm_lower(complete(4)) == (-1.5, False)
    val, vacuous = tm_lower(petersen())
    assert vacuous and val == -3.0
    ico_val, _ = tm_lower(icosahedron())
    assert ico_val == pytest.approx(-2.5, abs=1e-12)
    assert ico_val <= -math.sqrt(5) + 1e-9


def test_is_k1k_free():
    claw = build_simple(4, [(0, 1), (0, 2), (0, 3)])
    free, witness = is_K1k_free(claw, 3)
    assert not free
    centre, leaves = witness
    assert centre == 0 and set(leaves) == {1, 2, 3}
    free, _ = is_K1k_free(circulant(11, 2), 3)
    assert free
    free, _ = is_K1k_free(petersen(), 3)
    assert not free  # girth 5, independent neighbourhoods
    # line graphs are claw-free
    from spectral_lb.graphs import line_graph, multigraph_from_simple

    free, _ = is_K1k_free(line_graph(multigraph_from_simple(petersen())), 3)
    assert free
    # K_{1,4}-free but not K_{1,3}-free
    free4, _ = is_K1k_free(claw, 4)
    assert free4


def test_aab_lower():
    assert aab_lower(prism(3), 3) == pytest.approx(-2.5, abs=1e-12)
    circ = circulant(12, 2)
    assert aab_lower(circ, 3) == pytest.approx(-4 + 2 / 3, abs=1e-12)
    assert aab_lower(circ, 3) <= lambda_min(circ) + 1e-9
    with pytest.raises(ValueError):
        aab_lower(petersen(), 3)  # has induced claws


def test_tm_refines_aab(rng):
    # for regular K_{1,k}-free graphs: m >= t(d,k) and t <= d-1
    from spectral_lb.cliqopt import turan_t

    for g in connected_atlas(7):
        k = g.regular_degree()
        if not k or k < 3:
            continue
        free, _ = is_K1k_free(g, 3)
        if not free:
            continue
        m, t = triangle_stats(g)
        assert m >= turan_t(k, 3)
        assert t <= k - 1
        val_tm, vac = tm_lower(g)
        if not vac:
            assert val_tm >= aab_lower(g, 3) - 1e-12


def test_theta_root():
    theta = cubic_clawfree_theta()
    assert abs(theta**3 + theta + 14) < 1e-12
    assert theta == pytest.approx(-2.272, abs=5e-4)


def test_cubic_clawfree_prism():
    rep = cubic_clawfree_check(prism(3))
    assert all(kind == "K1+K2" for kind in rep.neighborhood_kinds)
    assert rep.triangle_edge_bound == Q(-2)
    assert rep.lam == pytest.approx(-2, abs=1e-9)


def test_cubic_clawfree_double_diamond():
    g = build_simple(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (2, 6), (3, 7)],
    )
    rep = cubic_clawfree_check(g)
    assert len(rep.diamonds) == 2
    assert rep.middle_edges == ((0, 1), (4, 5))
    assert rep.lam >= rep.theta - 1e-9
    # middle edges are vertex disjoint by construction of the check
    assert not set(rep.middle_edges[0]) & set(rep.middle_edges[1])


def test_cubic_clawfree_rejects():
    with pytest.raises(ValueError):
        cubic_clawfree_check(petersen())  # not claw-free
    with pytest.raises(ValueError):
        cubic_clawfree_check(cycle(6))  # not cubic
    with pytest.raises(ValueError):
        cubic_clawfree_check(complete(4))  # too small


def test_find_diamonds_none_in_girth5():
    assert find_diamonds(petersen()) == []


def test_circulant_family_goes_linearly_negative():
    # along n with l = 3n/(2(2r+1)) integral the smallest eigenvalue drops
    # at least linearly in r: lambda <= -1 - 0.4 r
    for r, n in ((2, 10), (4, 12), (7, 20)):
        assert (3 * n) % (2 * (2 * r + 1)) == 0
        lam = lambda_min(circulant(n, r))
        ub = -1 - 1 / math.sin(3 * math.pi / (2 * (2 * r + 1)))
        assert lam <= ub + 1e-9
        assert lam <= -1 - 0.4 * r + 1e-9


# ---------------------------------------------------------------------------
# partition side conditions


def test_product_partition_and_tightness():
    k3, k4 = complete(3), complete(4)
    rep = product_tightness(k3, CliquePartition(1, ((0, 1, 2),)), k4, CliquePartition(1, ((0, 1, 2, 3),)))
    assert rep["expected"] == Q(-3)
    assert rep["lambda_star_K"] == Q(-3)
    c4 = cycle(4)
    rep2 = product_tightness(c4, CliquePartition(1, tuple(c4.edges())), k3, CliquePartition(1, ((0, 1, 2),)))
    assert rep2["expected"] == Q(-4)
    assert rep2["lambda"] == pytest.approx(-4, abs=1e-8)


def test_product_tightness_rejects_a_partition_that_misses_lambda():
    # the edges of C5 attain -d/(c - 1) = -2, but lambda(C5) = -1.618...
    c5 = cycle(5)
    with pytest.raises(ValueError, match="does not match lambda"):
        product_tightness(c5, CliquePartition(1, tuple(c5.edges())), complete(3), CliquePartition(1, ((0, 1, 2),)))


def test_product_partition_mu():
    k3, k4 = complete(3), complete(4)
    part, c1, c2 = product_partition(k3, CliquePartition(1, ((0, 1, 2),)), k4, CliquePartition(1, ((0, 1, 2, 3),)))
    assert (c1, c2) == (3, 4)
    assert part.mu == 2  # P(c2-2, c1-2) = P(2,1) = 2


def test_k2_x_k2():
    from spectral_lb.graphs import direct_product

    prod = direct_product(complete(2), complete(2))
    assert lambda_min(prod) == pytest.approx(-1, abs=1e-12)


# ---------------------------------------------------------------------------
# vertex- and edge-transitive graphs


def _transitive_by_automorphisms(h) -> bool:
    """Vertex- and edge-transitivity of a networkx graph with an edge, from the orbits of one vertex and one edge."""

    u, v = next(iter(h.edges()))
    vertices, edges = set(), set()
    for auto in GraphMatcher(h, h).isomorphisms_iter():
        vertices.add(auto[u])
        edges.add(frozenset((auto[u], auto[v])))
        if len(vertices) == h.number_of_nodes() and len(edges) == h.number_of_edges():
            return True
    return False


def test_vertrans_bound_accepts_exactly_the_transitive_atlas_graphs_with_alpha_omega_n():
    # every graph on 1-7 vertices with an edge, disconnected ones included
    accepted = 0
    for h in graph_atlas_g():
        if not h.number_of_edges():
            continue
        g = build_simple(h.number_of_nodes(), list(h.edges()))
        alpha = max(map(len, nx.find_cliques(nx.complement(h))))
        omega = max(map(len, nx.find_cliques(h)))
        expected = _transitive_by_automorphisms(h) and alpha * omega == g.n
        try:
            value = vertrans_bound(g)
        except NotApplicable:
            assert not expected, list(h.edges())
            continue
        assert expected, list(h.edges())
        assert value == Q(-max(g.degrees()), omega - 1) == lambda_min_exact(g)
        accepted += 1
    assert accepted == 13


def test_vertrans_bound_cases():
    assert vertrans_bound(cycle(6)) == Q(-2)
    assert vertrans_bound(cycle(4)) == Q(-2)
    assert vertrans_bound(complete(5)) == Q(-1)
    for g in (
        petersen(),  # alpha * omega = 8 != 10
        build_simple(3, [(0, 1), (1, 2)]),  # not regular
        build_simple(4, []),  # no edge
        prism(3),  # alpha * omega = 6, but the triangles miss the rungs
    ):
        with pytest.raises(NotApplicable):
            vertrans_bound(g)
    # composition of qualifying graphs qualifies
    k2 = complete(2)
    empty2 = build_simple(2, [])
    comp = composition(k2, empty2)  # C4
    assert vertrans_bound(comp) == Q(-2)


@pytest.mark.parametrize(
    "g,value",
    [
        (cycle(12), -2),
        (cycle(16), -2),
        (johnson(6, 2), -2),
        (kneser(6, 2), -3),
        (hamming((2, 2, 2, 2)), -4),
    ],
    ids=["C12", "C16", "J(6,2)", "K(6,2)", "Q4"],
)
def test_vertrans_bound_is_exact_past_ten_vertices(g, value):
    assert vertrans_bound(g) == value
    assert psd_check_exact(g, value)
    assert lambda_min_exact(g) == value


# ---------------------------------------------------------------------------
# aggregated report


def test_bound_report_invariants(rng):
    for _ in range(6):
        g = random_connected_graph(rng, rng.randint(3, 8))
        rep = bound_report(g, lp=True)
        for en in rep.entries:
            if en.kind == "lower":
                assert en.value <= rep.lam + 1e-8, en
            else:
                assert en.value >= rep.lam - 1e-8, en


def test_bound_report_shrikhande_lp_gap():
    rep = bound_report(shrikhande(), lp=True)
    names = {en.name: en for en in rep.entries}
    star_k = names["lambda_star_K"].value
    assert is_rational(star_k) and star_k == Q(-3)
    assert rep.lam == pytest.approx(-2, abs=1e-9)


def test_bound_report_trevisan_cap():
    names = {en.name for en in bound_report(circulant(14, 2)).entries}
    assert "trevisan" in names
    rep = bound_report(circulant(15, 2))
    assert "trevisan" not in {en.name for en in rep.entries}
    assert ("trevisan", "n = 15 exceeds the cap n <= 14") in rep.skipped


def test_bound_report_solves_each_shared_quantity_once(monkeypatch):
    # chi_f and chi serve both the chromatic and the Lovasz bounds, one
    # spectrum gives both lambda and lambda_1, and claw-freeness is decided
    # once: Petersen has claws, the icosahedron has none and gets the
    # star-free bound
    import numpy as np

    import spectral_lb.bounds as bounds

    names = ("fractional_chromatic", "chromatic_number", "is_K1k_free", "eigh")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names[:-1]:
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for g, star_free in ((petersen(), False), (icosahedron(), True)):
        calls.update(dict.fromkeys(names, 0))
        rep = bound_report(g)
        entries = {en.name for en in rep.entries}
        assert {"fractional_chromatic", "chromatic", "lovasz_fractional", "lovasz_chromatic"} <= entries
        assert ("star_free_k3" in entries) == star_free
        assert calls == dict.fromkeys(names, 1)


def test_bound_report_violations_use_the_tightness_tolerance():
    from spectral_lb.bounds import TIGHT_TOL, BoundEntry, BoundReport

    rep = BoundReport("g", 2, 1, -1.0)
    rep.entries += [
        BoundEntry("low_ok", "lower", -1.0 + TIGHT_TOL / 2),
        BoundEntry("low_bad", "lower", -1.0 + 2 * TIGHT_TOL),
        BoundEntry("up_ok", "upper", -1.0 - TIGHT_TOL / 2),
        BoundEntry("up_bad", "upper", -1.0 - 2 * TIGHT_TOL),
        BoundEntry("far_ok", "lower", -5.0),
    ]
    assert [en.name for en in rep.violations] == ["low_bad", "up_bad"]


def _path(n):
    return build_simple(n, [(u, u + 1) for u in range(n - 1)])


def _capped_calls():
    import numpy as np

    import spectral_lb.bounds as bounds
    import spectral_lb.cliqopt as cliqopt
    import spectral_lb.spectra as spectra
    from spectral_lb.cliqopt import (
        chromatic_number,
        clique_number,
        enumerate_cliques,
        fractional_chromatic,
        lambda_star_C,
        lambda_star_K,
    )
    from spectral_lb.spectra import spectrum

    # (public function, its argument builder, the cap, the computation named)
    return [
        (spectrum, lambda n: np.zeros((n, n)), spectra.MAX_ORDER, "spectrum"),
        (enumerate_cliques, _path, cliqopt.MAX_CLIQUE_ORDER, "clique enumeration"),
        (clique_number, _path, cliqopt.MAX_CLIQUE_ORDER, "clique number"),
        (chromatic_number, _path, cliqopt.MAX_COLOR_ORDER, "chromatic number"),
        (fractional_chromatic, _path, cliqopt.MAX_COLOR_ORDER, "fractional chromatic number"),
        (lambda_star_K, _path, cliqopt.MAX_CLIQUE_ORDER, "lambda*_K"),
        (lambda_star_C, _path, cliqopt.MAX_COMPLETE_ORDER, "lambda*_C"),
        (bipartiteness_ratio, _path, bounds.MAX_BETA_ORDER, "bipartiteness ratio"),
        (vertrans_bound, cycle, cliqopt.MAX_CLIQUE_ORDER, "clique number"),
        (trevisan_lower, cycle, bounds.MAX_BETA_ORDER, "bipartiteness ratio"),
        (hoffman_upper, cycle, cliqopt.MAX_CLIQUE_ORDER, "clique number"),
    ]


@pytest.mark.parametrize("call", _capped_calls(), ids=lambda call: call[0].__name__)
def test_every_capped_search_raises_cap_exceeded_one_above_its_cap(call):
    fn, build, cap, what = call
    with pytest.raises(CapExceeded) as info:
        fn(build(cap + 1))
    assert (info.value.what, info.value.reason) == (what, f"n = {cap + 1} exceeds the cap n <= {cap}")


def test_failed_hypotheses_raise_not_applicable_and_bad_arguments_plain_value_error():
    for fn, g in (
        (alon_sudakov_lower, cycle(6)),
        (hoffman_upper, build_simple(30, [])),
        (tm_lower, build_simple(1, [])),
        (lambda g: aab_lower(g, 3), petersen()),
        (cubic_clawfree_check, cycle(6)),
    ):
        with pytest.raises(NotApplicable):
            fn(g)
    with pytest.raises(ValueError) as info:
        is_K1k_free(petersen(), 2)
    assert not isinstance(info.value, NotApplicable)


@pytest.mark.parametrize(
    "g,skipped",
    [
        (build_simple(30, []), []),
        (build_simple(1, []), []),
        (
            # 2 x C13: disconnected and 2-regular, so every capped bound that
            # applies is skipped and the connected-only ones are left out
            build_simple(26, [(i + s, (i + 1) % 13 + s) for s in (0, 13) for i in range(13)]),
            [
                ("trevisan", "n = 26 exceeds the cap n <= 14"),
                ("lambda_star_K", "n = 26 exceeds the cap n <= 24"),
                ("lambda_star_C", "n = 26 exceeds the cap n <= 10"),
                ("hoffman", "n = 26 exceeds the cap n <= 24"),
                ("fractional_chromatic", "n = 26 exceeds the cap n <= 18"),
                ("chromatic", "n = 26 exceeds the cap n <= 18"),
                ("lovasz_fractional", "n = 26 exceeds the cap n <= 18"),
                ("lovasz_chromatic", "n = 26 exceeds the cap n <= 18"),
            ],
        ),
    ],
    ids=["edgeless30", "K1", "two_C13"],
)
def test_bound_report_tests_each_hypothesis_before_its_cap(g, skipped):
    # a bound whose hypotheses fail is left out even above its cap
    rep = bound_report(g, lp=True)
    assert rep.entries == []
    assert rep.skipped == skipped
