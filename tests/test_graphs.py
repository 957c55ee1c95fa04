"""Graph value construction, arithmetic, products, powers and line graphs."""

import numpy as np
import pytest

from corpus import connected_atlas, random_connected_graph
from spectral_lb.catalog import complete, complete_multipartite, cycle, petersen
from spectral_lb.graphs import (
    Multigraph,
    add,
    bipartition,
    build_multigraph,
    build_simple,
    build_weighted,
    cartesian_product,
    composition,
    diameter,
    direct_product,
    embed,
    is_connected,
    line_graph,
    line_graph_vertices,
    multigraph_from_simple,
    power_multigraph,
    scale,
    special_graph,
    twig_replicate,
    weighted_from_simple,
)
from spectral_lb.rationals import Q
from spectral_lb.spectra import lambda_min, spectrum


def loops_to_pendants(mg):
    """Replace each loop by an edge to a fresh pendant vertex (line graph unchanged)."""

    mult = {}
    extra = 0
    n = mg.n
    for (u, v), m in sorted(mg.mult.items()):
        if u == v:
            for _ in range(m):
                mult[(u, n + extra)] = 1
                extra += 1
        else:
            mult[(u, v)] = m
    return Multigraph(n + extra, mult)


def test_build_simple_triangle():
    g = build_simple(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3 and g.degrees() == [2, 2, 2]


def test_build_simple_single_vertex():
    g = build_simple(1, [])
    assert g.n == 1 and g.m == 0


def test_build_simple_cycle5():
    g = cycle(5)
    assert g.m == 5 and g.regular_degree() == 2


def test_build_simple_dedupes():
    g = build_simple(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_build_simple_rejects_loop_and_range():
    with pytest.raises(ValueError):
        build_simple(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_simple(3, [(0, 3)])


def test_weighted_from_simple():
    w = weighted_from_simple(cycle(5), 2)
    assert all(v == 2 for v in w.weights.values()) and len(w.weights) == 5
    neg = weighted_from_simple(complete(3), -1)
    assert all(v == -1 for v in neg.weights.values())
    assert weighted_from_simple(cycle(5), 0).is_zero


def test_special_graphs():
    i3 = special_graph("I", 3)
    assert set(i3.weights) == {(0, 0), (1, 1), (2, 2)}
    j4 = special_graph("J", 4)
    assert len(j4.weights) == 10  # 6 pairs + 4 loops
    k3 = special_graph("K", 3)
    assert len(k3.weights) == 3
    with pytest.raises(ValueError):
        special_graph("K", 1)
    # J_1 is a single loop with eigenvalue +1, J_n is singular for n > 1
    assert lambda_min(special_graph("J", 1)) == pytest.approx(1.0)
    assert lambda_min(special_graph("J", 4)) == pytest.approx(0.0, abs=1e-12)
    assert lambda_min(special_graph("K", 3)) == pytest.approx(-1.0)


def test_add_and_scale():
    j4 = special_graph("J", 4)
    i4 = special_graph("I", 4)
    k4 = add(j4, scale(i4, -1))
    assert k4.weights == special_graph("K", 4).weights
    h = weighted_from_simple(cycle(4), Q(1, 3))
    assert add(h, scale(h, -1)).is_zero
    two = add(weighted_from_simple(cycle(4), Q(1, 2)), weighted_from_simple(cycle(4), Q(3, 2)))
    assert two.weights == weighted_from_simple(cycle(4), 2).weights


def test_add_multipartite_identity():
    # J_n minus the part J-blocks leaves exactly the complete multipartite graph
    parts = [2, 2, 1]
    n = sum(parts)
    h = special_graph("J", n)
    start = 0
    for p in parts:
        block = embed(special_graph("J", p), n, range(start, start + p))
        h = add(h, scale(block, -1))
        start += p
    target = weighted_from_simple(complete_multipartite(parts))
    assert h.weights == target.weights


def test_embed_validation():
    j2 = special_graph("J", 2)
    with pytest.raises(ValueError):
        embed(j2, 4, [0, 0])
    with pytest.raises(ValueError):
        embed(j2, 4, [0, 5])
    moved = embed(j2, 4, [3, 1])
    assert (1, 3) in moved.weights and (1, 1) in moved.weights


def _int_matrix_power(g, k):
    a = [[1 if g.has_edge(i, j) else 0 for j in range(g.n)] for i in range(g.n)]
    p = a
    for _ in range(k - 1):
        p = [
            [sum(p[i][x] * a[x][j] for x in range(g.n)) for j in range(g.n)]
            for i in range(g.n)
        ]
    return p


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_multigraph_matches_integer_power(rng, k):
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(2, 7))
        mg = power_multigraph(g, k)
        p = _int_matrix_power(g, k)
        for i in range(g.n):
            for j in range(i, g.n):
                assert mg.multiplicity(i, j) == p[i][j]


def test_power_identity():
    g = cycle(5)
    assert power_multigraph(g, 1).mult == multigraph_from_simple(g).mult


def test_power_cube_walk_counts_girth_five():
    # on graphs of girth at least 5 the cube multiplicities have the closed
    # form: d(u)+d(v)-1 on edges, cross-neighbourhood edge counts otherwise
    for g in connected_atlas(7):
        if g.n < 2:
            continue
        common = _int_matrix_power(g, 2)  # common-neighbour counts off diagonal
        has_triangle = any(common[u][v] >= 1 for u, v in g.edges())
        has_square = any(
            common[u][v] >= 2
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        if has_triangle or has_square:
            continue
        cube = power_multigraph(g, 3)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    assert cube.multiplicity(u, v) == g.degree(u) + g.degree(v) - 1
                else:
                    cross = sum(
                        1
                        for x in g.neighbors(u)
                        for y in g.neighbors(v)
                        if g.has_edge(x, y)
                    )
                    assert cube.multiplicity(u, v) == cross


def test_cartesian_products():
    k2 = complete(2)
    c4 = cartesian_product(k2, k2)
    assert c4.m == 4 and c4.regular_degree() == 2
    k3k3 = cartesian_product(complete(3), complete(3))
    assert k3k3.n == 9 and k3k3.regular_degree() == 4
    assert lambda_min(k3k3) == pytest.approx(-2, abs=1e-9)
    g = petersen()
    unit = cartesian_product(g, complete(1))
    assert unit.rows == g.rows


def test_cartesian_spectrum_is_sums(rng):
    g1 = random_connected_graph(rng, 4)
    g2 = random_connected_graph(rng, 5)
    prod = cartesian_product(g1, g2)
    got = sorted(spectrum(prod.adjacency()).values)
    want = sorted(
        a + b
        for a in spectrum(g1.adjacency()).values
        for b in spectrum(g2.adjacency()).values
    )
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-8


def test_direct_products():
    k2 = complete(2)
    two_edges = direct_product(k2, k2)
    assert two_edges.m == 2 and two_edges.n == 4
    kk = direct_product(complete(3), complete(4))
    assert lambda_min(kk) == pytest.approx(-3, abs=1e-8)
    empty = direct_product(petersen(), complete(1))
    assert empty.m == 0 and empty.n == 10


def test_direct_spectrum_is_products(rng):
    g1 = random_connected_graph(rng, 4)
    g2 = random_connected_graph(rng, 5)
    prod = direct_product(g1, g2)
    got = sorted(spectrum(prod.adjacency()).values)
    want = sorted(
        a * b
        for a in spectrum(g1.adjacency()).values
        for b in spectrum(g2.adjacency()).values
    )
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-8


def test_composition():
    k2 = complete(2)
    assert composition(k2, k2).m == 6  # K_4
    km = composition(complete(3), build_simple(2, []))
    target = complete_multipartite([2, 2, 2])
    assert sorted(km.edges()) == sorted(target.edges())


def test_composition_spectrum_formula(rng):
    # for k-regular G2 on n vertices the composition spectrum is the G2
    # spectrum repeated m times (valency dropped) plus n lambda_j(G1) + k
    g1 = random_connected_graph(rng, 4)
    g2 = cycle(4)
    comp = composition(g1, g2)
    got = sorted(spectrum(comp.adjacency()).values)
    lam1 = spectrum(g1.adjacency()).values
    lam2 = sorted(spectrum(g2.adjacency()).values)[:-1] * g1.n
    want = sorted(list(lam2) + [g2.n * x + 2 for x in lam1])
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-8


def test_line_graph_triangle_and_k4():
    lk3 = line_graph(multigraph_from_simple(complete(3)))
    assert lk3.n == 3 and lk3.m == 3
    lk4 = line_graph(multigraph_from_simple(complete(4)))
    assert lk4.n == 6 and lk4.regular_degree() == 4
    assert lambda_min(lk4) == pytest.approx(-2, abs=1e-9)


def test_line_graph_parallel_edges_nonadjacent():
    mg = build_multigraph(2, {(0, 1): 3})
    lg = line_graph(mg)
    assert lg.n == 3 and lg.m == 0


def test_line_graph_scaling_law(rng):
    g = random_connected_graph(rng, 5)
    mu = 2
    mg = build_multigraph(g.n, {e: mu for e in g.edges()})
    lam = lambda_min(line_graph(mg))
    ref = lambda_min(line_graph(multigraph_from_simple(g)))
    assert lam == pytest.approx(mu * ref, abs=1e-8)


def test_line_graph_rejects_loops():
    mg = build_multigraph(2, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        line_graph(mg)
    fixed = loops_to_pendants(mg)
    assert fixed.is_loopless and fixed.n == 3
    assert line_graph(fixed).n == 2


def test_line_graph_vertex_order_deterministic():
    mg = build_multigraph(3, {(0, 1): 2, (1, 2): 1})
    assert line_graph_vertices(mg) == [(0, 1, 0), (0, 1, 1), (1, 2, 0)]


def test_twig_replicate():
    star = build_simple(4, [(0, 1), (0, 2), (0, 3)])
    mg = twig_replicate(star, {(0, 1): 3})
    assert mg.multiplicity(0, 1) == 3 and mg.multiplicity(0, 2) == 1
    g = cycle(4)
    same = twig_replicate(g, {})
    assert same.mult == multigraph_from_simple(g).mult
    with pytest.raises(ValueError):
        twig_replicate(g, {(0, 1): 2})  # C4 has no twigs


def test_traversal_helpers():
    g = cycle(6)
    assert is_connected(g) and diameter(g) == 3
    parts = bipartition(g)
    assert parts is not None and sorted(map(len, parts)) == [3, 3]
    assert bipartition(cycle(5)) is None
    two = build_simple(4, [(0, 1), (2, 3)])
    assert not is_connected(two)
    with pytest.raises(ValueError):
        diameter(two)


def test_weighted_adjacency_exact():
    h = build_weighted(3, {(0, 1): Q(1, 3), (2, 2): Q(-2)})
    aq = h.adjacency_q()
    assert aq[0][1] == Q(1, 3) and aq[1][0] == Q(1, 3) and aq[2][2] == Q(-2)
    a = h.adjacency()
    assert np.allclose(a, a.T)


def test_build_weighted_converts_each_weight_by_its_type():
    h = build_weighted(4, {(0, 1): 1, (1, 2): 1, (2, 3): "1/2", (0, 3): Q(1, 2), (0, 2): 0})
    assert h.weights == {(0, 1): Q(1), (1, 2): Q(1), (2, 3): Q(1, 2), (0, 3): Q(1, 2)}
    assert all(type(w) is Q for w in h.weights.values())
    # a float equal to a weight already seen as an int is still refused
    with pytest.raises(TypeError):
        build_weighted(3, {(0, 1): 1, (1, 2): 1.0})
    with pytest.raises(TypeError):
        build_weighted(3, {(0, 1): Q(1), (1, 2): 1.0})
