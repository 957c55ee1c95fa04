"""Decomposition bounds, equality certificates and the clique machinery."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_connected_graph
from spectral_lb.catalog import (
    complete,
    complete_multipartite,
    cycle,
    dodecahedron,
    DODECAHEDRON_FACES,
    icosahedron,
    johnson,
    johnson_partition,
    kneser,
    kneser_partition,
    octahedron,
    petersen,
)
from spectral_lb.decomp import (
    CliquePartition,
    Decomposition,
    DecompositionError,
    Piece,
    cartesian_copy_decomposition,
    claw_decomposition,
    clique_equality_certificate,
    clique_partition_bound,
    clique_partition_stats,
    complete_piece,
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
    validate_partition,
)
from spectral_lb.graphs import (
    build_multigraph,
    build_simple,
    build_weighted,
    cartesian_product,
    line_graph,
    line_graph_vertices,
    multigraph_from_simple,
    scale,
    special_graph,
    twig_replicate,
    weighted_from_simple,
)
from spectral_lb.rationals import Q, is_rational
from spectral_lb.spectra import lambda_min

GOLDEN = (1 + math.sqrt(5)) / 2


def exactly(x, want):
    """x is an exact rational (not a float) equal to want."""

    return is_rational(x) and x == want


# ---------------------------------------------------------------------------
# validation


def test_validate_multipartite_identity():
    b = decomposition_bound(multipartite_decomposition([2, 2]))
    assert exactly(b.value, Q(-2)) and all(exactly(t, Q(-2)) for t in b.per_vertex)


def test_validate_petersen_cube():
    g = petersen()
    d = cube_decomposition(g, 3, 2, 0)
    validate(d)  # should not raise


def test_validate_reports_offending_pair():
    g = cycle(4)
    target = weighted_from_simple(g)
    wrong = decomposition(target, [scale(weighted_from_simple(g), Q(1, 2))])
    with pytest.raises(DecompositionError) as err:
        validate(wrong)
    assert "(0, 1)" in str(err.value)


# ---------------------------------------------------------------------------
# piece eigenvalues


@pytest.mark.parametrize(
    "piece,want",
    [
        (special_graph("J", 5), Q(0)),
        (scale(special_graph("J", 5), -1), Q(-5)),
        (special_graph("J", 1), Q(1)),
        (scale(special_graph("J", 1), -2), Q(-2)),
        (special_graph("K", 4), Q(-1)),
        (scale(special_graph("K", 4), -1), Q(-3)),
        (scale(special_graph("K", 3), Q(5, 2)), Q(-5, 2)),
        (special_graph("I", 4), Q(1)),
        (scale(special_graph("I", 4), -1), Q(-1)),
    ],
)
def test_piece_lambda_closed_forms(piece, want):
    assert exactly(piece_lambda(piece), want)


def test_piece_lambda_scaled_cycle():
    lam = piece_lambda(scale(weighted_from_simple(cycle(5)), 2))
    assert isinstance(lam, float)
    assert lam == pytest.approx(-2 * GOLDEN, abs=1e-9)


def test_piece_lambda_uniform_integer_graph():
    assert exactly(piece_lambda(scale(weighted_from_simple(petersen()), 3)), Q(-6))
    assert exactly(piece_lambda(scale(weighted_from_simple(petersen()), -1)), Q(-3))  # -lambda_max


def test_piece_lambda_rational_noninteger_minimum():
    # the path 3/61 - 4/61 has eigenvalues 0 and +-5/61; the candidate k/61
    # comes from the lcm of the weights' denominators
    lam = piece_lambda(build_weighted(3, {(0, 1): Q(3, 61), (1, 2): Q(4, 61)}))
    assert exactly(lam, Q(-5, 61))


# ---------------------------------------------------------------------------
# decomposition bounds


def test_single_piece_is_exact():
    g = petersen()
    d = decomposition(weighted_from_simple(g), [weighted_from_simple(g)])
    b = decomposition_bound(d)
    assert exactly(b.value, Q(-2))
    cert = equality_certificate(d)
    assert cert is not None and all(is_rational(v) for v in cert)


def test_cartesian_copy_bound():
    k3 = complete(3)
    d = cartesian_copy_decomposition(k3, k3)
    b = decomposition_bound(d)
    assert exactly(b.value, Q(-2))
    assert lambda_min(cartesian_product(k3, k3)) == pytest.approx(-2, abs=1e-9)


def test_dodecahedron_face_bound():
    g = dodecahedron()
    target = scale(weighted_from_simple(g), 2)
    pieces = [Piece(weighted_from_simple(cycle(5)), tuple(f)) for f in DODECAHEDRON_FACES]
    d = Decomposition(target, tuple(pieces))
    b = decomposition_bound(d)
    assert b.value / 2 == pytest.approx(-3 * (1 + math.sqrt(5)) / 4, abs=1e-9)
    assert b.value / 2 <= lambda_min(g) + 1e-9


def test_cubic_power_bounds():
    assert cubic_power_bound(petersen(), cube_decomposition(petersen(), 3, 2, 0)) == pytest.approx(-2, abs=1e-10)
    c5 = cycle(5)
    assert cubic_power_bound(c5, cube_decomposition(c5, 2, 1, 0)) == pytest.approx(-GOLDEN, abs=1e-10)
    wrong_target = Decomposition(
        weighted_from_simple(c5), cube_decomposition(c5, 2, 1, 0).pieces
    )
    with pytest.raises(DecompositionError):
        cubic_power_bound(c5, wrong_target)


def test_cube_decomposition_wrong_coefficients():
    c5 = cycle(5)
    d_bad = cube_decomposition(c5, 2, 2, 0)
    with pytest.raises(DecompositionError):
        cubic_power_bound(c5, d_bad)


def test_srg_tau_reached_when_tau_below_c_minus_a():
    # Shrikhande: a = c so the cubic bound must land on tau = -2
    from spectral_lb.catalog import shrikhande, srg_cubic_coeffs, SrgParams

    g = shrikhande()
    r, s, t = srg_cubic_coeffs(SrgParams(16, 6, 2, 2))
    bound = cubic_power_bound(g, cube_decomposition(g, r, s, t))
    assert bound == pytest.approx(-2, abs=1e-9)


# ---------------------------------------------------------------------------
# soundness sweep over random decompositions


def test_random_decompositions_sound(rng):
    for trial in range(60):
        n = rng.randint(2, 8)
        pieces = []
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
        from spectral_lb.graphs import add

        for p in pieces:
            total = add(total, p.embedded(n))
        d = Decomposition(total, tuple(pieces))
        b = decomposition_bound(d)
        lam = lambda_min(total) if total.weights or n else 0.0
        assert b.value <= lam + 1e-8
        cert = equality_certificate(d)
        if cert is not None:
            # a certificate, exact or numeric, means equality actually holds
            assert abs(b.value - lam) <= 1e-7


def test_equality_certificate_float_path():
    # C5 used twice over 2C5: piece minima are irrational, kernel is numeric
    c5 = weighted_from_simple(cycle(5))
    d = decomposition(scale(c5, 2), [c5, c5])
    cert = equality_certificate(d)
    assert cert is not None and not all(is_rational(v) for v in cert)


# ---------------------------------------------------------------------------
# complete decompositions


def test_complete_bound_multipartite_families():
    for parts in ([2, 2], [3, 3, 1], [4, 2, 2], [2, 1]):
        dec = multipartite_decomposition(parts)
        assert dec.target == weighted_from_simple(complete_multipartite(parts))
        bound = decomposition_bound(dec).value
        assert exactly(bound, Q(-max(parts)))
        lam = lambda_min(complete_multipartite(parts))
        assert float(bound) <= lam + 1e-9
        cert = equality_certificate(dec)
        two_largest_equal = sorted(parts)[-1] == sorted(parts)[-2]
        assert (cert is not None) == two_largest_equal
        assert cert is None or all(is_rational(v) for v in cert)


def test_complete_bound_k4_with_single_loops():
    # K_4 = J_4 - four J_1 loops; per-vertex sum is 0 + (-1) = -1 = lambda
    pieces = [complete_piece("J", range(4), 1)]
    pieces += [complete_piece("J", [u], -1) for u in range(4)]
    dec = decomposition(weighted_from_simple(complete(4)), pieces)
    b = decomposition_bound(dec)
    assert exactly(b.value, Q(-1)) and all(exactly(t, Q(-1)) for t in b.per_vertex)


def test_complete_certificate_knn():
    cert = equality_certificate(multipartite_decomposition([3, 3]))
    assert cert is not None and all(is_rational(v) for v in cert)
    x = cert
    # constant on each part, opposite signs
    assert len(set(x[:3])) == 1 and len(set(x[3:])) == 1
    assert 3 * x[0] + 3 * x[3] == 0


def test_complete_validation_catches_mismatch():
    dec = decomposition(weighted_from_simple(complete(2)), [complete_piece("K", [0, 1], 2)])
    with pytest.raises(DecompositionError):
        decomposition_bound(dec)
    with pytest.raises(DecompositionError):
        equality_certificate(dec)


def test_complete_piece_is_a_scaled_special_graph():
    p = complete_piece("K", [3, 0, 2], Q(-3, 2))
    assert p == Piece(scale(special_graph("K", 3), Q(-3, 2)), (0, 2, 3))
    assert exactly(piece_lambda(p.graph), Q(-3))  # a(s - 1) for a < 0
    for args in (("I", [0, 1], 1), ("K", [0, 0, 1], 1), ("K", [0], 1), ("J", [], 1), ("J", [0, 1], 0)):
        with pytest.raises(ValueError):
            complete_piece(*args)


# ---------------------------------------------------------------------------
# clique partitions


def test_partition_validation():
    g = petersen()
    edges = CliquePartition(1, tuple(g.edges()))
    validate_partition(edges, g)
    r_u, r, c = clique_partition_stats(edges, g)
    assert r == 3 and c == 2 and all(x == 3 for x in r_u)
    assert clique_partition_bound(edges, g) == Q(-3)
    with pytest.raises(DecompositionError):
        validate_partition(CliquePartition(1, ((0, 1), (0, 1), (2, 3))), cycle(4))
    with pytest.raises(DecompositionError):
        validate_partition(CliquePartition(1, ((0, 2),)), cycle(4))  # not an edge
    with pytest.raises(DecompositionError):
        validate_partition(CliquePartition(1, ((0,),)), cycle(4))  # too small


def test_partition_scaling_invariance():
    g = octahedron()
    tris = [c for c in _triangles(g)]
    part = CliquePartition(2, tuple(tris))
    doubled = CliquePartition(4, tuple(tris) * 2)
    assert clique_partition_bound(part, g) == clique_partition_bound(doubled, g)


def _triangles(g):
    out = []
    for u in range(g.n):
        for v, w in combinations(list(g.neighbors(u)), 2):
            if u < v < w and g.has_edge(v, w):
                out.append((u, v, w))
    return out


def test_octahedron_faces_tight():
    g = octahedron()
    part = CliquePartition(2, tuple(_triangles(g)))
    assert clique_partition_bound(part, g) == Q(-2)
    assert clique_equality_certificate(part, g) is not None


def test_icosahedron_faces_not_tight():
    g = icosahedron()
    part = CliquePartition(2, tuple(_triangles(g)))
    assert clique_partition_bound(part, g) == Q(-5, 2)
    assert clique_equality_certificate(part, g) is None
    assert lambda_min(g) > -2.5 + 1e-6


def test_c4_edge_partition_certificate():
    g = cycle(4)
    part = CliquePartition(1, tuple(g.edges()))
    cert = clique_equality_certificate(part, g)
    assert cert is not None
    # alternating signs around the cycle
    assert cert[0] == -cert[1] == cert[2] == -cert[3]


def test_c5_edge_partition_no_certificate():
    g = cycle(5)
    part = CliquePartition(1, tuple(g.edges()))
    assert clique_equality_certificate(part, g) is None


def test_triangle_free_equality_iff_regular_bipartite():
    # over every connected triangle-free graph up to 7 vertices, the edge
    # partition attains lambda = -Delta exactly when G is regular bipartite
    from corpus import connected_atlas
    from spectral_lb.graphs import bipartition

    for g in connected_atlas(7):
        if g.m == 0:
            continue
        if any(g.rows[u] & g.rows[v] for u, v in g.edges()):
            continue  # has a triangle
        part = CliquePartition(1, tuple(g.edges()))
        # the best edge partition load is the maximum degree
        assert clique_partition_bound(part, g) == Q(-max(g.degrees()))
        lam = lambda_min(g)
        equality = abs(lam + max(g.degrees())) <= 1e-8
        regular_bipartite = (
            g.regular_degree() is not None and bipartition(g) is not None
        )
        assert equality == regular_bipartite
        assert (clique_equality_certificate(part, g) is not None) == equality


def test_johnson_clique_partition():
    for v, k in ((5, 2), (6, 2), (6, 3)):
        g = johnson(v, k)
        part = johnson_partition(v, k)
        r_u, r, _ = clique_partition_stats(part, g)
        assert all(x == k for x in r_u)
        assert clique_equality_certificate(part, g) is not None


def test_kneser_clique_partition():
    # triangles of Kn(3k, k): each vertex lies in C(2k-1, k-1) = -lambda_min
    for k in (2, 3):
        g = kneser(3 * k, k)
        part = kneser_partition(k)
        r_u, r, c_min = clique_partition_stats(part, g)
        assert c_min == 3 and all(x == math.comb(2 * k - 1, k - 1) for x in r_u)
        assert lambda_min(g) == pytest.approx(-r, abs=1e-9)


# ---------------------------------------------------------------------------
# essential vertices


def test_essential_c4_plus_triangle():
    g = build_simple(5, [(0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (3, 0)])
    part = CliquePartition(1, ((0, 1, 4), (1, 2), (2, 3), (3, 0)))
    red = essential_vertices(part, g)
    assert red.vstar == (0, 1, 2, 3)
    assert red.kstar is not None and sorted(map(len, red.kstar.cliques)) == [2, 2, 2, 2]
    assert sorted(red.gstar.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert lambda_min(g) == pytest.approx(-2, abs=1e-10)
    assert lambda_min(red.gstar) == pytest.approx(-2, abs=1e-10)


def test_essential_fixed_point_at_start():
    g = johnson(5, 2)
    part = johnson_partition(5, 2)
    red = essential_vertices(part, g)
    assert red.vstar == tuple(range(10))


def test_essential_pendant_removal_empties():
    g = build_simple(3, [(0, 1), (1, 2)])
    part = CliquePartition(1, ((0, 1), (1, 2)))
    red = essential_vertices(part, g)
    assert red.vstar == ()
    assert red.kstar is None
    # no essential vertices, so no equality certificate and lambda > -2
    assert clique_equality_certificate(part, g) is None
    assert lambda_min(g) == pytest.approx(-math.sqrt(2), abs=1e-10)


def test_essential_empty_implies_no_certificate(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7))
        part = CliquePartition(1, tuple(g.edges()))
        red = essential_vertices(part, g)
        cert = clique_equality_certificate(part, g)
        if red.vstar == ():
            assert cert is None


# ---------------------------------------------------------------------------
# line graph bounds


def test_line_graph_bound_simple_leafless():
    for g in (petersen(), cycle(5), complete(4)):
        assert line_graph_bound(multigraph_from_simple(g)) == Q(-2)


def test_line_graph_bound_doubled_edge():
    g = complete(3)
    mg = build_multigraph(3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})
    assert line_graph_bound(mg) == Q(-4)


def test_line_graph_bound_twigs():
    star = build_simple(4, [(0, 1), (0, 2), (0, 3)])
    assert line_graph_bound(twig_replicate(star, {(0, 1): 3})) == Q(-3)
    p3 = build_simple(3, [(0, 1), (1, 2)])
    assert line_graph_bound(twig_replicate(p3, {(0, 1): 2})) == Q(-2)


def test_claw_decomposition_validates_and_bounds(rng):
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 6))
        mg = multigraph_from_simple(g)
        d = claw_decomposition(mg)
        validate(d)
        lam = lambda_min(line_graph(mg)) if line_graph(mg).n else 0.0
        assert float(line_graph_bound(mg)) <= lam + 1e-8


def _max_multiplicity_formula(mg):
    """The reference closed form: -(largest multiplicity at u) for each claw, summed over the two ends."""

    verts = line_graph_vertices(mg)
    if not verts:
        return Q(0)
    lam = {}
    for u in range(mg.n):
        incident = {(a, b): m for (a, b), m in mg.mult.items() if u in (a, b)}
        if len({a if b == u else b for a, b in incident}) >= 2:
            lam[u] = -max(incident.values())
    return min(Q(lam.get(u, 0) + lam.get(v, 0)) for u, v, _ in verts)


@st.composite
def _loopless_multigraphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    mult = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return build_multigraph(n, dict(zip(pairs, mult)))


@settings(max_examples=150, deadline=None)
@given(_loopless_multigraphs())
def test_claw_bound_is_exact_between_the_formula_and_lambda(mg):
    d = claw_decomposition(mg)
    validate(d)
    value = line_graph_bound(mg)
    assert isinstance(value, Fraction)
    formula = _max_multiplicity_formula(mg)
    if d.target.n:
        assert formula <= value <= lambda_min(line_graph(mg)) + 1e-9
    else:
        assert value == formula == 0
    if set(mg.mult.values()) <= {1}:
        assert value == formula


def test_claw_bound_charges_each_edge_its_own_multiplicity():
    # at the edge 12 the claw T(1) contributes -m_12 = -1, not -max = -3
    mg = build_multigraph(4, {(0, 1): 3, (1, 2): 1, (2, 3): 1})
    assert _max_multiplicity_formula(mg) == Q(-4)
    assert exactly(line_graph_bound(mg), Q(-3))
    assert lambda_min(line_graph(mg)) == pytest.approx(-2, abs=1e-9)
    with pytest.raises(ValueError, match="loopless"):
        line_graph_bound(build_multigraph(2, {(0, 0): 1, (0, 1): 1}))
