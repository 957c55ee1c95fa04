"""Named graph constructors and closed-form spectra."""

import math

import numpy as np
import pytest

from corpus import catalog_corpus
from spectral_lb.catalog import (
    SrgParams,
    catalog_names,
    circulant,
    circulant_spectrum,
    colex_subsets,
    complete_multipartite,
    cycle,
    dodecahedron,
    DODECAHEDRON_FACES,
    hamming,
    icosahedron,
    johnson,
    kneser,
    named_graph,
    octahedron,
    petersen,
    prism,
    shrikhande,
    srg_cubic_coeffs,
    srg_second_eigenvalues,
)
from spectral_lb.graphs import power_multigraph
from spectral_lb.rationals import Q
from spectral_lb.spectra import lambda_min, spectrum


def test_petersen_parameters():
    g = petersen()
    assert g.n == 10 and g.regular_degree() == 3
    assert lambda_min(g) == pytest.approx(-2, abs=1e-10)


def test_dodecahedron():
    g = dodecahedron()
    assert g.n == 20 and g.regular_degree() == 3
    assert lambda_min(g) == pytest.approx(-math.sqrt(5), abs=1e-10)


def test_dodecahedron_faces_cover_twice():
    g = dodecahedron()
    counts = {}
    per_vertex = [0] * 20
    for face in DODECAHEDRON_FACES:
        assert len(face) == 5
        for i, u in enumerate(face):
            v = face[(i + 1) % 5]
            assert g.has_edge(u, v)
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
            per_vertex[u] += 1
    assert len(DODECAHEDRON_FACES) == 12
    assert all(c == 2 for c in counts.values()) and len(counts) == 30
    assert all(c == 3 for c in per_vertex)


def test_icosahedron():
    g = icosahedron()
    assert g.n == 12 and g.regular_degree() == 5
    assert lambda_min(g) == pytest.approx(-math.sqrt(5), abs=1e-10)


def test_shrikhande_is_srg_16_6_2_2():
    g = shrikhande()
    assert g.n == 16 and g.regular_degree() == 6
    for u in range(16):
        for v in range(u + 1, 16):
            common = (g.rows[u] & g.rows[v]).bit_count()
            assert common == 2
    vals = spectrum(g.adjacency()).values
    want = [-2.0] * 9 + [2.0] * 6 + [6.0]
    assert np.allclose(vals, want, atol=1e-9)


def test_octahedron_and_prism():
    assert sorted(octahedron().edges()) == sorted(complete_multipartite([2, 2, 2]).edges())
    p = prism(3)
    assert p.n == 6 and p.regular_degree() == 3


def test_johnson_parameters():
    for v, k in ((5, 2), (6, 2), (6, 3), (4, 2)):
        g = johnson(v, k)
        assert g.regular_degree() == k * (v - k)
        assert lambda_min(g) == pytest.approx(-k, abs=1e-8)
    # multiplicity of the smallest eigenvalue is C(v,k) - C(v,k-1)
    g = johnson(5, 2)
    vals = spectrum(g.adjacency()).values
    assert sum(1 for x in vals if abs(x + 2) < 1e-7) == 5
    with pytest.raises(ValueError):
        johnson(3, 2)


def test_kneser_parameters():
    assert sorted(kneser(5, 2).edges()) == sorted(petersen_iso_edges())
    g = kneser(6, 2)
    assert g.regular_degree() == 6
    assert lambda_min(g) == pytest.approx(-3, abs=1e-8)
    with pytest.raises(ValueError):
        kneser(3, 2)


def petersen_iso_edges():
    # Kneser(5,2) is the Petersen graph; compare via the subset definition
    verts = colex_subsets(5, 2)
    sets = [frozenset(s) for s in verts]
    return [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not sets[i] & sets[j]
    ]


def test_colex_order():
    assert colex_subsets(4, 2) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_hamming():
    q3 = hamming([2, 2, 2])
    assert q3.n == 8 and q3.regular_degree() == 3
    assert lambda_min(q3) == pytest.approx(-3, abs=1e-9)
    assert lambda_min(hamming([3])) == pytest.approx(-1, abs=1e-12)
    pr = hamming([2, 3])
    assert lambda_min(pr) == pytest.approx(-2, abs=1e-9)
    with pytest.raises(ValueError):
        hamming([1, 2])
    with pytest.raises(ValueError):
        hamming([])


def test_circulant_structure():
    g = circulant(12, 1)
    assert sorted(g.edges()) == sorted(cycle(12).edges())
    assert circulant(15, 2).regular_degree() == 4
    with pytest.raises(ValueError):
        circulant(8, 4)


@pytest.mark.parametrize("n,r", [(10, 2), (12, 1), (15, 2), (21, 3), (9, 2)])
def test_circulant_spectrum_matches_solver(n, r):
    closed = circulant_spectrum(n, r)
    solved = spectrum(circulant(n, r).adjacency()).values
    assert max(abs(a - b) for a, b in zip(closed, solved)) < 1e-8


def test_circulant_spectrum_value():
    vals = circulant_spectrum(12, 1)
    assert vals[0] == pytest.approx(-2, abs=1e-12)  # l = 6 gives -1 + sin(3pi/2)/sin(pi/2)


def test_srg_params_validation():
    SrgParams(10, 3, 0, 1)
    with pytest.raises(ValueError):
        SrgParams(10, 3, 1, 1)


def test_srg_second_eigenvalues():
    assert srg_second_eigenvalues(SrgParams(10, 3, 0, 1)) == (Q(1), Q(-2))
    assert srg_second_eigenvalues(SrgParams(16, 6, 2, 2)) == (Q(2), Q(-2))
    theta, tau = srg_second_eigenvalues(SrgParams(5, 2, 0, 1))
    assert theta == pytest.approx((-1 + math.sqrt(5)) / 2, abs=1e-12)
    assert tau == pytest.approx((-1 - math.sqrt(5)) / 2, abs=1e-12)
    # Vieta: theta tau = -(k - c), theta + tau = a - c
    assert theta * tau == pytest.approx(-1, abs=1e-12)
    assert theta + tau == pytest.approx(-1, abs=1e-12)


@pytest.mark.parametrize(
    "params,graph",
    [
        (SrgParams(10, 3, 0, 1), petersen),
        (SrgParams(5, 2, 0, 1), lambda: cycle(5)),
        (SrgParams(16, 6, 2, 2), shrikhande),
    ],
)
def test_srg_cubic_coeffs_integer_oracle(params, graph):
    r, s, t = srg_cubic_coeffs(params)
    g = graph()
    cube = power_multigraph(g, 3)
    for u in range(g.n):
        for v in range(u, g.n):
            if u == v:
                want = t
            elif g.has_edge(u, v):
                want = r + s
            else:
                want = s
            assert cube.multiplicity(u, v) == want


def test_srg_cubic_known_values():
    assert srg_cubic_coeffs(SrgParams(10, 3, 0, 1)) == (3, 2, 0)
    assert srg_cubic_coeffs(SrgParams(5, 2, 0, 1)) == (2, 1, 0)


def test_named_graph_registry():
    names = dict(catalog_names())
    assert "petersen" in names and "circulant" in names
    g = named_graph("cycle", ("5",))
    assert g.m == 5
    with pytest.raises(ValueError):
        named_graph("nope")
    with pytest.raises(ValueError):
        named_graph("cycle", ())


def test_catalog_corpus_regularity():
    for name, g in catalog_corpus():
        assert g.n >= 1, name
    names = [name for name, _ in catalog_corpus()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("n,r", [(8, 2), (11, 3), (12, 5)])
def test_circulant_claw_free_family(n, r):
    from spectral_lb.bounds import is_K1k_free

    free, _ = is_K1k_free(circulant(n, r), 3)
    assert free
