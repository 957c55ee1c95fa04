"""Shared graph corpora for the tests.

The small-graph corpus comes from the networkx atlas (every graph on up to
seven vertices), and catalog_corpus names 22 catalog graphs.  Connected cubic graphs are generated exhaustively by the
classical edge-insertion operation (subdivide two distinct edges and join
the midpoints), seeded at K_4; completeness is checked against the known
counts 1, 2, 5, 19, 85 for n = 4, 6, 8, 10, 12.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx
import numpy as np
from networkx.generators.atlas import graph_atlas_g

from spectral_lb.catalog import (
    circulant,
    complete,
    complete_multipartite,
    cycle,
    dodecahedron,
    hamming,
    icosahedron,
    johnson,
    kneser,
    octahedron,
    path,
    petersen,
    prism,
    shrikhande,
)
from spectral_lb.graphs import SimpleGraph, build_simple

CONNECTED_CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}


def _to_simple(g: nx.Graph) -> SimpleGraph:
    relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return build_simple(
        g.number_of_nodes(), [(relabel[u], relabel[v]) for u, v in g.edges()]
    )


@lru_cache(maxsize=None)
def connected_atlas(max_n: int = 7, min_n: int = 1) -> tuple[SimpleGraph, ...]:
    """All connected graphs with min_n <= n <= max_n, up to isomorphism."""

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if min_n <= n <= max_n and n >= 1 and nx.is_connected(g):
            out.append(_to_simple(g))
    return tuple(out)


def _insertions(g: nx.Graph):
    """Subdivide two distinct edges and join the midpoints (n -> n + 2)."""

    n = g.number_of_nodes()
    a, b = n, n + 1
    for e1, e2 in combinations(list(g.edges()), 2):
        h = g.copy()
        h.remove_edge(*e1)
        h.remove_edge(*e2)
        h.add_edges_from([(e1[0], a), (e1[1], a), (e2[0], b), (e2[1], b), (a, b)])
        yield h


def _triangle_expansions(g: nx.Graph):
    """Replace a vertex by a triangle, one original edge per corner (n -> n + 2)."""

    n = g.number_of_nodes()
    for v in list(g.nodes()):
        nbrs = list(g.neighbors(v))
        h = g.copy()
        h.remove_node(v)
        corners = [v, n, n + 1]
        for c, w in zip(corners, nbrs):
            h.add_edge(c, w)
        h.add_edges_from([(corners[0], corners[1]), (corners[1], corners[2]), (corners[0], corners[2])])
        yield h


def _diamond_insertions(g: nx.Graph):
    """Replace an edge by a bridged diamond (n -> n + 4); reaches the
    diamond-saturated graphs that edge insertion alone cannot produce."""

    n = g.number_of_nodes()
    a, b, c, d = n, n + 1, n + 2, n + 3
    for u, v in list(g.edges()):
        h = g.copy()
        h.remove_edge(u, v)
        h.add_edges_from([(u, a), (v, b), (a, c), (a, d), (b, c), (b, d), (c, d)])
        yield h


@lru_cache(maxsize=None)
def connected_cubic(n: int) -> tuple[SimpleGraph, ...]:
    """All connected cubic graphs on n vertices, up to isomorphism.

    Exhaustiveness is certified by comparing against the published counts:
    anything generated is a connected cubic graph, so matching the known
    class sizes proves nothing was missed.
    """

    if n % 2 or n < 4:
        return ()
    if n == 4:
        return (_to_simple(nx.complete_graph(4)),)

    def as_nx(g: SimpleGraph) -> nx.Graph:
        base = nx.Graph(g.edges())
        base.add_nodes_from(range(g.n))
        return base

    candidates = []
    for g in connected_cubic(n - 2):
        base = as_nx(g)
        candidates.extend(_insertions(base))
        candidates.extend(_triangle_expansions(base))
    for g in connected_cubic(n - 4):
        candidates.extend(_diamond_insertions(as_nx(g)))
    # a cross-component insertion into a two-component cubic graph also
    # yields a connected cubic graph (e.g. two K_4 blocks joined through
    # two subdivision vertices), so those bases are needed as well
    for a in range(4, n - 2 - 4 + 1, 2):
        b = n - 2 - a
        if b < a:
            break
        for ga in connected_cubic(a):
            for gb in connected_cubic(b):
                union = as_nx(ga)
                union = nx.disjoint_union(union, as_nx(gb))
                for e1 in [e for e in union.edges() if e[0] < a and e[1] < a]:
                    for e2 in [e for e in union.edges() if e[0] >= a and e[1] >= a]:
                        h = union.copy()
                        h.remove_edge(*e1)
                        h.remove_edge(*e2)
                        x, y = n - 2, n - 1
                        h.add_edges_from(
                            [(e1[0], x), (e1[1], x), (e2[0], y), (e2[1], y), (x, y)]
                        )
                        candidates.append(h)
    # graphs kept so far, in order and by invariant; only a graph with the
    # same invariant needs the isomorphism test
    found: list[nx.Graph] = []
    by_invariant: dict[tuple, list[nx.Graph]] = {}
    for h in candidates:
        if all(d == 3 for _, d in h.degree()) and nx.is_connected(h):
            same = by_invariant.setdefault(_invariant(h), [])
            if not any(nx.vf2pp_is_isomorphic(h, f) for f in same):
                same.append(h)
                found.append(h)
    result = tuple(_to_simple(h) for h in found)
    expected = CONNECTED_CUBIC_COUNTS.get(n)
    if expected is not None and len(result) != expected:
        raise AssertionError(
            f"cubic generation produced {len(result)} graphs on {n} vertices, expected {expected}"
        )
    return result


def _invariant(g: nx.Graph) -> tuple:
    """Triangle count and rounded spectrum: equal on isomorphic graphs."""

    tri = sum(nx.triangles(g).values()) // 3
    spec = tuple(round(x, 6) for x in sorted(np.linalg.eigvalsh(nx.to_numpy_array(g))))
    return tri, spec


def catalog_corpus() -> list[tuple[str, SimpleGraph]]:
    """The named graphs swept by the bound-sanity acceptance test."""

    return [
        ("petersen", petersen()),
        ("dodecahedron", dodecahedron()),
        ("icosahedron", icosahedron()),
        ("octahedron", octahedron()),
        ("shrikhande", shrikhande()),
        ("cycle5", cycle(5)),
        ("cycle6", cycle(6)),
        ("path4", path(4)),
        ("complete5", complete(5)),
        ("k33", complete_multipartite([3, 3])),
        ("k221", complete_multipartite([2, 2, 1])),
        ("prism3", prism(3)),
        ("johnson52", johnson(5, 2)),
        ("johnson62", johnson(6, 2)),
        ("johnson63", johnson(6, 3)),
        ("kneser62", kneser(6, 2)),
        ("hamming222", hamming([2, 2, 2])),
        ("hamming23", hamming([2, 3])),
        ("circulant_10_2", circulant(10, 2)),
        ("circulant_12_1", circulant(12, 1)),
        ("circulant_15_2", circulant(15, 2)),
        ("circulant_21_3", circulant(21, 3)),
    ]


def random_connected_graph(rng: random.Random, n: int) -> SimpleGraph:
    """Uniform-ish random connected graph: random spanning tree plus random edges."""

    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], order[rng.randrange(i)]))))
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.35:
            edges.add((u, v))
    return build_simple(n, sorted(edges))
