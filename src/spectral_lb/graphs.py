"""Immutable graph values: simple graphs, multigraphs and rationally weighted graphs.

Simple graphs store bitset adjacency rows (Python ints) for fast
neighbourhood work; weighted graphs map unordered vertex pairs to exact
rationals, with loops allowed as pairs (u, u).  All values are treated as
immutable after construction and every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from functools import cache

import numpy as np

from .rationals import Q, QZERO, as_q


class NotApplicable(ValueError):
    """The graph fails a hypothesis of the bound or check asked for."""


class CapExceeded(ValueError):
    """A graph is above the size cap of the computation what; reason says by how much."""

    def __init__(self, what: str, reason: str):
        super().__init__(f"{what}: {reason}")
        self.what, self.reason = what, reason


def require_order(what: str, n: int, cap: int) -> None:
    """Raise CapExceeded unless n <= cap: the one place a size cap is compared."""

    if n > cap:
        raise CapExceeded(what, f"n = {n} exceeds the cap n <= {cap}")


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# simple graphs


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless undirected graph on vertices 0..n-1 with bitset adjacency rows."""

    n: int
    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def regular_degree(self) -> int | None:
        """The common degree when the graph is regular, else None."""

        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    def neighbors(self, u: int):
        return bit_indices(self.rows[u])

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            r = self.rows[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    out.append((u, v))
                r >>= 1
                v += 1
        return out

    def adjacency(self, dtype=float) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=dtype)
        for u, v in self.edges():
            a[u, v] = a[v, u] = 1
        return a

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1
        rows = tuple((full ^ self.rows[u]) & ~(1 << u) for u in range(self.n))
        return SimpleGraph(self.n, rows)

    def induced(self, vertices) -> "SimpleGraph":
        verts = sorted(vertices)
        index = {v: i for i, v in enumerate(verts)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return build_simple(len(verts), edges)


def bit_indices(mask: int):
    """Indices of the set bits of mask, ascending."""

    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_simple(n: int, edges) -> SimpleGraph:
    """Simple graph from a (deduplicated) edge list; rejects loops and bad endpoints."""

    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"loop not allowed in a simple graph: ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SimpleGraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# multigraphs


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; mult maps unordered pairs (incl. loops) to counts >= 1."""

    n: int
    mult: dict

    @property
    def is_loopless(self) -> bool:
        return all(u != v for u, v in self.mult)

    def multiplicity(self, u: int, v: int) -> int:
        return self.mult.get(_pair(u, v), 0)


def build_multigraph(n: int, mult) -> Multigraph:
    """Multigraph from a {pair: multiplicity} mapping; zero entries are dropped."""

    out = {}
    for (u, v), m in dict(mult).items():
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range: ({u}, {v})")
        if m < 0:
            raise ValueError("negative multiplicity")
        if int(m) != m:
            raise ValueError("multiplicity must be an integer")
        if m:
            out[_pair(u, v)] = int(m)
    return Multigraph(n, out)


def multigraph_from_simple(g: SimpleGraph) -> Multigraph:
    return Multigraph(g.n, {e: 1 for e in g.edges()})


# ---------------------------------------------------------------------------
# weighted graphs


@dataclass(frozen=True)
class WeightedGraph:
    """Graph with exact rational weights on unordered pairs; (u, u) keys are loops."""

    n: int
    weights: dict
    labels: tuple | None = None

    def weight(self, u: int, v: int):
        return self.weights.get(_pair(u, v), QZERO)

    @property
    def is_zero(self) -> bool:
        return not self.weights

    def adjacency_q(self) -> list[list]:
        a = [[QZERO] * self.n for _ in range(self.n)]
        for (u, v), w in self.weights.items():
            a[u][v] = w
            if u != v:
                a[v][u] = w
        return a

    def adjacency(self, dtype=float) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=dtype)
        for (u, v), w in self.weights.items():
            val = float(w) if dtype is float else w
            a[u, v] = val
            if u != v:
                a[v, u] = val
        return a


def build_weighted(n: int, weights, labels=None) -> WeightedGraph:
    """Weighted graph from a {pair: rational} mapping; zero weights are pruned."""

    out = {}
    # one Fraction per distinct weight; the type is part of the key so that
    # a float 1.0 is still refused after an int 1
    exact = cache(lambda key: as_q(key[1]))
    for (u, v), w in dict(weights).items():
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range: ({u}, {v})")
        w = exact((type(w), w))
        if w != 0:
            out[_pair(u, v)] = w
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels must have one entry per vertex")
    return WeightedGraph(n, out, labels)


def weighted_from_simple(g: SimpleGraph, c=1) -> WeightedGraph:
    """The weighted graph cG: every edge of G gets weight c."""

    c = as_q(c)
    return WeightedGraph(g.n, {e: c for e in g.edges()} if c != 0 else {})


def weighted_from_multigraph(mg: Multigraph) -> WeightedGraph:
    return WeightedGraph(mg.n, {p: Q(m) for p, m in mg.mult.items()})


def as_weighted(g) -> WeightedGraph:
    """Coerce any of the three graph kinds to a WeightedGraph."""

    if isinstance(g, WeightedGraph):
        return g
    if isinstance(g, SimpleGraph):
        return weighted_from_simple(g)
    if isinstance(g, Multigraph):
        return weighted_from_multigraph(g)
    raise TypeError(f"not a graph value: {g!r}")


def special_graph(kind: str, n: int) -> WeightedGraph:
    """The loop graph I_n, looped complete graph J_n or simple complete graph K_n.

    K_1 is rejected: it has no edges and is never used in decompositions.
    """

    if n < 1:
        raise ValueError("order must be at least 1")
    if kind == "I":
        return WeightedGraph(n, {(u, u): Q(1) for u in range(n)})
    if kind == "J":
        w = {(u, v): Q(1) for u in range(n) for v in range(u, n)}
        return WeightedGraph(n, w)
    if kind == "K":
        if n < 2:
            raise ValueError("K_1 has no edges and is not used")
        w = {(u, v): Q(1) for u in range(n) for v in range(u + 1, n)}
        return WeightedGraph(n, w)
    raise ValueError(f"unknown special graph kind: {kind!r}")


def scale(h: WeightedGraph, c) -> WeightedGraph:
    c = as_q(c)
    if c == 0:
        return WeightedGraph(h.n, {})
    return WeightedGraph(h.n, {p: c * w for p, w in h.weights.items()}, h.labels)


def add(h1: WeightedGraph, h2: WeightedGraph) -> WeightedGraph:
    """Pointwise sum of two weighted graphs on the same vertex set."""

    if h1.n != h2.n:
        raise ValueError("operands live on different vertex sets; embed first")
    out = dict(h1.weights)
    for p, w in h2.weights.items():
        s = out.get(p, QZERO) + w
        if s == 0:
            out.pop(p, None)
        else:
            out[p] = s
    return WeightedGraph(h1.n, out)


def embed(h: WeightedGraph, n: int, mapping) -> WeightedGraph:
    """Push a weighted graph on a small vertex set into 0..n-1 via an injective map."""

    mapping = tuple(mapping)
    if len(mapping) != h.n:
        raise ValueError("embedding must map every piece vertex")
    if len(set(mapping)) != len(mapping):
        raise ValueError("embedding must be injective")
    if any(not (0 <= x < n) for x in mapping):
        raise ValueError("embedding target out of range")
    return WeightedGraph(
        n, {_pair(mapping[u], mapping[v]): w for (u, v), w in h.weights.items()}
    )


# ---------------------------------------------------------------------------
# graph powers and products


def power_multigraph(g: SimpleGraph, k: int) -> Multigraph:
    """G^(k): the multigraph with adjacency matrix A(G)^k (walk counts).

    The diagonal of A^k is kept as loop multiplicities; clique machinery
    works on the loopless part only.
    """

    if k < 1:
        raise ValueError("power must be a positive integer")
    a = g.adjacency(dtype=object)
    p = a
    for _ in range(k - 1):
        p = np.dot(p, a)
    mult = {}
    for u in range(g.n):
        if p[u, u]:
            mult[(u, u)] = int(p[u, u])
        for v in range(u + 1, g.n):
            if p[u, v]:
                mult[(u, v)] = int(p[u, v])
    return Multigraph(g.n, mult)


def cartesian_product(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Cartesian product; vertex (u, v) gets row-major index u*n2 + v."""

    n1, n2 = g1.n, g2.n
    edges = []
    for u in range(n1):
        for v in range(n2):
            base = u * n2 + v
            for w in g2.neighbors(v):
                if w > v:
                    edges.append((base, u * n2 + w))
            for x in g1.neighbors(u):
                if x > u:
                    edges.append((base, x * n2 + v))
    return build_simple(n1 * n2, edges)


def direct_product(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Direct (Kronecker) product; adjacency matrix is A(G1) (x) A(G2)."""

    n1, n2 = g1.n, g2.n
    edges = []
    for u, x in g1.edges():
        for v, y in g2.edges():
            edges.append((u * n2 + v, x * n2 + y))
            edges.append((u * n2 + y, x * n2 + v))
    return build_simple(n1 * n2, edges)


def composition(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Lexicographic product G1[G2]: (u,x) ~ (v,y) iff u~v, or u=v and x~y."""

    n1, n2 = g1.n, g2.n
    edges = []
    for u, v in g1.edges():
        for x in range(n2):
            for y in range(n2):
                edges.append((u * n2 + x, v * n2 + y))
    for u in range(n1):
        for x, y in g2.edges():
            edges.append((u * n2 + x, u * n2 + y))
    return build_simple(n1 * n2, edges)


# ---------------------------------------------------------------------------
# line graphs and twigs


def line_graph_vertices(mg: Multigraph) -> list[tuple[int, int, int]]:
    """Deterministic edge-instance list (u, v, copy) indexing the line graph."""

    out = []
    for (u, v), m in sorted(mg.mult.items()):
        for i in range(m):
            out.append((u, v, i))
    return out


def line_graph(mg: Multigraph) -> SimpleGraph:
    """Line graph of a loopless multigraph.

    Edge instances become vertices, adjacent when they share precisely one
    end vertex, so parallel edges give nonadjacent line-graph vertices.
    """

    if not mg.is_loopless:
        raise ValueError("line graph input must be loopless")
    verts = line_graph_vertices(mg)
    edges = []
    for i, (u1, v1, _) in enumerate(verts):
        e1 = {u1, v1}
        for j in range(i + 1, len(verts)):
            u2, v2, _ = verts[j]
            if len(e1 & {u2, v2}) == 1:
                edges.append((i, j))
    return build_simple(len(verts), edges)


def twig_replicate(g: SimpleGraph, mult) -> Multigraph:
    """Raise multiplicities of twigs (edges with a degree-1 endpoint) of a simple graph."""

    out = {e: 1 for e in g.edges()}
    for (u, v), m in dict(mult).items():
        p = _pair(u, v)
        if p not in out:
            raise ValueError(f"not an edge of the graph: {p}")
        if m < 1:
            raise ValueError("multiplicity must be at least 1")
        if m > 1 and g.degree(u) != 1 and g.degree(v) != 1:
            raise ValueError(f"edge {p} is not a twig (no degree-1 endpoint)")
        out[p] = int(m)
    return Multigraph(g.n, out)


# ---------------------------------------------------------------------------
# traversal helpers


def bfs_distances(g: SimpleGraph, source: int) -> list[int]:
    """BFS distances from source; unreachable vertices get -1."""

    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return False
    return all(d >= 0 for d in bfs_distances(g, 0))


def diameter(g: SimpleGraph) -> int:
    """Largest BFS eccentricity; raises on disconnected input."""

    best = 0
    for u in range(g.n):
        dist = bfs_distances(g, u)
        if min(dist) < 0:
            raise ValueError("diameter of a disconnected graph")
        best = max(best, max(dist))
    return best


def bipartition(g: SimpleGraph) -> tuple[set[int], set[int]] | None:
    """A 2-colouring (as two vertex sets) when G is bipartite, else None."""

    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
    return (
        {u for u in range(g.n) if colour[u] == 0},
        {u for u in range(g.n) if colour[u] == 1},
    )
