"""Constructors for the named graphs and closed-form spectra used in the bound suite.

Subset-indexed families (Johnson, Kneser) number their vertices in colex
order so reports are reproducible.  The Shrikhande graph is fixed as the
Cayley graph of Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .decomp import CliquePartition
from .graphs import (
    SimpleGraph,
    build_simple,
    cartesian_product,
)
from .rationals import Q

# 12 pentagonal faces of the dodecahedron below (each edge on exactly two,
# each vertex on exactly three); used by the face-cycle decomposition.
DODECAHEDRON_FACES = (
    (0, 1, 11, 19, 9),
    (0, 10, 12, 2, 1),
    (0, 9, 8, 18, 10),
    (1, 2, 3, 13, 11),
    (10, 18, 16, 14, 12),
    (12, 14, 4, 3, 2),
    (11, 13, 15, 17, 19),
    (13, 3, 4, 5, 15),
    (14, 16, 6, 5, 4),
    (15, 5, 6, 7, 17),
    (16, 18, 8, 7, 6),
    (17, 7, 8, 9, 19),
)


def cycle(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_simple(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return build_simple(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return build_simple(n, list(combinations(range(n), 2)))


def complete_multipartite(parts) -> SimpleGraph:
    """K_{n1,...,nm}: parts are independent, all cross pairs are edges."""

    parts = list(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("every part must have at least one vertex")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            edges.extend((u, v) for u in bounds[i] for v in bounds[j])
    return build_simple(start, edges)


def octahedron() -> SimpleGraph:
    return complete_multipartite([2, 2, 2])


def prism(n: int) -> SimpleGraph:
    """Circular ladder C_n [] K_2."""

    return cartesian_product(cycle(n), complete(2))


def _generalized_petersen(n: int, k: int) -> SimpleGraph:
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return build_simple(2 * n, edges)


def petersen() -> SimpleGraph:
    return _generalized_petersen(5, 2)


def dodecahedron() -> SimpleGraph:
    return _generalized_petersen(10, 2)


def icosahedron() -> SimpleGraph:
    """Pentagonal antiprism plus two apexes; 5-regular on 12 vertices."""

    edges = []
    for i in range(5):
        edges.append((0, 1 + i))
        edges.append((11, 6 + i))
        edges.append((1 + i, 1 + (i + 1) % 5))
        edges.append((6 + i, 6 + (i + 1) % 5))
        edges.append((1 + i, 6 + i))
        edges.append((1 + i, 6 + (i + 1) % 5))
    return build_simple(12, edges)


def shrikhande() -> SimpleGraph:
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                edges.append((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4))
    return build_simple(16, edges)


# ---------------------------------------------------------------------------
# subset-indexed families


def colex_subsets(v: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {0..v-1} in colexicographic order."""

    return sorted(combinations(range(v), k), key=lambda s: tuple(reversed(s)))


def johnson(v: int, k: int) -> SimpleGraph:
    """Johnson graph J(v, k): k-subsets adjacent when they share k-1 elements."""

    if not (v >= 2 * k >= 2):
        raise ValueError("johnson requires v >= 2k >= 2")
    verts = colex_subsets(v, k)
    sets = [frozenset(s) for s in verts]
    edges = [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if len(sets[i] & sets[j]) == k - 1
    ]
    return build_simple(len(verts), edges)


def kneser(v: int, k: int) -> SimpleGraph:
    """Kneser graph Kn(v, k): k-subsets adjacent when disjoint."""

    if v < 2 * k:
        raise ValueError("kneser requires v >= 2k")
    verts = colex_subsets(v, k)
    sets = [frozenset(s) for s in verts]
    edges = [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if not sets[i] & sets[j]
    ]
    return build_simple(len(verts), edges)


def johnson_partition(v: int, k: int) -> CliquePartition:
    """Clique partition of J(v, k) with mu = 1, one clique per (k-1)-subset.

    The clique of a (k-1)-subset S is the k-subsets containing S, so each
    edge {S + x, S + y} lies in exactly one clique and each vertex in k.
    """

    index = {frozenset(s): i for i, s in enumerate(colex_subsets(v, k))}
    cliques = []
    for c in combinations(range(v), k - 1):
        base = frozenset(c)
        cliques.append(tuple(index[base | {x}] for x in range(v) if x not in base))
    return CliquePartition(1, tuple(cliques))


def kneser_partition(k: int) -> CliquePartition:
    """Clique partition of Kn(3k, k) with mu = 1 into triangles.

    The triangles are the splits of {0..3k-1} into three k-subsets: the
    complement of two disjoint k-subsets closes their edge's one triangle.
    """

    v = 3 * k
    index = {frozenset(s): i for i, s in enumerate(colex_subsets(v, k))}
    cliques = []
    for a in combinations(range(v), k):
        rest = [x for x in range(v) if x not in a]
        for b in combinations(rest, k):
            c = tuple(x for x in rest if x not in b)
            if a < b < c:
                cliques.append(tuple(index[frozenset(s)] for s in (a, b, c)))
    return CliquePartition(1, tuple(cliques))


def hamming(orders) -> SimpleGraph:
    """Cartesian product of complete graphs (each order at least 2)."""

    orders = list(orders)
    if not orders:
        raise ValueError("need at least one factor")
    if any(q < 2 for q in orders):
        raise ValueError("every factor order must be at least 2")
    g = complete(orders[0])
    for q in orders[1:]:
        g = cartesian_product(g, complete(q))
    return g


# ---------------------------------------------------------------------------
# circulants


def circulant(n: int, r: int) -> SimpleGraph:
    """C_{n,r}: x ~ y iff x - y is in {+-1, ..., +-r} mod n; 2r-regular."""

    if not 1 <= r < n / 2:
        raise ValueError("circulant requires 1 <= r < n/2")
    edges = []
    for x in range(n):
        for j in range(1, r + 1):
            edges.append((x, (x + j) % n))
    return build_simple(n, edges)


def circulant_spectrum(n: int, r: int) -> list[float]:
    """Closed-form eigenvalues of C_{n,r}, sorted ascending with multiplicity.

    The character sums collapse to -1 + sin((2r+1) pi l / n) / sin(pi l / n)
    for l = 1..n-1, with the valency 2r at l = 0.
    """

    if not 1 <= r < n / 2:
        raise ValueError("circulant requires 1 <= r < n/2")
    vals = [float(2 * r)]
    for ell in range(1, n):
        t = math.pi * ell / n
        vals.append(-1.0 + math.sin((2 * r + 1) * t) / math.sin(t))
    return sorted(vals)


# ---------------------------------------------------------------------------
# strongly regular parameter algebra


@dataclass(frozen=True)
class SrgParams:
    """Parameter tuple (n, k, a, c) of a strongly regular graph."""

    n: int
    k: int
    a: int
    c: int

    def __post_init__(self):
        if min(self.n, self.k, self.a, self.c) < 0:
            raise ValueError("srg parameters must be nonnegative")
        if self.k * (self.k - self.a - 1) != (self.n - self.k - 1) * self.c:
            raise ValueError(
                f"infeasible srg parameters {self}: k(k-a-1) != (n-k-1)c"
            )


def srg_second_eigenvalues(p: SrgParams):
    """Roots theta >= 0 >= tau of x^2 - (a-c)x - (k-c) = 0.

    Exact rationals when the discriminant is a perfect square, floats
    otherwise.
    """

    b = p.a - p.c
    disc = b * b + 4 * (p.k - p.c)
    root = math.isqrt(disc)
    if root * root == disc:
        return Q(b + root, 2), Q(b - root, 2)
    s = math.sqrt(disc)
    return (b + s) / 2.0, (b - s) / 2.0


def srg_cubic_coeffs(p: SrgParams) -> tuple[int, int, int]:
    """Integers (r, s, t) with A^3 = rA + s(J - I) + tI for an SRG(n,k,a,c).

    Multiplying A^2 = kI + aA + c(J - I - A) by A, using AJ = kJ, and
    substituting the same relation for the leftover A^2 gives
    r = k - c + (a - c)^2, s = c(k + a - c), t = (a - c)(k - c) + s.
    """

    b = p.a - p.c
    r = p.k - p.c + b * b
    s = p.c * (p.k + p.a - p.c)
    t = b * (p.k - p.c) + s
    return r, s, t


# ---------------------------------------------------------------------------
# name registry (CLI surface)

_REGISTRY = {
    "cycle": ("n", lambda n: cycle(int(n))),
    "path": ("n", lambda n: path(int(n))),
    "complete": ("n", lambda n: complete(int(n))),
    "complete_multipartite": ("n1 n2 ...", lambda *p: complete_multipartite([int(x) for x in p])),
    "petersen": ("", petersen),
    "dodecahedron": ("", dodecahedron),
    "icosahedron": ("", icosahedron),
    "octahedron": ("", octahedron),
    "shrikhande": ("", shrikhande),
    "prism": ("n", lambda n: prism(int(n))),
    "johnson": ("v k", lambda v, k: johnson(int(v), int(k))),
    "kneser": ("v k", lambda v, k: kneser(int(v), int(k))),
    "hamming": ("q1 q2 ...", lambda *p: hamming([int(x) for x in p])),
    "circulant": ("n r", lambda n, r: circulant(int(n), int(r))),
}


def catalog_names() -> list[tuple[str, str]]:
    """(name, parameter schema) pairs for every named constructor."""

    return [(name, schema) for name, (schema, _) in sorted(_REGISTRY.items())]


def named_graph(name: str, params=()) -> SimpleGraph:
    """Look up a catalog graph by name with positional parameters."""

    if name not in _REGISTRY:
        raise ValueError(f"unknown catalog graph: {name!r}")
    _, builder = _REGISTRY[name]
    try:
        return builder(*params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {params}") from exc

