"""Weighted graph decompositions, clique partitions and equality certificates.

A decomposition writes a weighted graph H as an exact rational sum of
weighted pieces living on vertex subsets.  The smallest eigenvalue of H is
then at least the worst per-vertex sum of piece eigenvalues, with an
explicit certificate (a null vector of A(H) - lambda_D I meeting the
support and eigenvector conditions) characterising equality.  Signed
complete-graph pieces are ordinary pieces with closed-form minima.  A
complete multipartite graph is +J on its vertices and -J on each part;
the claws T(u) that decompose the line graph of a multigraph are written
that way, so the line-graph bound is the exact bound of that
decomposition.  Specialisations also cover clique partitions of integer
multiples of a simple graph and the cubic trick for odd graph powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    Multigraph,
    SimpleGraph,
    WeightedGraph,
    as_weighted,
    cartesian_product,
    embed,
    line_graph,
    line_graph_vertices,
    power_multigraph,
    scale,
    special_graph,
    weighted_from_multigraph,
    weighted_from_simple,
)
from .rationals import Q, QZERO, as_q, is_rational
from .spectra import lambda_min_exact, rational_nullspace, spectrum


class DecompositionError(ValueError):
    """Raised when a claimed decomposition or partition fails to validate."""


class CertificateError(RuntimeError):
    """Raised when a computed certificate or a theorem's check fails.

    Unlike DecompositionError, which rejects an input, this is a fault of
    the computation itself.
    """


# ---------------------------------------------------------------------------
# general weighted decompositions


@dataclass(frozen=True)
class Piece:
    """A weighted piece together with its embedding into the target vertex set."""

    graph: WeightedGraph
    embedding: tuple[int, ...]

    def embedded(self, n: int) -> WeightedGraph:
        return embed(self.graph, n, self.embedding)


@dataclass(frozen=True)
class Decomposition:
    target: WeightedGraph
    pieces: tuple[Piece, ...]


def piece_on(graph) -> Piece:
    """Wrap a graph of any kind as a piece on its own vertices."""

    h = as_weighted(graph)
    return Piece(h, tuple(range(h.n)))


def decomposition(target, pieces) -> Decomposition:
    h = as_weighted(target)
    out = []
    for p in pieces:
        if not isinstance(p, Piece):
            p = piece_on(p)
        p.embedded(h.n)  # validates embedding against the target order
        out.append(p)
    return Decomposition(h, tuple(out))


def validate(d: Decomposition) -> None:
    """Check that the embedded piece weights sum exactly to the target weights."""

    n = d.target.n
    total = {}
    for p in d.pieces:
        for pair, w in p.embedded(n).weights.items():
            total[pair] = total.get(pair, QZERO) + w
    total = {pair: w for pair, w in total.items() if w != 0}
    if total != d.target.weights:
        bad = []
        for pair in sorted(set(total) | set(d.target.weights)):
            got = total.get(pair, QZERO)
            want = d.target.weight(*pair)
            if got != want:
                bad.append(f"{pair}: sum {got} != target {want}")
        raise DecompositionError("weight mismatch at " + "; ".join(bad[:8]))


def _uniform_weight(h: WeightedGraph):
    vals = set(h.weights.values())
    return vals.pop() if len(vals) == 1 else None


def _special_shape(h: WeightedGraph):
    """('I' | 'J' | 'K', c) when h is c times I_n, J_n or K_n, else None.

    Weight keys are normalised pairs u <= v inside 0..n-1, so counting the
    loops and the pairs identifies the three supports.
    """

    c = _uniform_weight(h)
    if c is None:
        return None
    n, m = h.n, len(h.weights)
    loops = sum(1 for u, v in h.weights if u == v)
    if loops == m == n:
        return "I", c
    if loops == n and m == n * (n + 1) // 2:
        return "J", c
    if loops == 0 and m == n * (n - 1) // 2:
        return "K", c
    return None


def complete_lambda(kind: str, s: int, a):
    """Exact smallest eigenvalue of a*K_s or a*J_s, for a nonzero rational a.

    For a > 0: aK_s has -a, aJ_s has 0 (a for s = 1); for a < 0 the scaled
    largest eigenvalue takes over: a(s-1) for K, as for J.
    """

    if kind == "K":
        return -a if a > 0 else a * (s - 1)
    if s == 1:
        return a
    return QZERO if a > 0 else a * s


def piece_lambda(h):
    """Smallest eigenvalue of a piece: a Fraction when certified, else a float.

    Scaled I/J/K pieces have closed forms; any other piece hands its
    spectrum to lambda_min_exact, which certifies the one rational
    candidate k/s near its minimum (s the lcm of the weights'
    denominators) or leaves an irrational minimum as the float.
    """

    h = as_weighted(h)
    if h.is_zero:
        return QZERO
    shape = _special_shape(h)
    if shape is not None:
        kind, c = shape
        return c if kind == "I" else complete_lambda(kind, h.n, c)
    spec = spectrum(h)
    exact = lambda_min_exact(h, spec)
    return spec.lambda_min if exact is None else exact


@dataclass(frozen=True)
class DecompositionBound:
    """min-per-vertex bound together with the full per-vertex table.

    value and every per_vertex entry are Fractions when every piece
    minimum is certified rational, floats otherwise.
    """

    value: object
    per_vertex: tuple


def _vertex_table(d: Decomposition):
    """(piece minima, per-vertex sums).

    Both are exact rationals when every piece minimum is, floats
    otherwise.
    """

    lambdas = [piece_lambda(p.graph) for p in d.pieces]
    exact = all(map(is_rational, lambdas))
    if not exact:
        lambdas = [float(lam) for lam in lambdas]
    table = [QZERO if exact else 0.0] * d.target.n
    for p, lam in zip(d.pieces, lambdas):
        for u in p.embedding:
            table[u] += lam
    return lambdas, table


def decomposition_bound(d: Decomposition) -> DecompositionBound:
    """Lower bound min over vertices u of the summed piece minima at u."""

    validate(d)
    _, table = _vertex_table(d)
    return DecompositionBound(min(table), tuple(table))


def equality_certificate(d: Decomposition) -> tuple | None:
    """The decomposition-bound equality certificate as a vector, or None.

    Once the pieces sum to A(H), the theorem's matrix
    sum_j (M_j - lambda(H^j) E_j) + (rI - R) with r = -lambda_D is
    A(H) - lambda_D I, so a certificate is a nonzero null vector of it that
    meets the support and eigenvector conditions.  The kernel search is
    exact when every piece minimum is certified rational, and returns a
    vector of Fractions; otherwise it takes a floating eigensolver kernel
    (tolerance 1e-8) and returns floats.
    """

    validate(d)
    n = d.target.n
    lambdas, table = _vertex_table(d)
    lam_d = min(table)
    if is_rational(lam_d):
        kernel = rational_nullspace(d.target, lam_d)
        if not kernel:
            return None
        x = kernel[0]
        _verify_conditions_exact(d, lambdas, table, x)
        return tuple(x)
    spec = spectrum(d.target.adjacency(dtype=float) - lam_d * np.eye(n))
    scale_ = 1.0 + float(np.max(np.abs(spec.values))) if n else 1.0
    null_cols = [i for i, v in enumerate(spec.values) if abs(v) <= 1e-8 * scale_]
    if not null_cols:
        return None
    x = spec.vectors[:, null_cols[0]]
    if not _conditions_hold_float(d, lambdas, table, x):
        return None
    return tuple(float(v) for v in x)


def _conditions_hold_float(d, lambdas, table, x, tol=1e-6):
    lam_d = min(table)
    for u, t in enumerate(table):
        if t > lam_d + tol and abs(x[u]) > tol:
            return False
    for piece, lam in zip(d.pieces, lambdas):
        xj = np.array([x[u] for u in piece.embedding])
        if np.max(np.abs(xj)) <= tol:
            continue
        aj = piece.graph.adjacency(dtype=float)
        if np.max(np.abs(aj @ xj - lam * xj)) > tol:
            return False
    return True


def _verify_conditions_exact(d, lambdas, table, x):
    lam_d = min(table)
    for u, t in enumerate(table):
        if t != lam_d and x[u] != 0:
            raise CertificateError("certificate violates the support condition")
    for piece, lam in zip(d.pieces, lambdas):
        emb = piece.embedding
        xj = [x[u] for u in emb]
        if all(v == 0 for v in xj):
            continue
        aj = piece.graph.adjacency_q()
        for i in range(piece.graph.n):
            acc = -lam * xj[i]
            for j in range(piece.graph.n):
                acc = acc + aj[i][j] * xj[j]
            if acc != 0:
                raise CertificateError("certificate restriction is not a minimum eigenvector")


# ---------------------------------------------------------------------------
# complete graph decompositions (signed K and J pieces)


def complete_piece(kind: str, subset, coeff=1) -> Piece:
    """The piece coeff * K_s or coeff * J_s on a sorted vertex subset (K_1 and J_0 are rejected)."""

    if kind not in ("K", "J"):
        raise ValueError("piece kind must be 'K' or 'J'")
    subset = tuple(sorted(subset))
    s = len(subset)
    if len(set(subset)) != s:
        raise ValueError("piece subset has repeated vertices")
    if s < (2 if kind == "K" else 1):
        raise ValueError(f"{kind}_{s} has no edges and is not used as a piece")
    coeff = as_q(coeff)
    if coeff == 0:
        raise ValueError("piece coefficient must be nonzero")
    loops = kind == "J"
    weights = {(u, v): coeff for u in range(s) for v in range(u if loops else u + 1, s)}
    return Piece(WeightedGraph(s, weights), subset)


def _j_minus_parts(union, parts) -> list[Piece]:
    """+J on union and -J on each part: the complete multipartite graph on the parts.

    Each vertex of the union lies in exactly one part, so the loops cancel
    and what remains is weight 1 on every pair from two different parts.
    """

    return [complete_piece("J", union, 1)] + [complete_piece("J", part, -1) for part in parts]


def multipartite_decomposition(parts) -> Decomposition:
    """K_{n1,...,nm} = J_n - sum_j J_{n_j} on consecutively indexed parts."""

    blocks, start = [], 0
    for p in parts:
        blocks.append(range(start, start + p))
        start += p
    target = {
        (u, v): Q(1)
        for i, bi in enumerate(blocks)
        for bj in blocks[i + 1 :]
        for u in bi
        for v in bj
    }
    return decomposition(WeightedGraph(start, target), _j_minus_parts(range(start), blocks))


# ---------------------------------------------------------------------------
# clique partitions


@dataclass(frozen=True)
class CliquePartition:
    """Multiset of cliques covering every edge of mu G exactly mu times."""

    mu: int
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("multiplier mu must be a positive integer")
        object.__setattr__(
            self, "cliques", tuple(tuple(sorted(k)) for k in self.cliques)
        )


def validate_partition(k: CliquePartition, g: SimpleGraph) -> None:
    counts = {}
    for cl in k.cliques:
        if len(cl) < 2:
            raise DecompositionError(f"clique {cl} has fewer than two vertices")
        if len(set(cl)) != len(cl):
            raise DecompositionError(f"clique {cl} repeats a vertex")
        for i, u in enumerate(cl):
            if not 0 <= u < g.n:
                raise DecompositionError(f"clique vertex {u} out of range")
            for v in cl[i + 1 :]:
                if not g.has_edge(u, v):
                    raise DecompositionError(
                        f"subset {cl} is not a clique: {u}-{v} is not an edge"
                    )
                counts[(u, v)] = counts.get((u, v), 0) + 1
    for u, v in g.edges():
        c = counts.pop((u, v), 0)
        if c != k.mu:
            raise DecompositionError(
                f"edge ({u}, {v}) covered {c} times, expected mu = {k.mu}"
            )
    if counts:
        raise DecompositionError(f"cover touches non-edges: {sorted(counts)[:8]}")


def clique_partition_stats(k: CliquePartition, g: SimpleGraph):
    """(per-vertex clique counts r_u, r = max, smallest clique order)."""

    validate_partition(k, g)
    r_u = [0] * g.n
    for cl in k.cliques:
        for u in cl:
            r_u[u] += 1
    r = max(r_u, default=0)
    c_min = min((len(cl) for cl in k.cliques), default=0)
    return r_u, r, c_min


def clique_partition_bound(k: CliquePartition, g: SimpleGraph):
    """-r(K)/mu as an exact rational (0 for the empty partition of an edgeless G)."""

    _, r, _ = clique_partition_stats(k, g)
    return Q(-r, k.mu)


def clique_equality_certificate(k: CliquePartition, g: SimpleGraph):
    """Nonzero x with N^T x = 0 vanishing off the max-r vertices, or None.

    With N the vertex-clique incidence matrix, mu A(G) + rI equals
    N N^T + diag(r - r_u), a sum of PSD matrices, so its kernel is exactly
    {x : N^T x = 0, x_u = 0 where r_u < r}; x is its first kernel vector,
    the kernel of A(G) + (r/mu) I.
    """

    _, r, _ = clique_partition_stats(k, g)
    if not k.cliques:
        return None
    kernel = rational_nullspace(g, Q(-r, k.mu))
    return tuple(kernel[0]) if kernel else None


@dataclass(frozen=True)
class EssentialReduction:
    """Fixed point of the essential-vertex deletion iteration."""

    vstar: tuple[int, ...]
    kstar: CliquePartition | None
    gstar: SimpleGraph


def essential_vertices(k: CliquePartition, g: SimpleGraph) -> EssentialReduction:
    """Iteratively delete vertices met by some clique in exactly one point.

    Starts from the max-r vertex set; the fixed point V* has every clique
    disjoint from it or meeting it in two or more vertices, so restricting
    the partition keeps r_u constant at r on V*.
    """

    r_u, r, _ = clique_partition_stats(k, g)
    current = {u for u in range(g.n) if r_u[u] == r}
    while True:
        drop = set()
        for cl in k.cliques:
            inside = [u for u in cl if u in current]
            if len(inside) == 1:
                drop.add(inside[0])
        if not drop:
            break
        current -= drop
    vstar = tuple(sorted(current))
    gstar = g.induced(vstar)
    if not vstar:
        return EssentialReduction(vstar, None, gstar)
    index = {u: i for i, u in enumerate(vstar)}
    restricted = []
    for cl in k.cliques:
        inside = tuple(sorted(index[u] for u in cl if u in current))
        if inside:
            restricted.append(inside)
    kstar = CliquePartition(k.mu, tuple(restricted))
    star_r_u, star_r, _ = clique_partition_stats(kstar, gstar)
    if any(x != r for x in star_r_u):
        raise CertificateError("restricted partition lost the constant r property")
    if star_r != r:
        raise CertificateError("restricted partition changed r")
    return EssentialReduction(vstar, kstar, gstar)


# ---------------------------------------------------------------------------
# odd powers: the cubic trick


def cube_decomposition(g: SimpleGraph, alpha, beta, gamma) -> Decomposition:
    """Decomposition of G^(3) as alpha G + beta K_n + gamma I_n."""

    target = weighted_from_multigraph(power_multigraph(g, 3))
    pieces = []
    alpha, beta, gamma = as_q(alpha), as_q(beta), as_q(gamma)
    if alpha != 0:
        pieces.append(piece_on(scale(weighted_from_simple(g), alpha)))
    if beta != 0:
        pieces.append(piece_on(scale(special_graph("K", g.n), beta)))
    if gamma != 0:
        pieces.append(piece_on(scale(special_graph("I", g.n), gamma)))
    return Decomposition(target, tuple(pieces))


def cubic_power_bound(g: SimpleGraph, d3: Decomposition) -> float:
    """Lower bound on lambda(G) from a decomposition of G^(3).

    With G^(3) = alpha G + beta K_n + gamma I_n and z = lambda(G), the odd
    power identity gives z^3 >= alpha z - beta + gamma, so z is at least
    the smallest real root of z^3 - alpha z + beta - gamma.
    """

    want = weighted_from_multigraph(power_multigraph(g, 3))
    if as_weighted(d3.target).weights != want.weights:
        raise DecompositionError("decomposition target is not G^(3)")
    validate(d3)
    totals = {"G": QZERO, "K": QZERO, "I": QZERO}
    edges = set(g.edges())
    for p in d3.pieces:
        h = p.embedded(g.n)
        kind, c = _special_shape(h) or ("G", _uniform_weight(h))
        if kind not in totals or c is None or (kind == "G" and set(h.weights) != edges):
            raise DecompositionError(
                "cube decomposition pieces must be multiples of G, K_n or I_n"
            )
        totals[kind] += c
    alpha, beta, gamma = totals["G"], totals["K"], totals["I"]
    if alpha < 0 or beta < 0:
        raise DecompositionError("alpha and beta must be nonnegative")
    return min_real_cubic_root(float(alpha), float(beta - gamma))


def min_real_cubic_root(a: float, b: float) -> float:
    """Smallest real root of z^3 - a z + b, polished to residual < 1e-12."""

    roots = np.roots([1.0, 0.0, -a, b])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-6 * (1 + abs(r))]
    z = min(real)
    for _ in range(200):
        f = z * z * z - a * z + b
        fp = 3 * z * z - a
        if fp == 0:
            break
        step = f / fp
        z -= step
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
    return z


# ---------------------------------------------------------------------------
# line graphs of multigraphs


def claw_decomposition(mg: Multigraph) -> Decomposition:
    """The decomposition of L(multigraph) into the claws T(u).

    T(u) joins the edge instances at u that lead to different neighbours:
    it is complete multipartite with one part per parallel class at u, so
    it is written as +J on the instances at u and -J on each class.  A
    vertex u with a single neighbour has an edgeless T(u) and gives no
    pieces.  Every piece is a signed J_s, whose minimum is exact.
    """

    target = weighted_from_simple(line_graph(mg))  # rejects loops
    classes = [{} for _ in range(mg.n)]  # classes[u][w]: instances of the edge uw
    for i, (a, b, _) in enumerate(line_graph_vertices(mg)):
        classes[a].setdefault(b, []).append(i)
        classes[b].setdefault(a, []).append(i)
    pieces = []
    for at_u in classes:
        if len(at_u) >= 2:
            pieces += _j_minus_parts([i for part in at_u.values() for i in part], at_u.values())
    return Decomposition(target, tuple(pieces))


def line_graph_bound(mg: Multigraph):
    """Exact lower bound on lambda(L(multigraph)): the bound of its claw decomposition.

    At the line-graph vertex of an edge instance ab, each endpoint with two
    or more neighbours contributes -m_ab, the order of the -J on the
    parallel class, so the bound is at least -2 mu.  Twig replication is
    covered by the same computation because edgeless claws drop out.  A
    multigraph without edges gets 0.
    """

    d = claw_decomposition(mg)
    return decomposition_bound(d).value if d.target.n else QZERO


# ---------------------------------------------------------------------------
# products


def cartesian_copy_decomposition(g1: SimpleGraph, g2: SimpleGraph, product=None) -> Decomposition:
    """Decompose G1 [] G2 into the copies of G1 and G2 along the two axes."""

    prod = product if product is not None else cartesian_product(g1, g2)
    target = weighted_from_simple(prod)
    n2 = g2.n
    pieces = []
    for v in range(n2):
        pieces.append(Piece(weighted_from_simple(g1), tuple(u * n2 + v for u in range(g1.n))))
    for u in range(g1.n):
        pieces.append(Piece(weighted_from_simple(g2), tuple(u * n2 + v for v in range(n2))))
    return Decomposition(target, tuple(pieces))
