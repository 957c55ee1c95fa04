"""Closed-form lower and upper bounds on the smallest adjacency eigenvalue.

Gathers the ratio-type upper bounds (Hoffman, fractional chromatic,
chromatic, largest-eigenvalue refinements), the diameter and
bipartiteness-ratio lower bounds, triangle-density lower bounds for
regular graphs, the star-free machinery up to the cubic claw-free
theorem, and clique-partition side conditions.  Everything is desk scale:
exhaustive searches are exact and capped rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .cliqopt import (
    MAX_CLIQUE_ORDER,
    MAX_COLOR_ORDER,
    clique_number,
    chromatic_number,
    fractional_chromatic,
    independence_number,
    lambda_star_C,
    lambda_star_K,
    maximal_cliques,
    turan_t,
)
from .decomp import (
    CertificateError,
    CliquePartition,
    clique_partition_bound,
    clique_partition_stats,
    min_real_cubic_root,
    validate_partition,
)
from .graphs import SimpleGraph, bipartition, bit_indices, diameter, direct_product, is_connected
from .rationals import Q
from .spectra import lambda_max, lambda_min, lambda_min_exact, psd_check_exact, spectrum

MAX_BETA_ORDER = 14
MAX_ORBIT_ORDER = 10
# the complete-decomposition LP supports n <= 12; measured 2026-10-19 on a
# 2-core machine with Python 3.11, lambda*_C took 0.2-0.3 s on the Petersen
# graph, 0.6-0.95 s on circulant(11, 2) and 1.3-2.0 s on the icosahedron,
# against 7-25 ms for the rest of the last two's bounds --lp report, so a
# report keeps it to n <= 10 rather than spend seconds on orders 11 and 12
REPORT_COMPLETE_ORDER = 10
# a report calls a bound tight within this distance of lambda, and
# violated when it lies on the wrong side of lambda by more
TIGHT_TOL = 1e-8


def _require_regular(g: SimpleGraph) -> int:
    k = g.regular_degree()
    if k is None:
        raise ValueError("bound requires a regular graph")
    return k


# ---------------------------------------------------------------------------
# ratio-type upper bounds


def hoffman_upper(g: SimpleGraph) -> float:
    """Hoffman ratio upper bound -alpha k / (n - alpha) for k-regular G."""

    k = _require_regular(g)
    alpha = independence_number(g)
    if alpha >= g.n:
        raise ValueError("hoffman bound needs at least one edge")
    return float(Q(-alpha * k, g.n - alpha))


def chromatic_uppers(g: SimpleGraph) -> tuple[float, float]:
    """(-k/(chi_f - 1), -k/(chi - 1)) for regular G, with the chain asserted."""

    return _chromatic_uppers(_require_regular(g), fractional_chromatic(g), chromatic_number(g))


def _chromatic_uppers(k: int, chi_f, chi: int) -> tuple[float, float]:
    if chi_f <= 1 or chi <= 1:
        raise ValueError("chromatic upper bounds need an edge")
    frac = -Q(k) / (chi_f - 1)
    chrom = Q(-k, chi - 1)
    if frac > chrom:
        raise CertificateError("fractional bound must not exceed the chromatic one")
    return float(frac), float(chrom)


def lovasz_upper(g: SimpleGraph) -> tuple[float, float]:
    """(-lambda_1/(chi_f - 1), -lambda_1/(chi - 1)); no regularity needed."""

    return _lovasz_upper(lambda_max(g), fractional_chromatic(g), chromatic_number(g))


def _lovasz_upper(lam1: float, chi_f, chi: int) -> tuple[float, float]:
    if chi_f <= 1 or chi <= 1:
        raise ValueError("these upper bounds need an edge")
    return lam1 / (1 - float(chi_f)), lam1 / (1 - chi)


# ---------------------------------------------------------------------------
# diameter and bipartiteness-ratio lower bounds


def alon_sudakov_lower(g: SimpleGraph) -> float:
    """-Delta + 1/((D+1) n) for a connected nonbipartite simple graph."""

    if not is_connected(g):
        raise ValueError("diameter bound needs a connected graph")
    if bipartition(g) is not None:
        raise ValueError("diameter bound needs a nonbipartite graph")
    delta = max(g.degrees())
    d = diameter(g)
    return float(-delta + Q(1, (d + 1) * g.n))


@dataclass(frozen=True)
class BipartitenessWitness:
    ratio: object
    subset: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]


def bipartiteness_ratio(g: SimpleGraph) -> BipartitenessWitness:
    """Exact minimiser of (2e(L) + 2e(R) + e(S, V-S)) / vol(S) over S = L u R.

    Depth-first three-way assignment (out / L / R) of the vertices, in
    label order.  A branch at vertex v carries the numerator num and the
    volume vol of S so far; num never decreases along the branch and vol
    grows by at most rest[v], the degree sum of v..n-1, so the branch is
    cut once num / (vol + rest[v]) reaches the incumbent.  Swapping L and
    R leaves the ratio unchanged, so the first vertex of S goes to L only.
    Subsets of volume 0 (isolated vertices only) are never candidates.
    """

    if g.n > MAX_BETA_ORDER:
        raise ValueError(f"bipartiteness ratio capped at n <= {MAX_BETA_ORDER}")
    if g.m == 0:
        raise ValueError("bipartiteness ratio needs at least one edge")
    n = g.n
    rows = g.rows
    degs = g.degrees()
    rest = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        rest[v] = rest[v + 1] + degs[v]
    best = {"num": 1, "den": 0, "wit": (0, 0)}  # ratio = +infinity

    def walk(v, mask_l, mask_r, mask_out, num, vol):
        if best["den"] and num * best["den"] >= best["num"] * (vol + rest[v]):
            return
        if v == n:
            # past the cut, a leaf of positive volume beats the incumbent
            if vol:
                best.update(num=num, den=vol, wit=(mask_l, mask_r))
            return
        row = rows[v]
        bit = 1 << v
        deg = degs[v]
        # v outside S: edges from v into S become crossing edges
        walk(v + 1, mask_l, mask_r, mask_out | bit, num + (row & (mask_l | mask_r)).bit_count(), vol)
        # v in L: L-internal edges weigh 2, edges to the outside cross
        walk(v + 1, mask_l | bit, mask_r, mask_out,
             num + 2 * (row & mask_l).bit_count() + (row & mask_out).bit_count(), vol + deg)
        # v in R, symmetrically, once L is nonempty
        if mask_l:
            walk(v + 1, mask_l, mask_r | bit, mask_out,
                 num + 2 * (row & mask_r).bit_count() + (row & mask_out).bit_count(), vol + deg)

    walk(0, 0, 0, 0, 0, 0)
    mask_l, mask_r = best["wit"]

    def bits(m):
        return tuple(u for u in range(n) if m >> u & 1)

    return BipartitenessWitness(
        Q(best["num"], best["den"]),
        bits(mask_l | mask_r),
        bits(mask_l),
        bits(mask_r),
    )


def trevisan_lower(g: SimpleGraph) -> float:
    """-d + beta^2/d for a d-regular graph."""

    d = _require_regular(g)
    if d == 0:
        raise ValueError("trevisan bound needs edges")
    beta = bipartiteness_ratio(g).ratio
    return float(-d + beta * beta / d)


# ---------------------------------------------------------------------------
# triangle statistics


def triangle_stats(g: SimpleGraph) -> tuple[int, int]:
    """(min triangles through a vertex, max triangles on an edge)."""

    rows = g.rows
    per_vertex = [0] * g.n
    t_max = 0
    for u, v in g.edges():
        common = rows[u] & rows[v]
        c = common.bit_count()
        t_max = max(t_max, c)
        w = common
        while w:
            low = w & -w
            per_vertex[low.bit_length() - 1] += 1
            w ^= low
    # each triangle is counted once per opposite edge, i.e. exactly once per vertex
    m_min = min(per_vertex) if g.n else 0
    return m_min, t_max


def tm_lower(g: SimpleGraph) -> tuple[float, bool]:
    """-d + m/t for connected regular G; (-d, vacuous=True) when triangle-free."""

    d = _require_regular(g)
    if not is_connected(g):
        raise ValueError("triangle-density bound needs a connected graph")
    m, t = triangle_stats(g)
    if t == 0:
        return float(-d), True
    return float(-d + Q(m, t)), False


# ---------------------------------------------------------------------------
# star-free graphs


def is_K1k_free(g: SimpleGraph, k: int):
    """(True, None) when no induced K_{1,k}; else (False, witness star).

    The check looks for an independent set of size k inside each
    neighbourhood; the witness is (centre, leaves).
    """

    if k < 3:
        raise ValueError("star-freeness is about k >= 3")
    rows = g.rows

    def independent_subset(pool: int, need: int, acc):
        if need == 0:
            return acc
        v = pool
        while v:
            low = v & -v
            u = low.bit_length() - 1
            v ^= low
            got = independent_subset(pool & ~rows[u] & ~(low | (low - 1)), need - 1, acc + [u])
            if got is not None:
                return got
        return None

    for centre in range(g.n):
        leaves = independent_subset(rows[centre], k, [])
        if leaves is not None:
            return False, (centre, tuple(leaves))
    return True, None


def aab_lower(g: SimpleGraph, k: int) -> float:
    """-d + t(d,k)/(d-1) for a connected d-regular K_{1,k}-free graph."""

    d = _require_regular(g)
    if not is_connected(g):
        raise ValueError("star-free bound needs a connected graph")
    free, witness = is_K1k_free(g, k)
    if not free:
        raise ValueError(f"graph contains an induced K_1,{k} at {witness}")
    if d < k:
        raise ValueError("star-free bound needs degree at least k")
    return _aab_value(d, k)


def _aab_value(d: int, k: int) -> float:
    return float(-d + Q(turan_t(d, k), d - 1))


def cubic_clawfree_theta() -> float:
    """Smallest (only) real root of x^3 + x + 14."""

    return min_real_cubic_root(-1.0, 14.0)


@dataclass(frozen=True)
class ClawfreeCubicReport:
    lam: float
    theta: float
    neighborhood_kinds: tuple[str, ...]
    diamonds: tuple[tuple[int, int, int, int], ...]
    middle_edges: tuple[tuple[int, int], ...]
    triangle_edge_bound: object | None  # -2 when all neighbourhoods are K1 u K2


def find_diamonds(g: SimpleGraph):
    """Induced K_4 minus an edge, reported as (a, b, u, v) with middle edge uv."""

    rows = g.rows
    out = []
    for u, v in g.edges():
        common = rows[u] & rows[v]
        if common.bit_count() != 2:
            continue
        low = common & -common
        a = low.bit_length() - 1
        b = (common ^ low).bit_length() - 1
        if not g.has_edge(a, b):
            out.append((a, b, u, v))
    return out


def cubic_clawfree_check(g: SimpleGraph) -> ClawfreeCubicReport:
    """Verify the cubic claw-free picture and the lower bound lambda >= theta.

    Classifies every neighbourhood as K1 u K2 or K_{1,2}, finds all diamonds
    and their middle edges (asserting distinct diamonds are vertex
    disjoint), and certifies lambda >= -2 via the unique triangle/edge
    partition when no K_{1,2} neighbourhood occurs.  Then every edge lies
    in exactly one maximal clique, so the maximal cliques are that
    partition; A + 2I is checked positive semidefinite exactly.
    """

    d = g.regular_degree()
    if d != 3:
        raise ValueError("this bound is about cubic graphs")
    if g.n < 6:
        raise ValueError("needs at least 6 vertices")
    if not is_connected(g):
        raise ValueError("needs a connected graph")
    free, witness = is_K1k_free(g, 3)
    if not free:
        raise ValueError(f"graph has an induced claw at {witness}")
    kinds = []
    for v in range(g.n):
        nbrs = list(g.neighbors(v))
        inside = sum(1 for a, b in combinations(nbrs, 2) if g.has_edge(a, b))
        if inside == 1:
            kinds.append("K1+K2")
        elif inside == 2:
            kinds.append("K1,2")
        else:
            raise CertificateError(
                "claw-free cubic neighbourhoods on >= 6 vertices have 1 or 2 edges"
            )
    diamonds = tuple(find_diamonds(g))
    used = set()
    for dia in diamonds:
        if used & set(dia):
            raise CertificateError("distinct diamonds must be vertex disjoint")
        used |= set(dia)
    middles = tuple((u, v) for (_, _, u, v) in diamonds)
    lam = lambda_min(g)
    theta = cubic_clawfree_theta()
    if lam < theta - 1e-8:
        raise CertificateError(f"lambda {lam} dips below theta {theta}")
    triangle_bound = None
    if all(kind == "K1+K2" for kind in kinds):
        part = CliquePartition(1, tuple(tuple(bit_indices(c)) for c in maximal_cliques(g)))
        triangle_bound = clique_partition_bound(part, g)
        if triangle_bound != Q(-2):
            raise CertificateError("triangle/edge partition should give exactly -2")
        shifted = [[2 * (u == v) + g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)]
        if not psd_check_exact(shifted):
            raise CertificateError("lambda must be at least -2 here")
    return ClawfreeCubicReport(lam, theta, tuple(kinds), diamonds, middles, triangle_bound)


# ---------------------------------------------------------------------------
# clique partition side conditions


def deltbnd_check(k: CliquePartition, g: SimpleGraph):
    """(Delta/(c-1), tightness flag, per-vertex (mu d_u + e_u)/c refinements).

    Tight exactly when some maximum-degree vertex sees only cliques of the
    smallest order c.
    """

    r_u, r, c = clique_partition_stats(k, g)
    if c < 2:
        raise ValueError("needs a nonempty partition")
    degs = g.degrees()
    delta = max(degs)
    bound = Q(delta, c - 1)
    if Q(r, k.mu) > bound:
        raise CertificateError("partition exceeds the degree bound")
    orders_at = [[] for _ in range(g.n)]
    for cl in k.cliques:
        for u in cl:
            orders_at[u].append(len(cl))
    tight = any(
        degs[u] == delta and all(o == c for o in orders_at[u])
        for u in range(g.n)
    )
    refine = []
    for u in range(g.n):
        e_u = sum(1 for o in orders_at[u] if o == c)
        refine.append(Q(k.mu * degs[u] + e_u, c))
        if r_u[u] > refine[u]:
            raise CertificateError("per-vertex refinement violated")
    return bound, tight, tuple(refine)


def product_partition(g1, k1: CliquePartition, g2, k2: CliquePartition):
    """Uniform-order clique partition of the direct product, as in the text.

    Takes all c1-cliques inside every kappa1 x kappa2 block (c1 <= c2);
    each block edge lies in P(c2-2, c1-2) of them, giving a partition of
    mu mu1 mu2 (G1 x G2).
    """

    validate_partition(k1, g1)
    validate_partition(k2, g2)
    orders1 = {len(c) for c in k1.cliques}
    orders2 = {len(c) for c in k2.cliques}
    if len(orders1) != 1 or len(orders2) != 1:
        raise ValueError("both partitions must have uniform clique order")
    c1, c2 = orders1.pop(), orders2.pop()
    if c1 > c2:
        g1, g2, k1, k2, c1, c2 = g2, g1, k2, k1, c2, c1
    n2 = g2.n
    cliques = []
    for kap1 in k1.cliques:
        for kap2 in k2.cliques:
            for image in permutations(kap2, c1):
                cliques.append(tuple(sorted(u * n2 + x for u, x in zip(kap1, image))))
    per_edge = 1
    for i in range(c1 - 2):
        per_edge *= (c2 - 2) - i
    mu = k1.mu * k2.mu * per_edge
    return CliquePartition(mu, tuple(cliques)), c1, c2


def product_tightness(g1: SimpleGraph, k1: CliquePartition, g2: SimpleGraph, k2: CliquePartition):
    """Check lambda(G1 x G2) = lambda*_K(G1 x G2) = -k1 k2/(c1 - 1).

    The caller supplies uniform-order partitions certifying
    lambda(G_i) = lambda*_K(G_i) = -k_i/(c_i - 1).
    """

    d1, d2 = _require_regular(g1), _require_regular(g2)
    part, c1, c2 = product_partition(g1, k1, g2, k2)
    for g, k, d, c in ((g1, k1, d1, c1), (g2, k2, d2, c2)):
        _, r, _ = clique_partition_stats(k, g)
        if Q(r, k.mu) != Q(d, c - 1):
            raise ValueError("supplied partition does not attain -k/(c-1)")
        if lambda_min_exact(g.adjacency(dtype=object), hint=lambda_min(g)) != Q(-d, c - 1):
            raise ValueError("supplied certificate does not match lambda(G_i)")
    prod = direct_product(g1, g2)
    validate_partition(part, prod)
    expected = Q(-d1 * d2, c1 - 1)
    lam = lambda_min(prod)
    report = {
        "expected": expected,
        "lambda": lam,
        "partition_bound": clique_partition_bound(part, prod),
        "mu": part.mu,
    }
    if lambda_min_exact(prod.adjacency(dtype=object), hint=lam) != expected:
        raise CertificateError("product eigenvalue does not match -k1 k2/(c1-1)")
    if prod.n <= MAX_CLIQUE_ORDER:
        star = lambda_star_K(prod)
        report["lambda_star_K"] = star.value
        if star.value != expected:
            raise CertificateError("lambda*_K on the product missed the closed form")
    return report


# ---------------------------------------------------------------------------
# transitivity


def find_automorphism(g: SimpleGraph, forced: dict):
    """Backtracking search for an automorphism extending the forced map."""

    n = g.n
    degs = g.degrees()
    mapping = dict(forced)
    used = set(mapping.values())
    if len(used) != len(mapping):
        return None
    for a, b in mapping.items():
        if degs[a] != degs[b]:
            return None
    # BFS order from the forced vertices gives early adjacency pruning
    order = []
    seen = set()
    queue = list(mapping.keys()) or [0]
    for s in queue:
        seen.add(s)
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        order.append(u)
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    for v in range(n):
        if v not in seen:
            order.append(v)
            seen.add(v)

    def bt(idx):
        if idx == len(order):
            return True
        v = order[idx]
        if v in mapping:
            return bt(idx + 1)
        for w in range(n):
            if w in used or degs[w] != degs[v]:
                continue
            if all(
                g.has_edge(v, u) == g.has_edge(w, x) for u, x in mapping.items()
            ):
                mapping[v] = w
                used.add(w)
                if bt(idx + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return dict(mapping) if bt(0) else None


def is_vertex_transitive(g: SimpleGraph) -> bool:
    if g.n > MAX_ORBIT_ORDER:
        raise ValueError(f"orbit computation capped at n <= {MAX_ORBIT_ORDER}")
    return all(
        find_automorphism(g, {0: v}) is not None for v in range(1, g.n)
    )


def is_edge_transitive(g: SimpleGraph) -> bool:
    if g.n > MAX_ORBIT_ORDER:
        raise ValueError(f"orbit computation capped at n <= {MAX_ORBIT_ORDER}")
    edges = g.edges()
    if not edges:
        return True
    a, b = edges[0]
    for u, v in edges:
        if find_automorphism(g, {a: u, b: v}) is None and find_automorphism(
            g, {a: v, b: u}
        ) is None:
            return False
    return True


def vertrans_bound(g: SimpleGraph):
    """lambda = -k/(omega - 1) for vertex- and edge-transitive G with alpha omega = n.

    Transitivity is established by brute-force orbit checks for n <= 10.
    Returns None when the hypotheses fail or cannot be established.
    """

    if g.n > MAX_ORBIT_ORDER or not (is_vertex_transitive(g) and is_edge_transitive(g)):
        return None
    alpha = independence_number(g)
    omega = clique_number(g)
    if alpha * omega != g.n or omega < 2:
        return None
    k = _require_regular(g)
    return Q(-k, omega - 1)


# ---------------------------------------------------------------------------
# aggregated reports


@dataclass
class BoundEntry:
    """One bound of a report; value is a Fraction exactly when the bound is exact."""

    name: str
    kind: str  # "lower" | "upper"
    value: object
    tight: bool | None = None
    note: str = ""


@dataclass
class BoundReport:
    graph: str
    n: int
    m: int
    lam: float
    entries: list[BoundEntry] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (name, reason)

    @property
    def violations(self) -> list[BoundEntry]:
        """Lower bounds above lambda and upper bounds below it, by more than TIGHT_TOL."""

        return [
            en
            for en in self.entries
            if (en.kind == "lower" and en.value > self.lam + TIGHT_TOL)
            or (en.kind == "upper" and en.value < self.lam - TIGHT_TOL)
        ]


def bound_report(g: SimpleGraph, name: str = "graph", partition: CliquePartition | None = None, lp: bool = False) -> BoundReport:
    """Run every applicable bound on G and aggregate a checked report.

    A bound whose preconditions hold but whose exhaustive search or LP is
    capped below the order of G is listed in rep.skipped with the reason.
    """

    spec = spectrum(g.adjacency(dtype=float)) if g.n else None
    lam = spec.lambda_min if g.n else 0.0
    rep = BoundReport(name, g.n, g.m, lam)
    k = g.regular_degree()
    connected = is_connected(g) if g.n else False
    # shared by the chromatic and Lovasz bounds, which have the same cap
    if g.m > 0 and g.n <= MAX_COLOR_ORDER:
        chi_f, chi = fractional_chromatic(g), chromatic_number(g)

    def put(entry_name, kind, value, note=""):
        tight = abs(value - lam) <= TIGHT_TOL
        rep.entries.append(BoundEntry(entry_name, kind, value, tight, note))

    def fits(entry_names, cap):
        if g.n <= cap:
            return True
        for entry_name in entry_names:
            rep.skipped.append((entry_name, f"n = {g.n} exceeds the cap n <= {cap}"))
        return False

    if connected and bipartition(g) is None:
        put("alon_sudakov", "lower", alon_sudakov_lower(g))
    if k is not None and k > 0 and fits(["trevisan"], MAX_BETA_ORDER):
        put("trevisan", "lower", trevisan_lower(g))
    if k is not None and connected and g.n >= 2:
        value, vacuous = tm_lower(g)
        put("triangle_density", "lower", value, note="vacuous" if vacuous else "")
        if k >= 3 and is_K1k_free(g, 3)[0]:
            put("star_free_k3", "lower", _aab_value(k, 3))
    if partition is not None:
        b = clique_partition_bound(partition, g)
        put("clique_partition", "lower", b, note=f"mu={partition.mu}")
    if lp and g.m > 0:
        if fits(["lambda_star_K"], MAX_CLIQUE_ORDER):
            put("lambda_star_K", "lower", lambda_star_K(g).value)
        if fits(["lambda_star_C"], REPORT_COMPLETE_ORDER):
            put("lambda_star_C", "lower", lambda_star_C(g).value)
    if k is not None and k > 0:
        if fits(["hoffman"], MAX_CLIQUE_ORDER):
            put("hoffman", "upper", hoffman_upper(g))
        if fits(["fractional_chromatic", "chromatic"], MAX_COLOR_ORDER):
            frac, chrom = _chromatic_uppers(k, chi_f, chi)
            put("fractional_chromatic", "upper", frac)
            put("chromatic", "upper", chrom)
    if g.m > 0 and fits(["lovasz_fractional", "lovasz_chromatic"], MAX_COLOR_ORDER):
        lov_f, lov_c = _lovasz_upper(spec.lambda_max, chi_f, chi)
        put("lovasz_fractional", "upper", lov_f)
        put("lovasz_chromatic", "upper", lov_c)
    return rep
