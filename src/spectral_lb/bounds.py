"""Closed-form lower and upper bounds on the smallest adjacency eigenvalue.

Gathers the ratio-type upper bounds (Hoffman, fractional chromatic,
chromatic, largest-eigenvalue refinements), the diameter and
bipartiteness-ratio lower bounds, triangle-density lower bounds for
regular graphs, the star-free machinery up to the cubic claw-free
theorem, and clique-partition side conditions.  Searches are exact and
capped rather than approximated.  Each bound raises NotApplicable when G
fails one of its hypotheses and CapExceeded above a size cap, testing the
hypotheses first; bound_report only catches the two.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .cliqopt import (
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
    DecompositionError,
    clique_partition_bound,
    clique_partition_stats,
    min_real_cubic_root,
    validate_partition,
)
from .graphs import CapExceeded, NotApplicable, SimpleGraph, bipartition, bit_indices, diameter, direct_product, is_connected, require_order
from .rationals import Q
from .spectra import lambda_max, lambda_min, lambda_min_exact, psd_check_exact, spectrum

MAX_BETA_ORDER = 14
# masks of L per block of the beta scan: at n = 14 its traced peak is 0.3 MiB;
# blocks of 512 doubled that and saved about a tenth of the time
_BETA_BLOCK = 256
# a report runs lambda*_C (supported to n <= 12) to n <= 10 only: measured
# 2026-10-19 on a 2-core machine with Python 3.11, it took 0.2-0.3 s on the
# Petersen graph, 0.6-0.95 s on circulant(11, 2) and 1.3-2.0 s on the
# icosahedron, against 7-25 ms for the rest of the last two's reports
REPORT_COMPLETE_ORDER = 10
# a report calls a bound tight within this distance of lambda, and
# violated when it lies on the wrong side of lambda by more
TIGHT_TOL = 1e-8


def _require_regular(g: SimpleGraph, with_edge: bool = False) -> int:
    k = g.regular_degree()
    if k is None:
        raise NotApplicable("bound requires a regular graph")
    if with_edge and k == 0:
        raise NotApplicable("bound requires a regular graph with an edge")
    return k


# ---------------------------------------------------------------------------
# ratio-type upper bounds


def hoffman_upper(g: SimpleGraph) -> float:
    """Hoffman ratio upper bound -alpha k / (n - alpha) for k-regular G."""

    k = _require_regular(g, with_edge=True)
    alpha = independence_number(g)
    return float(Q(-alpha * k, g.n - alpha))


def chromatic_uppers(g: SimpleGraph) -> tuple[float, float]:
    """(-k/(chi_f - 1), -k/(chi - 1)) for regular G with an edge, with the chain asserted."""

    return _chromatic_uppers(g, lambda: (fractional_chromatic(g), chromatic_number(g)))


def _chromatic_uppers(g: SimpleGraph, chis) -> tuple[float, float]:
    k = _require_regular(g, with_edge=True)
    chi_f, chi = chis()
    frac = -Q(k) / (chi_f - 1)
    chrom = Q(-k, chi - 1)
    if frac > chrom:
        raise CertificateError("fractional bound must not exceed the chromatic one")
    return float(frac), float(chrom)


def lovasz_upper(g: SimpleGraph) -> tuple[float, float]:
    """(-lambda_1/(chi_f - 1), -lambda_1/(chi - 1)) for G with an edge; no regularity needed."""

    return _lovasz_upper(g, lambda_max(g), lambda: (fractional_chromatic(g), chromatic_number(g)))


def _lovasz_upper(g: SimpleGraph, lam1: float, chis) -> tuple[float, float]:
    if not g.m:
        raise NotApplicable("these upper bounds need an edge")
    chi_f, chi = chis()
    return lam1 / (1 - float(chi_f)), lam1 / (1 - chi)


# ---------------------------------------------------------------------------
# diameter and bipartiteness-ratio lower bounds


def alon_sudakov_lower(g: SimpleGraph) -> float:
    """-Delta + 1/((D+1) n) for a connected nonbipartite simple graph."""

    if not is_connected(g):
        raise NotApplicable("diameter bound needs a connected graph")
    if bipartition(g) is not None:
        raise NotApplicable("diameter bound needs a nonbipartite graph")
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

    Since vol(S) = 2e(L) + 2e(R) + 2e(L, R) + e(S, V-S), the ratio is
    1 - 2e(L, R) / vol(S), so beta = 1 - max 2e(L, R) / vol(L u R).  For a
    fixed L, e(L, R) is the sum over r in R of w(r) = |N(r) n L|, linear in
    R; at the optimum t the best R is {r : w(r) / deg(r) > t / 2}
    (Dinkelbach), a prefix of the vertices outside L sorted by
    w(r) / deg(r) descending.  Swapping L and R leaves the ratio unchanged,
    so only the sets L that leave out vertex n-1 are scanned, in blocks of
    _BETA_BLOCK masks: W = L A, an integer sort key w lcm(deg) / deg (the
    vertices of L last, contributing nothing, so a prefix reaching them ties
    a shorter one and the first argmax never takes them), prefix sums p of
    2w and q of deg plus vol(L), and the argmax of p / q.  Both are integers
    of at most 2m, so two unequal ratios differ by far more than a rounding
    error and the float argmax is an exact maximiser; blocks are compared
    in integers.  An empty R has p = 0 and never wins, since G has an edge.
    """

    if g.m == 0:
        raise NotApplicable("bipartiteness ratio needs at least one edge")
    require_order("bipartiteness ratio", g.n, MAX_BETA_ORDER)
    n = g.n
    adj = g.adjacency(dtype=np.int64)
    deg = adj.sum(axis=1)
    lcm = math.lcm(*(int(d) for d in deg if d))
    scale = np.array([lcm // d if d else 0 for d in deg], dtype=np.int64)
    shifts = np.arange(n)
    total = 1 << (n - 1)
    best_p, best_q, best = 0, 1, None
    for start in range(0, total, _BETA_BLOCK):
        masks = np.arange(start, min(start + _BETA_BLOCK, total), dtype=np.int64)
        in_l = (masks[:, None] >> shifts) & 1
        out = 1 - in_l
        w = in_l @ adj
        order = np.argsort(np.where(in_l, 1, -w * scale), axis=1, kind="stable")
        p = np.cumsum(np.take_along_axis(2 * w * out, order, axis=1), axis=1)
        q = np.cumsum(np.take_along_axis(deg * out, order, axis=1), axis=1) + (in_l @ deg)[:, None]
        i, j = divmod(int((p / np.maximum(q, 1)).argmax()), n)
        if int(p[i, j]) * best_q > best_p * int(q[i, j]):
            best_p, best_q, best = int(p[i, j]), int(q[i, j]), (int(masks[i]), order[i, : j + 1])
    mask_l, prefix = best
    left = tuple(bit_indices(mask_l))
    right = tuple(sorted(int(r) for r in prefix))
    return BipartitenessWitness(Q(best_q - best_p, best_q), tuple(sorted(left + right)), left, right)


def trevisan_lower(g: SimpleGraph) -> float:
    """-d + beta^2/d for a d-regular graph with an edge (bipartiteness_ratio tests for one)."""

    d = _require_regular(g)
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
    """-d + m/t for connected regular G, n >= 2; (-d, vacuous=True) when triangle-free."""

    d = _require_regular(g)
    if g.n < 2 or not is_connected(g):
        raise NotApplicable("triangle-density bound needs a connected graph on two or more vertices")
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
    """-d + t(d,k)/(d-1) for a connected d-regular K_{1,k}-free graph, d >= k."""

    d = _require_regular(g)
    if not is_connected(g):
        raise NotApplicable("star-free bound needs a connected graph")
    if d < k:
        raise NotApplicable("star-free bound needs degree at least k")
    free, witness = is_K1k_free(g, k)
    if not free:
        raise NotApplicable(f"graph contains an induced K_1,{k} at {witness}")
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

    if g.regular_degree() != 3 or g.n < 6:
        raise NotApplicable("this bound is about cubic graphs on at least 6 vertices")
    aab_lower(g, 3)  # raises NotApplicable unless G is connected and claw-free
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
        if not psd_check_exact(g, -2):
            raise CertificateError("lambda must be at least -2 here")
    return ClawfreeCubicReport(lam, theta, tuple(kinds), diamonds, middles, triangle_bound)


# ---------------------------------------------------------------------------
# clique partition side conditions


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
        if lambda_min_exact(g) != Q(-d, c - 1):
            raise ValueError("supplied certificate does not match lambda(G_i)")
    prod = direct_product(g1, g2)
    validate_partition(part, prod)
    expected = Q(-d1 * d2, c1 - 1)
    spec = spectrum(prod)
    lam = spec.lambda_min
    report = {
        "expected": expected,
        "lambda": lam,
        "partition_bound": clique_partition_bound(part, prod),
        "mu": part.mu,
    }
    if lambda_min_exact(prod, spec) != expected:
        raise CertificateError("product eigenvalue does not match -k1 k2/(c1-1)")
    try:
        report["lambda_star_K"] = lambda_star_K(prod).value
    except CapExceeded:
        return report
    if report["lambda_star_K"] != expected:
        raise CertificateError("lambda*_K on the product missed the closed form")
    return report


# ---------------------------------------------------------------------------
# vertex- and edge-transitive graphs


def vertrans_bound(g: SimpleGraph):
    """Exact lambda = -k/(omega - 1) when alpha omega = n and the maximum cliques cover each edge equally.

    G must be k-regular with an edge.  Every vertex- and edge-transitive G
    with alpha omega = n qualifies: each edge lies in the same number mu of
    maximum cliques.  Those cliques form a clique partition of mu G, so
    -r/mu is a lower bound, and counting the pairs (maximum clique at u,
    edge at u inside it) gives r_u (omega - 1) = k mu at every vertex, so
    -r/mu = -k/(omega - 1).  Hoffman's upper bound -alpha k/(n - alpha)
    takes the same value when alpha omega = n; the two are compared
    exactly.  clique_number caps the order at MAX_CLIQUE_ORDER.
    """

    k = _require_regular(g, with_edge=True)
    alpha, omega = independence_number(g), clique_number(g)
    if alpha * omega != g.n:
        raise NotApplicable("bound requires alpha omega = n")
    cliques = [tuple(bit_indices(c)) for c in maximal_cliques(g) if c.bit_count() == omega]
    u, v = cliques[0][:2]
    mu = sum(1 for c in cliques if u in c and v in c)
    try:
        lower = clique_partition_bound(CliquePartition(mu, tuple(cliques)), g)
    except DecompositionError:
        raise NotApplicable("the maximum cliques do not cover every edge equally") from None
    if lower != Q(-alpha * k, g.n - alpha):
        raise CertificateError("the maximum-clique bound must meet Hoffman's bound")
    return lower


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


def _report_lambda_star_C(g: SimpleGraph):
    """lambda*_C as a report runs it: on graphs with an edge, to REPORT_COMPLETE_ORDER."""

    if not g.m:
        raise NotApplicable("a report runs lambda*_C on graphs with an edge")
    require_order("lambda*_C", g.n, REPORT_COMPLETE_ORDER)
    return lambda_star_C(g).value


def bound_report(g: SimpleGraph, name: str = "graph", partition: CliquePartition | None = None, lp: bool = False) -> BoundReport:
    """Run every bound on G, in a fixed order, and aggregate a checked report.

    Each bound tests its own hypotheses and size caps, so the report tests
    none: a bound that raises NotApplicable is left out, and one that
    raises CapExceeded is listed in rep.skipped with the reason, under
    every entry name it would have filled.  chi_f and chi are computed
    once, by the first chromatic or Lovasz bound that gets to them.
    """

    spec = spectrum(g) if g.n else None
    lam, lam1 = (spec.lambda_min, spec.lambda_max) if spec else (0.0, 0.0)
    rep = BoundReport(name, g.n, g.m, lam)
    chis = cache(lambda: (fractional_chromatic(g), chromatic_number(g)))

    @contextmanager
    def attempt(kind, *entry_names):
        def put(*values, note=""):
            for entry_name, value in zip(entry_names, values):
                rep.entries.append(BoundEntry(entry_name, kind, value, abs(value - lam) <= TIGHT_TOL, note))
        try:
            yield put
        except NotApplicable:
            pass
        except CapExceeded as exc:
            rep.skipped.extend((entry_name, exc.reason) for entry_name in entry_names)

    with attempt("lower", "alon_sudakov") as put:
        put(alon_sudakov_lower(g))
    with attempt("lower", "trevisan") as put:
        put(trevisan_lower(g))
    with attempt("lower", "triangle_density") as put:
        value, vacuous = tm_lower(g)
        put(value, note="vacuous" if vacuous else "")
    with attempt("lower", "star_free_k3") as put:
        put(aab_lower(g, 3))
    if partition is not None:
        with attempt("lower", "clique_partition") as put:
            put(clique_partition_bound(partition, g), note=f"mu={partition.mu}")
    if lp:
        with attempt("lower", "lambda_star_K") as put:
            put(lambda_star_K(g).value)
        with attempt("lower", "lambda_star_C") as put:
            put(_report_lambda_star_C(g))
    with attempt("upper", "hoffman") as put:
        put(hoffman_upper(g))
    with attempt("upper", "fractional_chromatic", "chromatic") as put:
        put(*_chromatic_uppers(g, chis))
    with attempt("upper", "lovasz_fractional", "lovasz_chromatic") as put:
        put(*_lovasz_upper(g, lam1, chis))
    return rep
