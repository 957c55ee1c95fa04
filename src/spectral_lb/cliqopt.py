"""Clique enumeration and the exact LP optimisation of decomposition bounds.

lambda_star_C optimises over signed complete-graph decompositions;
lambda_star_K is the same LP restricted to +K_S columns on the cliques of
a simple graph, whose integer solutions are the clique partitions of
integer multiples mu G.  One builder and one solve serve both; each
optimum is returned with an integer certificate that its caller
re-validates against the decomp module.  The combinatorial side
(independence, clique and chromatic numbers, Turan numbers) is exact
branch and bound on bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .decomp import (
    CertificateError,
    CliquePartition,
    clique_partition_stats,
    complete_piece,
    decomposition,
    decomposition_bound,
)
from .graphs import NotApplicable, SimpleGraph, as_weighted, bit_indices, require_order, scale
from .rationals import Q, QZERO, denominator_lcm
from .simplex import OPTIMAL, RationalLP, SimplexError

MAX_CLIQUE_ORDER = 24
# the lambda*_C model of order n has 2^n - n - 1 + C(n, 2) piece columns and
# C(n, 2) + n rows: 4,149 and 78 at n = 12, about 4 MB built in 0.1 s, and
# 9 MB more once compiled for the simplex (0.2 s, once per order); measured
# 2026-10-19 on a 2-core machine with Python 3.11, the icosahedron (n = 12)
# takes 1.3-2.0 s
MAX_COMPLETE_ORDER = 12
MAX_COLOR_ORDER = 18


# ---------------------------------------------------------------------------
# clique enumeration


def maximal_cliques(g: SimpleGraph) -> list[int]:
    """Bitmasks of all maximal cliques (Bron-Kerbosch with pivoting)."""

    out = []
    rows = g.rows

    def bk(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        pivot = max(bit_indices(pool), key=lambda v: (p & rows[v]).bit_count())
        for v in bit_indices(p & ~rows[pivot]):
            bit = 1 << v
            bk(r | bit, p & rows[v], x & rows[v])
            p &= ~bit
            x |= bit

    bk(0, (1 << g.n) - 1 if g.n else 0, 0)
    return out


def enumerate_cliques(g: SimpleGraph, min_size: int = 2) -> list[tuple[int, ...]]:
    """All cliques of size >= min_size, as sorted vertex tuples."""

    require_order("clique enumeration", g.n, MAX_CLIQUE_ORDER)
    seen = set()
    for mask in maximal_cliques(g):
        members = tuple(bit_indices(mask))
        for size in range(min_size, len(members) + 1):
            for sub in combinations(members, size):
                seen.add(sub)
    return sorted(seen, key=lambda s: (len(s), s))


# ---------------------------------------------------------------------------
# exact combinatorial numbers


def clique_number(g: SimpleGraph) -> int:
    """Order of the largest clique, by branch and bound with colour bounds."""

    require_order("clique number", g.n, MAX_CLIQUE_ORDER)
    if g.n == 0:
        return 0
    rows = g.rows
    best = 0

    def colour_bound(p: int) -> int:
        colours = []
        for v in bit_indices(p):
            for cls in colours:
                if not (rows[v] & cls[0]):
                    cls[0] |= 1 << v
                    break
            else:
                colours.append([1 << v])
        return len(colours)

    def expand(r_size: int, p: int):
        nonlocal best
        if not p:
            best = max(best, r_size)
            return
        if r_size + colour_bound(p) <= best:
            return
        v = max(bit_indices(p))
        expand(r_size + 1, p & rows[v])
        expand(r_size, p & ~(1 << v))

    expand(0, (1 << g.n) - 1)
    return best


def independence_number(g: SimpleGraph) -> int:
    return clique_number(g.complement())


def chromatic_number(g: SimpleGraph) -> int:
    """Exact chromatic number via DSATUR branch and bound."""

    require_order("chromatic number", g.n, MAX_COLOR_ORDER)
    n = g.n
    if n == 0:
        return 0
    rows = g.rows
    colour = [-1] * n
    best = n + 1

    def greedy_upper() -> int:
        order = sorted(range(n), key=lambda u: -rows[u].bit_count())
        cols = {}
        for u in order:
            used = {cols[v] for v in bit_indices(rows[u]) if v in cols}
            c = 0
            while c in used:
                c += 1
            cols[u] = c
        return 1 + max(cols.values()) if cols else 0

    best = greedy_upper() + 1

    def solve(assigned: int, used: int):
        nonlocal best
        if used >= best:
            return
        if assigned == n:
            best = used
            return
        # most saturated uncoloured vertex, ties by degree
        cand, sat_best = -1, (-1, -1)
        for u in range(n):
            if colour[u] >= 0:
                continue
            sat = len({colour[v] for v in bit_indices(rows[u]) if colour[v] >= 0})
            key = (sat, rows[u].bit_count())
            if key > sat_best:
                sat_best = key
                cand = u
        forbidden = {colour[v] for v in bit_indices(rows[cand]) if colour[v] >= 0}
        for c in range(min(used + 1, best - 1)):
            if c in forbidden:
                continue
            colour[cand] = c
            solve(assigned + 1, max(used, c + 1))
            colour[cand] = -1

    solve(0, 0)
    return best


def turan_t(d: int, k: int) -> int:
    """Edges of the Turan graph: balanced (k-1)-clique partition of d vertices."""

    if not d >= k >= 3:
        raise ValueError("turan_t requires d >= k >= 3")
    q, r = divmod(d, k - 1)
    return r * comb(q + 1, 2) + (k - 1 - r) * comb(q, 2)


# ---------------------------------------------------------------------------
# fractional chromatic number


def fractional_chromatic(g: SimpleGraph):
    """Exact LP optimum of the independent-set cover relaxation."""

    require_order("fractional chromatic number", g.n, MAX_COLOR_ORDER)
    if g.n == 0:
        return QZERO
    ind_sets = maximal_cliques(g.complement())
    lp = RationalLP()
    xs = [lp.variable(obj=1) for _ in ind_sets]
    for u in range(g.n):
        lp.add_ge({xs[j]: 1 for j, s in enumerate(ind_sets) if s >> u & 1}, 1)
    sol = lp.solve()
    if sol.status != OPTIMAL:
        raise SimplexError(f"fractional chromatic LP came back {sol.status}")
    return sol.objective


# ---------------------------------------------------------------------------
# the decomposition LP: lambda*_C, and lambda*_K as its clique columns


@dataclass(frozen=True)
class LambdaStarResult:
    """Exact LP optimum with its integer decomposition certificate."""

    value: object
    mu: int
    multiplicities: dict
    per_vertex: tuple
    pivots: int = 0


def _decomposition_model(n: int, subsets, signed: bool):
    """The decomposition LP over the given subsets, with every right-hand side zero.

    Maximises lambda+ - lambda-.  Rows: one equality per 2-subset, in
    order, then one >= row per vertex, whose right-hand side a solve sets
    to -h_uu.  Columns: lambda+ and lambda-, then a +K_S column per
    subset S, with a -K_2 column after each 2-subset when signed.  Both
    kinds have minimum -1, so every piece column has coefficient -1 in the
    rows of its vertices.  Every pair inside a subset must itself be one
    of the subsets.  Returns the model, its pieces as (variable, subset,
    sign), and the variables of the K_2 pieces keyed by (pair, sign).
    """

    lp = RationalLP(maximize=True)
    lam_p = lp.variable(obj=1)
    lam_m = lp.variable(obj=-1)
    pairs = {s: {} for s in subsets if len(s) == 2}
    loads = [{lam_p: -1, lam_m: 1} for _ in range(n)]
    pieces = []
    for s in subsets:
        for sign in (1, -1) if signed and len(s) == 2 else (1,):
            j = lp.variable()
            pieces.append((j, s, sign))
            for u in s:
                loads[u][j] = -1
            for p in combinations(s, 2):
                pairs[p][j] = sign
    for coeffs in pairs.values():
        lp.add_eq(coeffs, 0)
    for coeffs in loads:
        lp.add_ge(coeffs, 0)
    k2 = {(s, sign): j for j, s, sign in pieces if len(s) == 2}
    return lp, tuple(pieces), k2


def _solve_decomposition(model, pieces, k2, weight, loops):
    """Optimum of a decomposition model for pair weights weight(u, v) and loops h_uu.

    Sets the right-hand sides and starts from one K_2 per pair row, signed
    as its weight, with lambda at the worst vertex sum.  Returns the
    solution, the lcm mu of the denominators of the net values per subset
    (the loops as 1-subsets, first) and those net values times mu, as
    integers keyed by subset in model order.
    """

    n = len(loops)
    pairs = [s for s, sign in k2 if sign == 1]
    ws = [weight(u, v) for u, v in pairs]
    basis = []
    start_sum = list(loops)
    for (u, v), w in zip(pairs, ws):
        basis.append(k2[((u, v), 1 if w >= 0 else -1)])
        start_sum[u] -= abs(w)
        start_sum[v] -= abs(w)
    lam0 = min(start_sum)
    u_star = start_sum.index(lam0)
    basis.append(1 if lam0 <= 0 else 0)  # variable 1 is lambda-, 0 is lambda+
    basis.extend(model.slack_index(len(pairs) + u) for u in range(n) if u != u_star)
    sol = model.solve(start_basis=basis, rhs=ws + [-w for w in loops])
    if sol.status != OPTIMAL:
        raise SimplexError(f"decomposition LP came back {sol.status}")

    nets = {(u,): w for u, w in enumerate(loops)}
    for j, s, sign in pieces:
        if sol.x[j]:
            nets[s] = nets.get(s, QZERO) + sign * sol.x[j]
    nets = {s: a for s, a in nets.items() if a}
    mu = denominator_lcm(nets.values())
    counts = {}
    for s, a in nets.items():
        count = a * mu
        if count.denominator != 1:
            raise CertificateError("decomposition LP optimum is not integral at mu")
        counts[s] = int(count)
    return sol, mu, counts


def lambda_star_K(g: SimpleGraph) -> LambdaStarResult:
    """Best clique-partition bound -r(K)/mu over all mu and partitions.

    The lambda*_C LP restricted to +K_S columns on the cliques S of G
    (enumerate_cliques): the pair rows are the edges, each of weight 1,
    and there are no -K_2 columns and no loops.  A clique partition of
    mu G is such a decomposition of mu G, so the optimum is the largest
    -max_u r_u/mu.  The optimal basic solution is scaled by the lcm of its
    denominators into a clique partition of mu G, which is re-validated
    exactly through clique_partition_stats: its -r/mu must equal the optimum.
    """

    if not g.m:
        raise NotApplicable("lambda*_K needs at least one edge")
    require_order("lambda*_K", g.n, MAX_CLIQUE_ORDER)
    model, pieces, k2 = _decomposition_model(g.n, enumerate_cliques(g, 2), False)
    sol, mu, counts = _solve_decomposition(model, pieces, k2, lambda u, v: 1, [0] * g.n)
    partition = CliquePartition(
        mu, tuple(c for c, k in sorted(counts.items()) for _ in range(k))
    )
    r_u, r, _ = clique_partition_stats(partition, g)
    if Q(-r, mu) != sol.objective:
        raise CertificateError("lambda*_K certificate failed to re-validate")
    return LambdaStarResult(sol.objective, mu, counts, tuple(r_u), sol.pivots)


@lru_cache(maxsize=None)
def _complete_model(n: int):
    """The lambda*_C model on n vertices: +K_S on every S with |S| >= 2, and -K_2."""

    subsets = [s for size in range(2, n + 1) for s in combinations(range(n), size)]
    return _decomposition_model(n, subsets, True)


def lambda_star_C(h) -> LambdaStarResult:
    """Best complete-graph-decomposition bound for a weighted graph.

    Maximises lambda = lambda+ - lambda- over H = sum of a_S K_S and b_S J_S
    with every pair and loop weight matched exactly and every vertex's sum
    of piece minima at least lambda.  Scaling by a < 0 turns the largest
    eigenvalue into the smallest: +K_s has minimum -1, +J_s 0 (1 for
    s = 1), -K_s -(s-1) and -J_s -s.

    The LP has only +K_S and -K_2 columns, which leaves the optimum
    unchanged.  For a > 0, -a K_S has the same matrix and per-vertex minima
    as -a K_2 on each of its pairs, -a J_S as those pairs plus -a J_1 on
    each vertex, and +a J_S as +a K_S plus +a J_1 on each vertex.  Then only
    the J_1 pieces on u carry its loop, so their net weight is h_uu and
    they add exactly h_uu to u's sum: the loops are a constant, the
    right-hand side -h_uu of u's row.  The model for each order is built
    once (_complete_model); a call sets the right-hand sides from h and
    starts from one signed K_2 per pair.  The certificate adds the loops
    back as J_1 pieces and re-validates the scaled integer decomposition
    through decomposition_bound.
    """

    h = as_weighted(h)
    n = h.n
    if n == 0:
        raise NotApplicable("lambda*_C needs at least one vertex")
    require_order("lambda*_C", n, MAX_COMPLETE_ORDER)
    model, pieces, k2 = _complete_model(n)
    loops = [h.weight(u, u) for u in range(n)]
    sol, mu, counts = _solve_decomposition(model, pieces, k2, h.weight, loops)
    mult = {("J" if len(s) == 1 else "K", s): c for s, c in counts.items()}
    decomp_pieces = [complete_piece(kind, s, c) for (kind, s), c in mult.items()]
    bound = decomposition_bound(decomposition(scale(h, mu), decomp_pieces))
    if bound.value != sol.objective * mu:
        raise CertificateError("lambda*_C certificate failed to re-validate")
    return LambdaStarResult(sol.objective, mu, mult, bound.per_vertex, sol.pivots)
