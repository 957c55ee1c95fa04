"""Clique enumeration, combinatorial numbers and the two exact LPs."""

from itertools import combinations

import pytest

from corpus import connected_atlas, random_connected_graph
from spectral_lb.catalog import (
    complete,
    complete_multipartite,
    cycle,
    johnson,
    kneser,
    octahedron,
    path,
    petersen,
    shrikhande,
)
from spectral_lb.cliqopt import (
    chromatic_number,
    clique_number,
    enumerate_cliques,
    fractional_chromatic,
    independence_number,
    lambda_star_C,
    lambda_star_K,
    maximal_cliques,
    turan_t,
)
from spectral_lb.decomp import (
    CliquePartition,
    clique_partition_bound,
    validate_partition,
)
from spectral_lb.graphs import build_simple, build_weighted
from spectral_lb.rationals import Q
from spectral_lb.spectra import lambda_min


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_cliques_counts():
    assert len(enumerate_cliques(complete(4))) == 11  # 6 + 4 + 1
    assert len(enumerate_cliques(cycle(5))) == 5
    assert len(enumerate_cliques(petersen())) == 15


def test_enumerate_cliques_oracle(rng):
    # brute force over all vertex subsets
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 7))
        want = set()
        for size in range(2, g.n + 1):
            for sub in combinations(range(g.n), size):
                if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                    want.add(sub)
        assert set(enumerate_cliques(g)) == want


def test_maximal_cliques_octahedron():
    assert len(maximal_cliques(octahedron())) == 8


# ---------------------------------------------------------------------------
# exact numbers against brute-force oracles


def _alpha_brute(g):
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def _chi_brute(g):
    from itertools import product

    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colours in product(range(k), repeat=g.n):
            if max(colours) != k - 1:
                continue
            if all(colours[u] != colours[v] for u, v in g.edges()):
                return k
    return g.n


def test_numbers_against_oracles(rng):
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(2, 7))
        assert independence_number(g) == _alpha_brute(g)
        assert clique_number(g) == _alpha_brute(g.complement())
        assert chromatic_number(g) == _chi_brute(g)


def test_known_numbers():
    pet = petersen()
    assert independence_number(pet) == 4
    assert clique_number(pet) == 2
    assert chromatic_number(pet) == 3
    assert independence_number(complete_multipartite([3, 3])) == 3
    assert clique_number(complete_multipartite([3, 3])) == 2
    assert clique_number(kneser(6, 2)) == 3
    assert chromatic_number(octahedron()) == 3
    assert chromatic_number(complete(5)) == 5


def test_fractional_chromatic_values():
    assert fractional_chromatic(cycle(5)) == Q(5, 2)
    assert fractional_chromatic(kneser(6, 2)) == Q(3)
    assert fractional_chromatic(complete(4)) == Q(4)
    assert fractional_chromatic(cycle(6)) == Q(2)
    # vertex transitive: chi_f = n / alpha
    assert fractional_chromatic(cycle(7)) == Q(7, 3)
    assert fractional_chromatic(petersen()) == Q(5, 2)


def test_turan_numbers():
    assert turan_t(3, 3) == 1
    assert turan_t(6, 3) == 6
    assert turan_t(5, 3) == 4
    assert turan_t(4, 3) == 2
    for d, k in ((6, 4), (9, 4), (8, 3)):
        q, r = divmod(d, k - 1)
        total = turan_t(d, k)
        # balanced case: k-1 cliques of size d/(k-1)
        if r == 0:
            assert total == (k - 1) * q * (q - 1) // 2
    with pytest.raises(ValueError):
        turan_t(2, 3)


def test_turan_oracle_small():
    # fewest edges a d-vertex graph can have while keeping its independence
    # number at k-1 or less (attained by the balanced clique partition)
    def brute(d, k):
        best = None
        pairs = list(combinations(range(d), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = build_simple(d, edges)
            if _alpha_brute(g) <= k - 1:
                if best is None or len(edges) < best:
                    best = len(edges)
        return best

    assert turan_t(3, 3) == brute(3, 3)
    assert turan_t(4, 3) == brute(4, 3)
    assert turan_t(4, 4) == brute(4, 4)


# ---------------------------------------------------------------------------
# lambda*_K


def test_lambda_star_k_triangle_free_is_minus_delta():
    for g in (petersen(), cycle(5), path(4), complete_multipartite([3, 2])):
        res = lambda_star_K(g)
        assert res.value == Q(-max(g.degrees()))


def test_lambda_star_k_octahedron():
    res = lambda_star_K(octahedron())
    assert res.value == Q(-2)
    assert res.mu >= 1


def test_lambda_star_k_certificate_revalidates(rng):
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 7))
        if g.m == 0:
            continue
        res = lambda_star_K(g)
        cliques = tuple(c for c, k in sorted(res.multiplicities.items()) for _ in range(k))
        part = CliquePartition(res.mu, cliques)
        validate_partition(part, g)
        assert clique_partition_bound(part, g) == res.value
        assert float(res.value) <= lambda_min(g) + 1e-8


def test_lambda_star_k_shrikhande():
    res = lambda_star_K(shrikhande())
    assert res.value == Q(-3)


def test_lambda_star_k_johnson_tight():
    g = johnson(5, 2)
    res = lambda_star_K(g)
    assert res.value == Q(-2)


def test_lambda_star_k_icosahedron():
    # 5-regular with omega = 3 and a face partition of 2G: best is -5/2
    from spectral_lb.catalog import icosahedron

    res = lambda_star_K(icosahedron())
    assert res.value == Q(-5, 2)


def test_lambda_star_k_duplicate_edges_input_invariant():
    g1 = build_simple(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    g2 = build_simple(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)])
    assert lambda_star_K(g1).value == lambda_star_K(g2).value


def test_lambda_star_k_rejects_edgeless():
    with pytest.raises(ValueError):
        lambda_star_K(build_simple(3, []))


def test_lambda_star_k_isolated_vertex():
    g = build_simple(4, [(0, 1), (1, 2), (0, 2)])  # triangle plus a loner
    res = lambda_star_K(g)
    assert res.value == Q(-1)
    assert res.per_vertex[3] == 0


def test_lambda_star_k_against_float_lp_oracle(rng):
    import numpy as np
    from scipy.optimize import linprog

    from spectral_lb.cliqopt import enumerate_cliques

    def float_opt(g):
        cliques = enumerate_cliques(g, 2)
        edges = g.edges()
        nv = len(cliques) + 1
        t = nv - 1
        a_eq = np.zeros((len(edges), nv))
        for j, cl in enumerate(cliques):
            cs = set(cl)
            for r, e in enumerate(edges):
                if set(e) <= cs:
                    a_eq[r, j] = 1
        a_ub = np.zeros((g.n, nv))
        for j, cl in enumerate(cliques):
            for u in cl:
                a_ub[u, j] = 1
        a_ub[:, t] = -1
        c = np.zeros(nv)
        c[t] = 1
        res = linprog(
            c, A_ub=a_ub, b_ub=np.zeros(g.n), A_eq=a_eq, b_eq=np.ones(len(edges)), method="highs"
        )
        assert res.status == 0
        return -res.fun

    cases = [octahedron(), petersen(), johnson(5, 2)]
    cases += [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(4)]
    for g in cases:
        assert float(lambda_star_K(g).value) == pytest.approx(float_opt(g), abs=1e-7)


def test_deltbnd_inequality_for_certificates(rng):
    # r(K)/mu <= Delta/(c-1) holds for every returned certificate
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 7))
        if g.m == 0:
            continue
        res = lambda_star_K(g)
        c_min = min(len(c) for c in res.multiplicities)
        delta = max(g.degrees())
        assert -res.value <= Q(delta, c_min - 1)


# ---------------------------------------------------------------------------
# lambda*_C


def test_lambda_star_c_k3():
    assert lambda_star_C(complete(3)).value == Q(-1)


def test_lambda_star_c_c5_regression():
    res = lambda_star_C(cycle(5))
    assert res.value == Q(-2)
    assert float(res.value) < lambda_min(cycle(5)) - 1e-6


def test_lambda_star_c_multipartite_at_least_minus_largest_part():
    for parts in ([2, 2], [3, 2], [2, 2, 1]):
        g = complete_multipartite(parts)
        res = lambda_star_C(g)
        assert res.value >= Q(-max(parts))


def test_lambda_star_c_weighted_input():
    h = build_weighted(2, {(0, 1): Q(3, 2)})
    res = lambda_star_C(h)
    assert res.value == Q(-3, 2)


def test_lambda_star_c_loops():
    h = build_weighted(1, {(0, 0): Q(2)})
    assert lambda_star_C(h).value == Q(2)
    h2 = build_weighted(2, {(0, 0): Q(-1), (0, 1): Q(1)})
    res = lambda_star_C(h2)
    assert float(res.value) <= lambda_min(h2) + 1e-9


def test_chain_on_atlas_sample(rng):
    graphs = [g for g in connected_atlas(6) if g.m > 0]
    for g in rng.sample(graphs, 25):
        lam = lambda_min(g)
        c = lambda_star_C(g)
        k = lambda_star_K(g)
        assert k.value <= c.value
        assert float(c.value) <= lam + 1e-8


def _random_signed_weighted(rng, n):
    # rational weights of both signs, loops included
    weights = {}
    for u in range(n):
        for v in range(u, n):
            if rng.random() < 0.6:
                weights[(u, v)] = Q(rng.randint(-6, 6), rng.randint(1, 3))
    return build_weighted(n, weights)


def test_lambda_star_c_against_float_lp_oracle(rng):
    # independent solver: every signed K_S and J_S column, handed to
    # scipy's HiGHS in floats
    import numpy as np
    from scipy.optimize import linprog

    from spectral_lb.graphs import as_weighted

    def piece_lambdas(kind, s):
        # closed forms written out here: lambda of +K_s, -K_s, +J_s, -J_s
        if kind == "K":
            return -1, -(s - 1)
        return (1, -1) if s == 1 else (0, -s)

    def float_opt(g):
        h = as_weighted(g)
        n = h.n
        shapes = [
            (kind, s)
            for size in range(1, n + 1)
            for s in combinations(range(n), size)
            for kind in ("K", "J")
            if kind == "J" or size >= 2
        ]
        pairs = list(combinations(range(n), 2)) + [(u, u) for u in range(n)]
        pi = {p: i for i, p in enumerate(pairs)}
        nv = 2 * len(shapes) + 2
        a_eq = np.zeros((len(pairs), nv))
        b_eq = np.zeros(len(pairs))
        a_ub = np.zeros((n, nv))
        for j, (kind, s) in enumerate(shapes):
            pj, mj = 2 * j, 2 * j + 1
            lp_pos, lp_neg = piece_lambdas(kind, len(s))
            for u in s:
                a_ub[u, pj] -= float(lp_pos)
                a_ub[u, mj] -= float(lp_neg)
                if kind == "J":
                    a_eq[pi[(u, u)], pj] += 1
                    a_eq[pi[(u, u)], mj] -= 1
            for x, y in combinations(s, 2):
                a_eq[pi[(x, y)], pj] += 1
                a_eq[pi[(x, y)], mj] -= 1
        lam_p, lam_m = nv - 2, nv - 1
        a_ub[:, lam_p] += 1
        a_ub[:, lam_m] -= 1
        for (u, v), w in h.weights.items():
            b_eq[pi[(u, v) if u <= v else (v, u)]] = float(w)
        c = np.zeros(nv)
        c[lam_p], c[lam_m] = -1, 1
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq, method="highs")
        assert res.status == 0
        return -res.fun

    cases = [cycle(5), complete_multipartite([2, 1]), complete_multipartite([3, 2])]
    cases += [random_connected_graph(rng, rng.randint(2, 6)) for _ in range(3)]
    cases += [_random_signed_weighted(rng, rng.randint(1, 5)) for _ in range(6)]
    cases.append(build_weighted(3, {(0, 0): Q(-2), (0, 1): Q(-1), (1, 2): Q(5, 2), (2, 2): Q(1)}))
    # loop-heavy: every vertex looped, loops of both signs outweighing the edges
    loops4 = {(0, 0): Q(7, 2), (1, 1): Q(-5), (2, 2): Q(3), (3, 3): Q(-1, 3)}
    cases.append(build_weighted(4, {**loops4, (0, 1): Q(1), (1, 2): Q(-1, 2), (2, 3): Q(2)}))
    loops5 = {(u, u): Q((-1) ** u * (u + 2), u + 1) for u in range(5)}
    edges5 = {(0, 2): Q(-3, 2), (1, 3): Q(1), (0, 4): Q(1, 3), (2, 4): Q(-2), (3, 4): Q(5, 2)}
    cases.append(build_weighted(5, {**loops5, **edges5}))
    for g in cases:
        assert float(lambda_star_C(g).value) == pytest.approx(float_opt(g), abs=1e-7)


def test_lambda_star_c_negative_pieces_are_edges_and_loops(rng):
    # a larger negative piece is a sum of -K_2 and -J_1 pieces, so the LP has no column for it
    cases = [cycle(5), petersen(), complete_multipartite([3, 2]), complete_multipartite([2, 2, 1])]
    cases += [_random_signed_weighted(rng, rng.randint(2, 6)) for _ in range(8)]
    negatives = 0
    for h in cases:
        for (kind, s), a in lambda_star_C(h).multiplicities.items():
            if a < 0:
                negatives += 1
                assert (kind, len(s)) in (("K", 2), ("J", 1))
    assert negatives > 0


def test_lambda_star_c_certificate_loops_are_single_vertex_j_pieces():
    # the loops are constants of the LP; the certificate puts them back as mu*h_uu J_1 pieces
    loops = {0: Q(5, 2), 1: Q(-3), 3: Q(2, 3)}
    edges = {(0, 1): Q(1), (1, 2): Q(-2), (2, 3): Q(3, 2), (0, 3): Q(1)}
    h = build_weighted(4, {**{(u, u): w for u, w in loops.items()}, **edges})
    res = lambda_star_C(h)
    js = {s: a for (kind, s), a in res.multiplicities.items() if kind == "J"}
    assert js == {(u,): res.mu * w for u, w in loops.items()}


def test_lambda_star_c_same_order_calls_are_independent(rng):
    # the model of an order is built once; one graph's solve must not leak into the next
    a = complete_multipartite([3, 3])
    b = _random_signed_weighted(rng, 6)
    first = lambda_star_C(a)
    lambda_star_C(b)
    assert lambda_star_C(a) == first


def test_lambda_star_c_cached_model_keeps_zero_rhs():
    from spectral_lb.cliqopt import _complete_model

    h = build_weighted(4, {(0, 1): Q(3, 2), (2, 2): Q(-1), (1, 3): Q(-2), (0, 3): Q(1)})
    lambda_star_C(h)
    model, pieces, _ = _complete_model(4)
    assert all(rhs == 0 for _, _, rhs in model.rows)
    # +K_S for 11 subsets and -K_2 for 6 pairs; rows: 6 pairs and 4 vertices, no loop rows
    assert len(pieces) == 11 + 6 and len(model.obj) == len(pieces) + 2
    assert len(model.rows) == 6 + 4


def test_lambda_star_c_compiles_the_model_of_an_order_once(monkeypatch):
    # every call solves the cached model, with its own right-hand sides, on its compiled form
    from spectral_lb import simplex as simplex_mod
    from spectral_lb.cliqopt import _complete_model

    model = _complete_model(6)[0]
    form = model.compiled()
    compiles = []
    real = simplex_mod._compile

    def counting(*args):
        compiles.append(args)
        return real(*args)

    monkeypatch.setattr(simplex_mod, "_compile", counting)
    for g in connected_atlas(6, 6)[:4]:
        lambda_star_C(g)
    assert not compiles
    assert model.compiled() is form


def test_chain_on_random_order_eight(rng):
    # the full sweep up to n = 7 lives in the acceptance suite; spot-check
    # the chain at the n = 8 cap of the complete-decomposition LP
    for _ in range(6):
        g = random_connected_graph(rng, 8)
        lam = lambda_min(g)
        c = lambda_star_C(g)
        k = lambda_star_K(g)
        assert k.value <= c.value
        assert float(c.value) <= lam + 1e-8


# ---------------------------------------------------------------------------
# pivot counts: the exact kernel makes the same pivot decisions


def test_pivot_counts_on_connected_six_vertex_graphs():
    # natural atlas labels; a change to the pricing, ratio test or
    # tie-break moves these sums
    graphs = connected_atlas(6, 6)
    assert len(graphs) == 112
    assert sum(lambda_star_C(g).pivots for g in graphs) == 2310
    assert sum(lambda_star_K(g).pivots for g in graphs) == 319


def test_pivot_counts_petersen_and_shrikhande():
    assert lambda_star_C(petersen()).pivots == 331
    assert lambda_star_K(shrikhande()).pivots == 50


# ---------------------------------------------------------------------------
# lambda*_K certificates: the same LP optimum gives the same partitions


def test_lambda_star_k_certificates_on_connected_six_vertex_graphs():
    results = [lambda_star_K(g) for g in connected_atlas(6, 6)]
    assert len(results) == 112
    assert sum(r.mu for r in results) == 145
    assert sum(sum(r.multiplicities.values()) for r in results) == 730
    assert sum(len(r.multiplicities) for r in results) == 685


def test_lambda_star_k_certificates_shrikhande_and_icosahedron():
    from spectral_lb.catalog import icosahedron

    for g, mu, cliques in ((shrikhande(), 1, 16), (icosahedron(), 2, 20)):
        res = lambda_star_K(g)
        assert res.mu == mu
        assert len(res.multiplicities) == cliques
        assert set(res.multiplicities.values()) == {1}
        assert all(len(c) == 3 for c in res.multiplicities)
