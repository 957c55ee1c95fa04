"""Seeded inputs of the three workloads.

Inputs are built here, apart from the program: graphs come from the
networkx atlas or from the families' definitions, and every graph gets a
seeded vertex relabelling, so the same seed gives the same inputs and no
two rounds hand the program an identical graph.  A workload is a list of
rounds; a run executes whole rounds, each round the same mix of
operations.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import networkx as nx

WORKLOADS = ("chain-sweep", "catalog-report", "reproduce")

# Rounds generated per run; a run that needs more cycles through them.
ROUNDS = 8

# chain-sweep: every connected graph of order 6 (all 112, so the round's
# cost does not depend on the seed) plus a seeded sample of order 7.
# The order-7 cost per graph spreads with a coefficient of variation of
# about 0.6 and no structural feature predicts it, so this sample sets the
# seed-to-seed spread of the workload; keep it small.
CHAIN_ORDER7_PER_ROUND = 3

# catalog-report slots: (command, family, parameter choices).  One choice
# is drawn per slot and round.  Seeded choices are kept to parameters
# whose cost barely moves (circulant offsets, prime circulant orders whose
# only integer eigenvalue is the valency, prism lengths), and members whose
# lambda*_K cost swings with the vertex labelling (Johnson graphs: J(7,2)
# takes 6 to 17 s) are left out, so a round costs nearly the same for
# every seed.  The ten small Hamming spectra (orders 26-27, four
# integer eigenvalues each, so the same exact work) put a block of
# equal-cost operations where the median falls; without it the median of
# 33 unlike operations jumped between neighbours 0.1 s apart.  Spectra
# take about two thirds of the traced time and the LPs about a quarter.
# bounds runs on orders 11-24 only: above 24 it fails on regular graphs,
# and up to 10 it would solve lambda*_C.
CATALOG_SLOTS = (
    ("spectrum", "johnson", [(13, 2)]),
    ("spectrum", "johnson", [(9, 2)]),
    ("spectrum", "kneser", [(13, 2)]),
    ("spectrum", "kneser", [(9, 2)]),
    ("spectrum", "hamming", [(3, 3, 3, 3)]),
    ("spectrum", "hamming", [(6, 6)]),
    *[("spectrum", "hamming", [(3, 3, 3), (3, 9), (2, 13)])] * 10,
    ("spectrum", "circulant", [(n, r) for n in range(146, 151) for r in range(1, 7)]),
    ("spectrum", "circulant", [(p, r) for p in (41, 43, 47) for r in range(1, 7)]),
    ("spectrum", "prism", [(22,)]),
    ("spectrum", "prism", [(k,) for k in range(40, 46)]),
    ("spectrum", "petersen", [()]),
    ("spectrum", "dodecahedron", [()]),
    ("spectrum", "icosahedron", [()]),
    ("spectrum", "shrikhande", [()]),
    ("spectrum", "octahedron", [()]),
    ("bounds", "kneser", [(6, 2)]),
    ("bounds", "hamming", [(3, 6)]),
    ("bounds", "hamming", [(2, 6)]),
    ("bounds", "hamming", [(3, 4)]),
    ("bounds", "hamming", [(3, 4), (2, 6)]),
    ("bounds", "hamming", [(4, 4)]),
    ("bounds", "hamming", [(2, 3, 4)]),
    ("bounds", "hamming", [(2, 2, 5)]),
    ("bounds", "hamming", [(2, 2, 2, 3)]),
    ("bounds", "prism", [(k,) for k in range(6, 13)]),
    ("bounds", "prism", [(k,) for k in range(6, 13)]),
    ("bounds", "circulant", [(n, 2) for n in range(19, 25)]),
    ("bounds", "circulant", [(n, 2) for n in range(19, 25)]),
    ("bounds", "circulant", [(13, 3)]),
    ("bounds", "icosahedron", [()]),
    ("bounds", "shrikhande", [()]),
    ("bounds", "dodecahedron", [()]),
)


# ---------------------------------------------------------------------------
# graph families, built from their definitions


def _from_nx(g: nx.Graph):
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    return g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges())


def _shrikhande():
    # Cayley graph of Z4 x Z4 with connection set +-(1,0), +-(0,1), +-(1,1)
    steps = [(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)]
    g = nx.Graph()
    for a, b in product(range(4), repeat=2):
        for da, db in steps:
            g.add_edge(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
    return _from_nx(g)


def family_graph(family: str, params) -> tuple[int, list]:
    """(order, sorted edge list) of a catalog family member."""

    if family == "johnson":
        v, k = params
        sets = list(combinations(range(v), k))
        g = nx.Graph()
        g.add_nodes_from(range(len(sets)))
        g.add_edges_from((i, j) for i, j in combinations(range(len(sets)), 2)
                         if len(set(sets[i]) & set(sets[j])) == k - 1)
        return _from_nx(g)
    if family == "kneser":
        return _from_nx(nx.kneser_graph(*params))
    if family == "hamming":
        g = nx.complete_graph(params[0])
        for q in params[1:]:
            g = nx.cartesian_product(g, nx.complete_graph(q))
        return _from_nx(g)
    if family == "circulant":
        n, r = params
        return _from_nx(nx.circulant_graph(n, range(1, r + 1)))
    if family == "prism":
        return _from_nx(nx.circular_ladder_graph(params[0]))
    if family == "petersen":
        return _from_nx(nx.petersen_graph())
    if family == "dodecahedron":
        return _from_nx(nx.dodecahedral_graph())
    if family == "icosahedron":
        return _from_nx(nx.icosahedral_graph())
    if family == "octahedron":
        return _from_nx(nx.octahedral_graph())
    if family == "shrikhande":
        return _shrikhande()
    raise ValueError(f"unknown family {family!r}")


def relabel(n: int, edges, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def edge_list_text(n: int, edges) -> str:
    """The program's edge-list input format: 'n m' header, one edge a line."""

    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


# ---------------------------------------------------------------------------
# rounds


def connected_atlas(order: int) -> list[tuple[int, list]]:
    return [
        (order, sorted(tuple(sorted(e)) for e in g.edges()))
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() == order and nx.is_connected(g)
    ]


def chain_rounds(seed: int, rounds: int = ROUNDS, order7: int = CHAIN_ORDER7_PER_ROUND,
                 order6_limit: int | None = None):
    rng = random.Random(f"chain-sweep/{seed}")
    six = connected_atlas(6)[:order6_limit]
    seven = connected_atlas(7)
    rng.shuffle(seven)
    out = []
    for r in range(rounds):
        graphs = six + seven[r * order7:(r + 1) * order7]
        ops = [{"n": n, "edges": relabel(n, edges, rng)} for n, edges in graphs]
        rng.shuffle(ops)
        out.append(ops)
    return out


def catalog_rounds(seed: int, rounds: int = ROUNDS, slots=CATALOG_SLOTS):
    rng = random.Random(f"catalog-report/{seed}")
    out = []
    for _ in range(rounds):
        ops = []
        for command, family, choices in slots:
            params = tuple(rng.choice(choices))
            n, edges = family_graph(family, params)
            ops.append({"command": command, "family": family, "params": list(params),
                        "n": n, "edges": relabel(n, edges, rng)})
        rng.shuffle(ops)
        out.append(ops)
    return out


def reproduce_rounds():
    # the table has no inputs: every operation is the same command
    return [[{"command": "reproduce"}]]
