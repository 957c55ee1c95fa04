"""File format round trips and error reporting."""

import json
from fractions import Fraction

import pytest
from networkx.generators.atlas import graph_atlas_g

from spectral_lb.catalog import cycle, petersen
from spectral_lb.decomp import CliquePartition
from spectral_lb.graph_io import (
    FORMAT_VERSION,
    ParseError,
    certificate_to_json,
    format_edge_list,
    graph_from_json,
    load_graph_text,
    parse_edge_list,
    partition_from_json,
    require_simple,
)
from spectral_lb.graphs import (
    Multigraph,
    SimpleGraph,
    WeightedGraph,
    as_weighted,
    build_multigraph,
    build_simple,
    build_weighted,
)
from spectral_lb.rationals import Q, format_q


def graph_to_json(g) -> dict:
    """The JSON graph document of a graph value, the inverse of graph_from_json."""

    doc = {"fmt": FORMAT_VERSION, "n": g.n}
    if isinstance(g, SimpleGraph):
        doc.update(type="simple", edges=[[u, v] for u, v in g.edges()])
    elif isinstance(g, Multigraph):
        doc.update(type="multigraph", mult=[[u, v, m] for (u, v), m in sorted(g.mult.items())])
    else:
        doc.update(type="weighted", weights=[[u, v, format_q(w)] for (u, v), w in sorted(g.weights.items())])
        if g.labels is not None:
            doc["labels"] = list(g.labels)
    return doc


def partition_to_json(k: CliquePartition) -> dict:
    return {"mu": k.mu, "cliques": [list(c) for c in k.cliques]}


def test_edge_list_roundtrip_simple():
    g = petersen()
    parsed = parse_edge_list(format_edge_list(g))
    assert require_simple(parsed).rows == g.rows


def test_edge_list_weights_and_loops():
    text = "3 4\n0 1 1/2\n1 2 -2\n0 2\n1 1 3\n"
    h = parse_edge_list(text)
    assert h.weight(0, 1) == Q(1, 2)
    assert h.weight(1, 2) == Q(-2)
    assert h.weight(0, 2) == Q(1)
    assert h.weight(1, 1) == Q(3)
    # every kind prints through its weights: multiplicities and p/q weights
    # as the third field, weight 1 without one, labels not at all
    mg = build_multigraph(3, {(1, 2): 2, (0, 1): 1, (1, 1): 3})
    assert format_edge_list(mg) == "3 3\n0 1\n1 1 3\n1 2 2\n"
    w = build_weighted(3, {(1, 2): Q(-1, 3), (0, 0): Q(5, 2), (0, 1): Q(1)}, labels=["a", "b", "c"])
    assert format_edge_list(w) == "3 3\n0 0 5/2\n0 1\n1 2 -1/3\n"


def test_edge_list_comments_and_blank_lines():
    text = "# a graph\n\n3 2  # header\n0 1\n# middle comment\n1 2\n"
    h = parse_edge_list(text)
    assert len(h.weights) == 2


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 1\n0 9\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_edge_list("nonsense\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_edge_list("2 5\n0 1\n")  # edge count mismatch
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 1 x/y\n")
    assert err.value.line == 2


def test_json_roundtrips():
    for g in (
        petersen(),
        build_multigraph(3, {(0, 1): 2, (1, 1): 1}),
        build_weighted(3, {(0, 1): Q(-1, 3), (2, 2): Q(5)}, labels=["a", "b", "c"]),
    ):
        doc = graph_to_json(g)
        back = graph_from_json(json.loads(json.dumps(doc)))
        assert type(back) is type(g)
        if isinstance(g, SimpleGraph):
            assert back.rows == g.rows
        elif isinstance(g, Multigraph):
            assert back.mult == g.mult
        else:
            assert back.weights == g.weights and back.labels == g.labels


def test_json_version_gate():
    with pytest.raises(ParseError):
        graph_from_json({"fmt": 2, "type": "simple", "n": 1, "edges": []})


@pytest.mark.parametrize("doc", [[1, 2], "simple", None])
def test_json_non_object_rejected(doc):
    with pytest.raises(ParseError, match="JSON object"):
        graph_from_json(doc)


def test_autodetect():
    as_json = json.dumps(graph_to_json(cycle(4)))
    g = load_graph_text(as_json)
    assert isinstance(g, SimpleGraph) and g.m == 4
    g2 = load_graph_text("# comment first\n3 1\n0 1\n")
    assert isinstance(g2, WeightedGraph)
    with pytest.raises(ParseError):
        load_graph_text("   \n# only comments\n")


def test_require_simple():
    w = parse_edge_list("3 2\n0 1\n1 2\n")
    g = require_simple(w)
    assert g.m == 2
    assert require_simple(build_multigraph(3, {(0, 1): 1, (1, 2): 1})).rows == g.rows
    for bad in (
        parse_edge_list("3 1\n0 1 2\n"),
        parse_edge_list("3 1\n1 1\n"),
        build_multigraph(3, {(0, 1): 2, (1, 2): 1}),
        build_multigraph(3, {(0, 1): 1, (2, 2): 1}),
        build_weighted(3, {(0, 1): Q(1, 2), (1, 2): Q(1)}),
    ):
        with pytest.raises(ValueError, match="^not a simple graph: it has a loop or an edge weight other than 1$"):
            require_simple(bad)


def test_partition_documents():
    part = CliquePartition(2, ((0, 1, 2), (0, 1, 2), (1, 2)))
    doc = partition_to_json(part)
    back = partition_from_json(json.loads(json.dumps(doc)))
    assert back == part
    with pytest.raises(ParseError):
        partition_from_json({"cliques": [[0, 1]]})


@pytest.mark.parametrize(
    "doc",
    [
        {"mu": 1.5, "cliques": [[0, 1]]},
        {"mu": True, "cliques": [[0, 1]]},
        {"mu": 1, "cliques": [[0, 1.9]]},
        {"mu": 1, "cliques": [[True, 2]]},
        {"mu": 1, "cliques": [["0", 1]]},
    ],
)
def test_partition_document_non_integers_rejected(doc):
    # a partition the file does not state exactly must not be truncated into one
    with pytest.raises(ParseError):
        partition_from_json(doc)


def test_graph_document_boolean_order_rejected():
    with pytest.raises(ParseError):
        graph_from_json({"fmt": 1, "type": "simple", "n": True, "edges": []})


@pytest.mark.parametrize(
    "doc",
    [
        {"fmt": 1, "type": "simple", "n": 3, "edges": [[True, 2]]},
        {"fmt": 1, "type": "simple", "n": 3, "edges": [[0, 1.0]]},
        {"fmt": 1, "type": "multigraph", "n": 3, "mult": [[False, 1, 2]]},
        {"fmt": 1, "type": "multigraph", "n": 3, "mult": [[0, 1, True]]},
        {"fmt": 1, "type": "multigraph", "n": 3, "mult": [[0, 1, 2.0]]},
        {"fmt": 1, "type": "weighted", "n": 3, "weights": [[0, True, "1"]]},
        {"fmt": 1, "type": "weighted", "n": 3, "weights": [[0, 1, True]]},
        {"fmt": 1, "type": "weighted", "n": 3, "weights": [[0, 1, 0.5]]},
    ],
)
def test_graph_document_booleans_and_floats_rejected(doc):
    # true would load as vertex or count 1, and a float weight is not exact
    with pytest.raises(ParseError):
        graph_from_json(doc)


def test_graph_document_integer_weights_are_exact():
    doc = {"fmt": 1, "type": "weighted", "n": 3, "weights": [[0, 1, 1], [1, 1, -2], [0, 2, "3/2"]]}
    g = graph_from_json(doc)
    assert g.weights == {(0, 1): Q(1), (1, 1): Q(-2), (0, 2): Q(3, 2)}
    assert graph_from_json(graph_to_json(g)) == g


def test_certificate_documents():
    from spectral_lb.cliqopt import lambda_star_C, lambda_star_K
    from spectral_lb.catalog import octahedron

    res = lambda_star_K(octahedron())
    doc = certificate_to_json(res)
    assert doc["mu"] == res.mu and doc["value"] == "-2"
    assert "cliques" in doc
    res_c = lambda_star_C(cycle(5))
    doc_c = certificate_to_json(res_c)
    assert doc_c["value"] == "-2" and "pieces" in doc_c


def _parsed_weights(text):
    h = parse_edge_list(text)
    assert all(type(w) is Fraction for w in h.weights.values())
    return h.weights


def test_edge_list_sums_repeated_pairs_exactly():
    # repeated edges in either orientation add up
    assert _parsed_weights("3 4\n0 1\n1 0\n0 1\n2 1\n") == {(0, 1): 3, (1, 2): 1}
    # int and p/q weights on one pair, and a decimal field as before
    assert _parsed_weights("2 4\n0 1 2\n1 0 1/2\n0 1 -1/3\n0 1 0.5\n") == {(0, 1): Q(8, 3)}
    # loops accumulate on (u, u)
    assert _parsed_weights("2 3\n1 1 2\n1 1 -1/2\n1 1\n") == {(1, 1): Q(5, 2)}
    # weights that sum to zero leave no pair behind, in ints and in p/q
    assert _parsed_weights("3 5\n0 1 2\n1 0 -2\n1 2 1/2\n2 1 -1/2\n2 2 1/3\n") == {(2, 2): Q(1, 3)}
    assert _parsed_weights("2 2\n0 1\n0 1 -1\n") == {}


def test_edge_list_roundtrip_keeps_the_weights():
    graphs = [build_simple(g.number_of_nodes(), list(g.edges())) for g in graph_atlas_g()]
    graphs += [
        cycle(5),
        build_multigraph(3, {(0, 1): 2, (1, 1): 1}),
        build_weighted(3, {(0, 1): Q(-1, 3), (2, 2): Q(5)}, labels=["a", "b", "c"]),
        build_weighted(3, {(1, 2): Q(-1, 3), (0, 0): Q(5, 2), (0, 1): Q(1)}),
        build_weighted(4, {(0, 1): Q(7, 6), (1, 2): Q(-4), (2, 3): Q(3, 8), (3, 3): Q(-1, 2)}),
    ]
    for g in graphs:
        assert parse_edge_list(format_edge_list(g)).weights == as_weighted(g).weights
