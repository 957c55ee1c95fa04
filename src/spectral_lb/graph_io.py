"""File formats: edge-list text, JSON graph documents, partition documents.

The edge-list format is `n m` on the first line followed by m lines
`u v [weight]`, with `#` comments, `p/q` rational weights and `u u` loops
allowed in weighted files.  JSON documents carry a format version field
and one of three graph types.  Only the JSON documents keep the kind:
format_edge_list and require_simple read every kind through
graphs.as_weighted.  Partition and
certificate documents are the JSON surface of the clique machinery.
"""

from __future__ import annotations

import json

from .decomp import CliquePartition
from .graphs import (
    SimpleGraph,
    WeightedGraph,
    as_weighted,
    build_multigraph,
    build_simple,
    build_weighted,
)
from .rationals import Q, format_q, parse_q

FORMAT_VERSION = 1


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


class ParseError(ValueError):
    """Input rejected; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_edge_list(text: str, check_order=None) -> WeightedGraph:
    """Parse the `n m` / `u v [weight]` format into a weighted graph.

    check_order, when given, is called with the header's n before any
    edge line is read, so it can refuse a graph that is never built.
    Integer weights add up as ints; only a `p/q` field makes a Fraction,
    and build_weighted converts each distinct pair once.
    """

    header = None
    weights = {}
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError("header entries must be integers", lineno)
            if header[0] < 0 or header[1] < 0:
                raise ParseError("header entries must be nonnegative", lineno)
            if check_order is not None:
                check_order(header[0])
            continue
        if len(parts) not in (2, 3):
            raise ParseError("expected 'u v' or 'u v weight'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("endpoints must be integers", lineno)
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range 0..{n - 1}", lineno)
        w = 1
        if len(parts) == 3:
            try:
                w = int(parts[2])
            except ValueError:
                try:
                    w = parse_q(parts[2])
                except ValueError as exc:
                    raise ParseError(str(exc), lineno)
        key = (u, v) if u <= v else (v, u)
        weights[key] = weights.get(key, 0) + w
        count += 1
    if header is None:
        raise ParseError("empty input", 1)
    if count != header[1]:
        raise ParseError(f"header promised {header[1]} edges, found {count}")
    return build_weighted(header[0], weights)


def format_edge_list(g) -> str:
    """Render any graph kind in the edge-list format."""

    h = as_weighted(g)
    lines = [f"{h.n} {len(h.weights)}"]
    for (u, v), w in sorted(h.weights.items()):
        lines.append(f"{u} {v}" if w == 1 else f"{u} {v} {format_q(w)}")
    return "\n".join(lines) + "\n"


def graph_from_json(doc: dict, check_order=None):
    """The graph value of a JSON document; check_order as in parse_edge_list."""

    if not isinstance(doc, dict):
        raise ParseError(f"graph document must be a JSON object, not {type(doc).__name__}")
    if doc.get("fmt") != FORMAT_VERSION:
        raise ParseError(f"unsupported or missing format version: {doc.get('fmt')!r}")
    kind = doc.get("type")
    n = doc.get("n")
    if not _is_int(n) or n < 0:
        raise ParseError("missing or bad vertex count")
    if check_order is not None:
        check_order(n)
    try:
        if kind == "simple":
            return build_simple(n, [_endpoints(u, v) for u, v in doc["edges"]])
        if kind == "multigraph":
            mult = {}
            for u, v, m in doc["mult"]:
                if not _is_int(m):
                    raise ValueError(f"multiplicity must be an integer, not {m!r}")
                mult[_endpoints(u, v)] = m
            return build_multigraph(n, mult)
        if kind == "weighted":
            weights = {_endpoints(u, v): _weight(w) for u, v, w in doc["weights"]}
            return build_weighted(n, weights, labels=doc.get("labels"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad graph document: {exc}")
    raise ParseError(f"unknown graph type: {kind!r}")


def _endpoints(u, v) -> tuple[int, int]:
    if not (_is_int(u) and _is_int(v)):
        raise ValueError(f"vertices must be integers, not {u!r} and {v!r}")
    return u, v


def _weight(w):
    """An exact weight: an integer or a 'p/q' string, never a float or boolean."""

    if _is_int(w):
        return Q(w)
    if isinstance(w, str):
        return parse_q(w)
    raise ValueError(f"weight must be an integer or a 'p/q' string, not {w!r}")


def load_graph_text(text: str, check_order=None):
    """Auto-detect JSON versus edge-list by the first non-comment byte.

    check_order, when given, is called with the declared vertex count
    before any graph is built (see parse_edge_list).
    """

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == "{":
            try:
                return graph_from_json(json.loads(text), check_order)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc}", exc.lineno)
        return parse_edge_list(text, check_order)
    raise ParseError("empty input", 1)


def require_simple(g) -> SimpleGraph:
    """Downcast to a simple graph; any kind qualifies when it is loopless with all weights 1."""

    if isinstance(g, SimpleGraph):
        return g
    h = as_weighted(g)
    if any(u == v or w != 1 for (u, v), w in h.weights.items()):
        raise ValueError("not a simple graph: it has a loop or an edge weight other than 1")
    return build_simple(h.n, list(h.weights))


# ---------------------------------------------------------------------------
# partitions and certificates


def partition_from_json(doc: dict) -> CliquePartition:
    try:
        mu = doc["mu"]
        cliques = tuple(tuple(c) for c in doc["cliques"])
        if not _is_int(mu) or not all(_is_int(v) for c in cliques for v in c):
            raise ValueError("mu and every clique vertex must be integers")
        return CliquePartition(mu, cliques)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad partition document: {exc}")


def certificate_to_json(result) -> dict:
    """Serialise a LambdaStarResult: partition schema plus mu and exact value."""

    doc = {"mu": result.mu, "value": format_q(result.value)}
    cliques = []
    pieces = []
    for key, count in sorted(result.multiplicities.items()):
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            kind, subset = key
            pieces.append({"kind": kind, "subset": list(subset), "coeff": count})
        else:
            cliques.extend([list(key)] * count)
    if pieces:
        doc["pieces"] = pieces
    else:
        doc["cliques"] = cliques
    return doc
