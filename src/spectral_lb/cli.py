"""Command-line front end.

Subcommands: catalog (name registry and graph output), spectrum, bounds,
lambda-star-k, lambda-star-c, and reproduce (the worked-example table).
Exit codes: 0 success, 1 failed check or row, 2 input error.  A graph
above a size cap is not an input error: bounds lists each capped bound as
skipped, and a command whose own computation is capped (the eigensolver,
lambda*_K, lambda*_C) prints "<computation> skipped [<reason>]"; both exit 0.
Every command that reads a graph compares the declared order (edge-list
header or JSON n) with the cap of its first capped computation before any
graph is built, so a document above that cap is a skip whatever its body.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as cat
from .bounds import bound_report
from .cliqopt import MAX_CLIQUE_ORDER, MAX_COMPLETE_ORDER, lambda_star_C, lambda_star_K
from .decomp import CertificateError
from .graph_io import (
    ParseError,
    certificate_to_json,
    format_edge_list,
    load_graph_text,
    partition_from_json,
    require_simple,
)
from .graphs import CapExceeded, require_order
from .rationals import format_q, is_rational
from .reproduce import build_rows, format_table, rows_to_json
from .simplex import SimplexError
from .spectra import EXACT_MAX_ORDER, MAX_ORDER, spectrum, verified_integer_eigenvalues

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _read_graph(path: str, check_order=None):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return load_graph_text(text, check_order)


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise ValueError("catalog list takes no graph name or parameters")
        for name, schema in cat.catalog_names():
            print(f"{name} {schema}".rstrip())
        return EXIT_OK
    if args.name is None:
        raise ValueError("catalog get needs a graph name (see: spectral-lb catalog list)")
    g = cat.named_graph(args.name, tuple(args.params))
    sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.graph, lambda n: require_order("spectrum", n, MAX_ORDER))
    spec = spectrum(g)
    exact = set()
    if g.n <= EXACT_MAX_ORDER:
        exact = set(verified_integer_eigenvalues(g, spec))
    for v in spec.values:
        flag = ""
        r = round(float(v))
        if r in exact and abs(float(v) - r) < 1e-8:
            flag = f"  (= {r}, exact)"
        print(f"{float(v):+.12f}{flag}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g = require_simple(_read_graph(args.graph, lambda n: require_order("spectrum", n, MAX_ORDER)))
    partition = None
    if args.partition:
        with open(args.partition) as fh:
            partition = partition_from_json(json.load(fh))
    rep = bound_report(g, name=args.graph, partition=partition, lp=args.lp)
    doc = {
        "graph": rep.graph,
        "n": rep.n,
        "m": rep.m,
        "lambda": round(rep.lam, 12),
        "bounds": [
            {
                "name": en.name,
                "kind": en.kind,
                "value": round(float(en.value), 12),
                "exact": format_q(en.value) if is_rational(en.value) else None,
                "tight": bool(en.tight),
                "note": en.note,
            }
            for en in rep.entries
        ],
        "skipped": [{"name": name, "reason": reason} for name, reason in rep.skipped],
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"graph {rep.graph}: n={rep.n} m={rep.m} lambda={rep.lam:.12f}")
        names = [en.name for en in rep.entries] + [name for name, _ in rep.skipped]
        width = max(map(len, names), default=4)
        for en in rep.entries:
            exact = f" = {format_q(en.value)}" if is_rational(en.value) else ""
            tight = " tight" if en.tight else ""
            note = f" [{en.note}]" if en.note else ""
            print(f"  {en.name.ljust(width)}  {en.kind:5s}  {float(en.value):+.12f}{exact}{tight}{note}")
        for name, reason in rep.skipped:
            print(f"  {name.ljust(width)}  skipped [{reason}]")
    bad = rep.violations
    if bad:
        print(f"BOUND VIOLATION: {', '.join(en.name for en in bad)}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_lambda_star(args) -> int:
    # the solvers are looked up here, at call time, so that rebinding them
    # in this module (a test double, a tracer) reaches the command
    cap = MAX_CLIQUE_ORDER if args.which == "K" else MAX_COMPLETE_ORDER
    g = _read_graph(args.graph, lambda n: require_order(f"lambda*_{args.which}", n, cap))
    res = lambda_star_K(require_simple(g)) if args.which == "K" else lambda_star_C(g)
    print(f"lambda*_{args.which} = {format_q(res.value)}  (mu = {res.mu})")
    if args.cert:
        with open(args.cert, "w") as fh:
            json.dump(certificate_to_json(res), fh, indent=2, sort_keys=True)
        print(f"certificate written to {args.cert}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    perturb = "petersen" if args.negative_control else None
    rows = build_rows(perturb=perturb, select=args.filter)
    if not rows:
        print(f"no rows match filter {args.filter!r}", file=sys.stderr)
        return EXIT_INPUT
    print(format_table(rows))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows_to_json(rows), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return EXIT_OK if all(r.passed for r in rows) else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""

    p = argparse.ArgumentParser(prog="spectral-lb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="list named graphs or print one")
    pc.add_argument("action", choices=["list", "get"])
    pc.add_argument("name", nargs="?", help="graph name (for get)")
    pc.add_argument("params", nargs="*", help="constructor parameters")
    pc.set_defaults(func=_cmd_catalog)

    ps = sub.add_parser(
        "spectrum",
        help="sorted eigenvalues of a graph file",
        description=(
            "Print the eigenvalues in ascending order.  On graphs with at most "
            f"{EXACT_MAX_ORDER} vertices, an eigenvalue that is an integer is "
            "certified in exact integer arithmetic and marked '(= k, exact)'."
        ),
    )
    ps.add_argument("graph", help="edge-list or JSON file ('-' for stdin)")
    ps.set_defaults(func=_cmd_spectrum)

    pb = sub.add_parser("bounds", help="run all applicable bounds")
    pb.add_argument("graph")
    pb.add_argument("--partition", help="clique partition JSON file")
    pb.add_argument("--lp", action="store_true", help="include the LP bounds")
    pb.add_argument("--json", action="store_true", help="JSON output instead of the table")
    pb.set_defaults(func=_cmd_bounds)

    for which, help_, cert in (
        ("K", "best clique-partition bound", "integer"),
        ("C", "best complete-decomposition bound", "signed"),
    ):
        pl = sub.add_parser(f"lambda-star-{which.lower()}", help=help_)
        pl.add_argument("graph")
        pl.add_argument("--cert", help=f"write the {cert} certificate JSON here")
        pl.set_defaults(func=_cmd_lambda_star, which=which)

    pr = sub.add_parser("reproduce", help="regenerate the worked-example table")
    pr.add_argument("--filter", help="only rows whose example id contains this")
    pr.add_argument("--json", help="also write the table as JSON to this path")
    pr.add_argument(
        "--negative-control",
        action="store_true",
        help="perturb the Petersen graph to prove the table can fail",
    )
    pr.set_defaults(func=_cmd_reproduce)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except CapExceeded as exc:
        print(f"{exc.what} skipped [{exc.reason}]")
        return EXIT_OK
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CertificateError, SimplexError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
