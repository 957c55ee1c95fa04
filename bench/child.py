"""Runs a workload's operations, closed loop with one caller.

Started by run.py as its own process, so that peak memory is the
program's alone: it imports spectral_lb from the checkout's src/ and the
standard library, never networkx or scipy.

    python3 bench/child.py SRC INPUTS OUTPUTS --seconds S [--rounds R] [--spans FILE]

Rounds of operations run until S seconds have passed (or exactly R
rounds); each operation starts when the previous one returns.  OUTPUTS
receives the per-operation times and outputs, which run.py checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback


def _chain_op(lb, op):
    g = lb.build_simple(op["n"], [tuple(e) for e in op["edges"]])
    lam = lb.lambda_min(g)
    c = lb.lambda_star_C(g)
    k = lb.lambda_star_K(g)
    return {
        "lambda_min": lam,
        "C": {"value": str(c.value), "mu": c.mu,
              "pieces": [[kind, list(s), int(a)] for (kind, s), a in c.multiplicities.items()]},
        "K": {"value": str(k.value), "mu": k.mu,
              "cliques": [[list(cl), int(a)] for cl, a in k.multiplicities.items()]},
    }


def _cli_op(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"spectral-lb {' '.join(argv)} exited {rc}")
    return out.getvalue()


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; getrusage's ru_maxrss would also count
    the image of the parent this process was forked from.
    """

    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("src")
    p.add_argument("inputs")
    p.add_argument("outputs")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--rounds", type=int)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import spectral_lb as lb
    import spectral_lb.cli as cli

    here = os.path.dirname(os.path.abspath(lb.__file__))
    if os.path.dirname(here) != os.path.abspath(args.src):
        raise SystemExit(f"spectral_lb imported from {here}, not from {args.src}")

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    workload, rounds = inputs["workload"], inputs["rounds"]

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def run_op(op):
        if workload == "chain-sweep":
            return _chain_op(lb, op)
        if workload == "catalog-report":
            return {"stdout": _cli_op(cli, op["argv"])}
        _cli_op(cli, op["argv"])
        with open(op["argv"][-1], "rb") as fh:
            doc = fh.read()
        return {"sha256": hashlib.sha256(doc).hexdigest(), "doc": doc.decode()}

    times, outputs, failed = [], [], 0
    started = time.perf_counter()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = run_op(op)
                else:
                    with tracer.span("op"):
                        out = run_op(op)
            except Exception:
                failed += 1
                out = {"error": traceback.format_exc()}
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        done += 1
        if args.rounds is not None:
            if done >= args.rounds:
                break
        elif time.perf_counter() - started >= args.seconds:
            break
    wall = time.perf_counter() - started

    if tracer is not None:
        tracer.uninstall()
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    result = {
        "rounds": done,
        "wall_s": wall,
        "op_s": times,
        "failed": failed,
        "outputs": outputs,
        "backend": "gmpy2.mpq" if lb.rationals.HAVE_GMPY2 else "Fraction",
        "numpy": sys.modules["numpy"].__version__,
        "peak_rss_mb": peak_rss_mb(),
    }
    with open(args.outputs, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
