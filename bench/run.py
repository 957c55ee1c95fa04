"""Benchmark of spectral-lb: one workload, one seed, one run.

    python3 bench/run.py --workload chain-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the operations run untraced in a child process and the
end-to-end metrics are printed; with --trace 1 the child wraps the
program's modules (tracer.py), the same rounds run once more untraced,
and the per-layer metrics are printed, with the gap between the two runs
as the tracing overhead.  Every output is checked against computations
made apart from the program (checks.py) after the timing ends.  The last
line of standard output is the result as JSON; the same record, with the
rational backend, versions, CPU count and seed, goes to
bench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# interpreters timed before and again after the operations, so that the
# median spans the run rather than one moment of it
SETUP_RUNS = 6
CHILD_TIMEOUT_S = 150
MAX_PROBLEMS_KEPT = 20
# The interpreter prints the monotonic clock (system-wide, so comparable
# across processes) once the imports are done; timing the subprocess call
# instead would round up to the polling steps of Popen.wait(timeout=...).
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import spectral_lb, spectral_lb.cli; print(time.monotonic())")


def setup_times(warm_up: bool) -> list[float]:
    """Times from starting a fresh interpreter until spectral_lb and its CLI are imported.

    The warm-up interpreter is not timed: it byte-compiles, which a user
    pays once per install.
    """

    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    if warm_up:
        subprocess.run(cmd, check=True, timeout=60, capture_output=True)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        done = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True)
        times.append(float(done.stdout) - t0)
    return times


def run_child(inputs_path: Path, outputs_path: Path, seconds: float, rounds=None, spans=None,
              timeout=CHILD_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(inputs_path), str(outputs_path),
           "--seconds", str(seconds)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, check=True, timeout=timeout)
    with open(outputs_path) as fh:
        return json.load(fh)


def attach_argv(workload: str, rounds: list, work: Path) -> list:
    """Give CLI operations their argv, writing their graph files under work/."""

    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            if workload == "catalog-report":
                path = work / f"r{r}-{i}-{op['family']}.txt"
                path.write_text(workloads.edge_list_text(op["n"], op["edges"]))
                op["argv"] = [op["command"], str(path)] + (["--lp", "--json"] if op["command"] == "bounds" else [])
            elif workload == "reproduce":
                op["argv"] = ["reproduce", "--json", str(work / "reproduce.json")]
    return rounds


def build_inputs(workload: str, seed: int, work: Path) -> list:
    if workload == "chain-sweep":
        rounds = workloads.chain_rounds(seed)
    elif workload == "catalog-report":
        rounds = workloads.catalog_rounds(seed)
    else:
        rounds = workloads.reproduce_rounds()
    return attach_argv(workload, rounds, work)


def check_outputs(workload: str, rounds: list, result: dict) -> list[str]:
    """Problems found in the outputs of the child's operations that did not fail."""

    published = None
    if workload == "reproduce":
        with open(HERE / "reproduce_published.json") as fh:
            published = json.load(fh)
    ops = [op for r in range(result["rounds"]) for op in rounds[r % len(rounds)]]
    problems = []
    digests = set()
    for op, out in zip(ops, result["outputs"]):
        if "error" in out:
            continue
        try:
            if workload == "chain-sweep":
                problems += checks.check_chain(op, out)
            elif workload == "catalog-report":
                check = checks.check_spectrum if op["command"] == "spectrum" else checks.check_bounds
                problems += check(op, out["stdout"])
            elif out["sha256"] not in digests:
                digests.add(out["sha256"])
                problems += checks.check_reproduce(out["doc"], published)
        except (ValueError, KeyError, IndexError, TypeError, RuntimeError) as exc:
            # malformed output, or an oracle that could not confirm it
            problems.append(f"{op.get('argv', op)}: output could not be checked: {exc!r}")
    if len(digests) > 1:
        problems.append(f"reproduce JSON differs across operations ({len(digests)} versions)")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "spectral_lb" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'spectral_lb'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RESULTS / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        rounds = build_inputs(args.workload, args.seed, work)
        inputs_path = work / "inputs.json"
        with open(inputs_path, "w") as fh:
            json.dump({"workload": args.workload, "rounds": rounds}, fh)

        if args.trace:
            spans_path = RESULTS / f"{tag}-spans.json"
            timed = run_child(inputs_path, work / "traced.json", args.seconds, spans=spans_path)
            plain = run_child(inputs_path, work / "plain.json", args.seconds, rounds=timed["rounds"])
            with open(spans_path) as fh:
                spans = json.load(fh)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in tracer.layer_metrics(spans, len(timed["op_s"])).items()}
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (timed["wall_s"] / plain["wall_s"] - 1.0), "unit": "%"}
            checked = [timed, plain]
        else:
            setup = setup_times(warm_up=True)
            timed = run_child(inputs_path, work / "timed.json", args.seconds)
            setup += setup_times(warm_up=False)
            ops = len(timed["op_s"])
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "ops_per_s": {"value": ops / timed["wall_s"], "unit": "ops/s"},
                "op_s_p50": {"value": statistics.median(timed["op_s"]), "unit": "s"},
                "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
            }
            checked = [timed]

        problems = []
        for result in checked:
            problems += check_outputs(args.workload, rounds, result)
        line = {
            "correct": not problems,
            "attempted": len(timed["op_s"]),
            "failed": timed["failed"],
            "metrics": metrics,
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "backend": timed["backend"],
            "python": platform.python_version(),
            "numpy": timed["numpy"],
            "cpus": os.cpu_count(),
            "rounds": timed["rounds"],
            "ops_per_round": [len(r) for r in rounds],
            "op_s": timed["op_s"],
            "errors": [o["error"] for o in timed["outputs"] if "error" in o][:MAX_PROBLEMS_KEPT],
            "problems": problems[:MAX_PROBLEMS_KEPT],
            "result": line,
        }
        with open(RESULTS / f"{tag}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:MAX_PROBLEMS_KEPT]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
