"""Reference rows measured once with the benchmark's own child and checks.

    python3 bench/baseline.py chain      # the lambda chain on every connected graph with n <= 7
    python3 bench/baseline.py petersen   # spectral-lb bounds petersen --lp

The chain row is acceptance criterion 5 in full (one operation per graph
with an edge), the petersen row one bounds report with both LPs.  Both
take minutes; their outputs are checked like a benchmark run's.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import checks
import run
import workloads


def main(argv=None) -> int:
    which = (argv if argv is not None else sys.argv[1:])[0]
    if which == "chain":
        workload = "chain-sweep"
        ops = [{"n": n, "edges": e} for order in range(2, 8) for n, e in workloads.connected_atlas(order)]
    elif which == "petersen":
        workload = "catalog-report"
        n, e = workloads.family_graph("petersen", ())
        ops = [{"command": "bounds", "family": "petersen", "params": [], "n": n, "edges": e}]
    else:
        raise SystemExit("usage: baseline.py chain|petersen")
    run.RESULTS.mkdir(exist_ok=True)
    work = run.RESULTS / f"baseline-{which}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        rounds = run.attach_argv(workload, [ops], work)
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps({"workload": workload, "rounds": rounds}))
        result = run.run_child(inputs, work / "out.json", 0, rounds=1, timeout=None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = run.check_outputs(workload, rounds, result)
    if which == "petersen" and not result["failed"]:
        # n = 10, so this report also carries lambda*_C
        doc = json.loads(result["outputs"][0]["stdout"])
        star_c = next(b for b in doc["bounds"] if b["name"] == "lambda_star_C")
        if abs(float(Fraction(star_c["exact"])) - checks.lambda_star_c_highs(n, e)) > checks.LP_TOL:
            problems.append("lambda*_C differs from the HiGHS optimum")
    print(json.dumps({"row": which, "ops": len(result["op_s"]), "wall_s": result["wall_s"],
                      "failed": result["failed"], "problems": problems[:5],
                      "backend": result["backend"]}))
    return 0 if not problems and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
