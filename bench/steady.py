"""Run one workload k times and report how steady its end-to-end metrics are.

    python3 bench/steady.py --workload resolve --runs 10 --first-seed 1

Each run is a separate ``bench/run.py`` process with its own seed (first-seed,
first-seed + 1, ...) and the run length of BENCHMARK.json.  For every
end-to-end metric the report gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1) /
median and the metric's bound; a spread at or above a third of the bound is
marked.  It also checks that the share of failed operations is the same in
every run.  The runs' result lines are written to bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {summary}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady-{args.workload}.json").write_text(json.dumps(results, indent=1))

    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print(f"failed share: {' '.join(sorted(str(s) for s in shares))}"
          f" ({'the same in every run' if len(shares) == 1 else 'DIFFERS between runs'})")
    print(f"{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- at least a third of the bound"
        print(f"{m['name']:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {m['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
