"""Benchmark resolvkit end to end on one workload.

    python3 bench/run.py --workload resolve --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one has returned.  The run sets up SETUPS times (each time from a
fresh import of resolvkit), then repeats whole rounds of the workload's
operations for at least ``--seconds`` and MIN_OPS operations, then checks the
outputs.  ``ops_per_s`` is the median over those rounds of the round's
operations per second; the latency percentiles are over every operation.  With ``--trace 1`` the untraced phase is followed by one traced
round, and the run reports per-layer metrics (and the tracing overhead, the
traced round's time over the untraced rounds' mean) instead of the
end-to-end ones.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUPS = 3
MIN_OPS = 100
TRACED_ROUNDS = 1
MODULES = ("series", "parse", "faa_di_bruno", "carleman", "blowup", "resolve", "cli")


def fresh_import():
    """Import resolvkit from the checkout's src/, dropping any earlier import
    so that every set-up pays for imports and starts with empty caches."""
    src = str(ROOT / "src")
    if not (ROOT / "src" / "resolvkit" / "__init__.py").is_file():
        raise SystemExit(f"resolvkit sources not found under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "resolvkit" or m.startswith("resolvkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = SimpleNamespace(json=json)
    for m in MODULES:
        setattr(mods, m, importlib.import_module(f"resolvkit.{m}"))
    return mods


def timed_rounds(ops, seconds, min_ops):
    """Whole rounds until both limits are passed; returns (per-op latencies
    in seconds, wall seconds of each round)."""
    latencies, round_walls = [], []
    start = perf_counter()
    while True:
        r0 = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                result = op.fn()
            except Exception as exc:  # counted as failed by the workload's check
                result = exc
            latencies.append(perf_counter() - t0)
            op.note(result)
        round_walls.append(perf_counter() - r0)
        if perf_counter() - start >= seconds and len(latencies) >= min_ops:
            return latencies, round_walls


def run(workload, seed, seconds, trace, setups=SETUPS, min_ops=MIN_OPS, out=sys.stdout):
    """Run one workload; print a report and return the result object."""
    from corpus import ComposeCase
    from spans import METRICS, Tracer, peak_kib
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as workdir:
        setup_times = []
        for _ in range(setups):
            t0 = perf_counter()
            mods = fresh_import()
            wl = WORKLOADS[workload](mods, seed, workdir)
            setup_times.append(perf_counter() - t0)
        lat, walls = timed_rounds(wl.ops, seconds, min_ops)
        rounds, wall = len(walls), sum(walls)
        attempted_rounds = rounds
        if trace:
            tracer = Tracer(mods)
            tracer.install()
            try:
                _, traced_walls = timed_rounds(wl.ops, 0, TRACED_ROUNDS * len(wl.ops))
            finally:
                tracer.uninstall()
            traced_rounds = len(traced_walls)
            attempted_rounds += traced_rounds
            overhead = 100.0 * (statistics.mean(traced_walls) / statistics.mean(walls) - 1.0)
            tracer.write(OUT / f"trace-{workload}-s{seed}.jsonl")
            compose_ops = [op for op in wl.ops if isinstance(op.data, ComposeCase)]
            metrics = tracer.metrics(traced_rounds * len(wl.ops), overhead, peak_kib(compose_ops))
            units = METRICS
        else:
            q = statistics.quantiles(lat, n=10)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(wl.ops) / statistics.median(walls),
                "latency_p50_ms": 1000.0 * statistics.median(lat),
                "latency_p90_ms": 1000.0 * q[8],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
                     "latency_p90_ms": "ms", "peak_rss_mib": "MiB"}
        failed_ops, problems, notes = wl.check()

    attempted = attempted_rounds * len(wl.ops)
    failed = attempted_rounds * len(failed_ops)
    print(f"workload {workload}  seed {seed}  trace {trace}", file=out)
    print(f"set-ups (s): {' '.join(f'{t:.3f}' for t in setup_times)}", file=out)
    print(f"rounds {rounds} of {len(wl.ops)} operations in {wall:.2f} s;"
          f" round times (s): {' '.join(f'{w:.2f}' for w in walls)}", file=out)
    if trace:
        print(f"traced round times (s): {' '.join(f'{w:.2f}' for w in traced_walls)}", file=out)
    for i, op in enumerate(wl.ops):
        per_op = statistics.median(lat[i :: len(wl.ops)])
        print(f"  {1000 * per_op:9.1f} ms  {op.label}", file=out)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}", file=out)
    print(f"attempted {attempted}  failed {failed}", file=out)
    for i in sorted(failed_ops):
        print(f"failed: {wl.ops[i].label}", file=out)
    for line in notes:
        print(f"note: {line}", file=out)
    for line in problems:
        print(f"PROBLEM: {line}", file=out)
    print(f"checks: {'pass' if not problems else 'FAIL'}", file=out)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["resolve", "audit", "class-calculus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # a run stopped from outside still removes its temporary tree files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
