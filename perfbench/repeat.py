"""Run the benchmark several times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py --workload serve-light --runs 10 [--first-seed 1]
        [--trace 0]

Each run uses the next seed and lasts ``run_seconds`` of ``BENCHMARK.json``.  For every metric the report gives the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (Q3 − Q1) as a share of the median and, when ``BENCHMARK.json``
fixes one, the metric's bound.  The environment of the first run is
printed with the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}"
        )
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    env = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        t0 = time.perf_counter()
        result, env_k = run_once(args.workload, seed, seconds, args.trace)
        env = env or env_k
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({result['failed']} failed)", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    print("env " + json.dumps(env))
    print(f"{'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                       else (vals[0], vals[0], vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:<34} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
