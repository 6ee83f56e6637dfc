"""SERVE — sustained scheduling throughput and tail latency on one box.

Drives the :mod:`repro.serve` engine (PR 8) as a closed-loop client:
pre-generated uniform-random route requests are pushed through
``ServeEngine.submit`` with a bounded number in flight, so while every
shard is busy the batcher coalesces compatible requests into
``batch_schedule`` dispatches across a real process shard pool.  Recorded into ``BENCH_SERVE.json`` at the
repository root:

- **requests/min sustained** — completed requests over the steady-state
  wall clock (a warmup slice is excluded so pool spin-up does not count
  against the sustained figure).
- **p50 / p99 latency** — per-request submit→response time, which
  includes admission, time parked while every shard is busy, pickling
  to the shard, scheduling, and the response trip back.

Acceptance gate: ≥10,000 schedule requests/min sustained at ``n = 256``
(64-message sets, greedy kernel, 2 shards).  ``--quick`` runs a smaller
CI smoke at ``n = 64`` with a modest gate — the point there is that the
pipeline works end to end, not the headline number.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_serve.py``
(``--quick`` for CI) or via pytest as a bench.
"""

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_SERVE.json"

# gate: requests/min the engine must sustain on one box (full mode)
GATE_REQ_PER_MIN = 10_000.0
# quick-mode smoke gate: generous, CI machines vary wildly
QUICK_GATE_REQ_PER_MIN = 2_000.0


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_vals:
        return 0.0
    rank = max(0, min(len(sorted_vals) - 1, int(q / 100.0 * len(sorted_vals))))
    return sorted_vals[rank]


def _serve_case(n, *, shards, requests, messages, warmup, max_batch,
                kernel="greedy", seed=0):
    """Run one closed-loop load point; return its results row."""
    from repro.serve import RouteRequest, ServeConfig, ServeEngine
    from repro.workloads import uniform_random

    cfg = ServeConfig(
        n=n,
        shards=shards,
        lambda_ceiling=1e9,  # throughput point: admission never refuses
        max_pending=requests + warmup + 1,
        max_batch=max_batch,
    )
    engine = ServeEngine(cfg)
    # pre-generate every request outside the timed region: the bench
    # measures the serving stack, not the workload generator
    reqs = []
    for i in range(warmup + requests):
        ms = uniform_random(n, messages, seed=seed + i)
        reqs.append(
            RouteRequest(
                id=f"q{i}",
                src=tuple(int(x) for x in ms.src),
                dst=tuple(int(x) for x in ms.dst),
                kernel=kernel,
                seed=seed,
            )
        )

    latencies = []  # steady-state only, seconds

    async def drive():
        # closed loop: up to 2×max_batch requests in flight keeps every
        # shard busy, so groups fill, without unbounded queueing
        gate = asyncio.Semaphore(2 * max_batch)

        async def one(i, req):
            async with gate:
                t0 = time.perf_counter()
                resp = await engine.submit(req)
                if i >= warmup:
                    latencies.append(time.perf_counter() - t0)
                if not resp["ok"]:
                    raise RuntimeError(f"bench request refused: {resp}")

        # warmup slice first (pool spin-up, first pickles), then time
        # the steady-state slice on its own wall clock
        await asyncio.gather(*(one(i, r) for i, r in enumerate(reqs[:warmup])))
        t0 = time.perf_counter()
        await asyncio.gather(
            *(one(warmup + i, r) for i, r in enumerate(reqs[warmup:]))
        )
        return time.perf_counter() - t0

    try:
        wall_s = asyncio.run(drive())
        dispatches = sum(
            value
            for kind, name, _, value in engine.metrics.series()
            if kind == "counter" and name == "serve.dispatches"
        )
    finally:
        engine.close()

    latencies.sort()
    return {
        "n": n,
        "shards": shards,
        "requests": requests,
        "messages_per_request": messages,
        "kernel": kernel,
        "wall_s": round(wall_s, 3),
        "req_per_min": round(requests / wall_s * 60.0, 1),
        "p50_ms": round(_percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 99) * 1e3, 3),
        "dispatches": int(dispatches),
        "mean_batch": round(requests / dispatches, 2) if dispatches else 0.0,
    }


def run_bench(quick=False):
    """All load points; the first row is the acceptance gate."""
    if quick:
        cases = [
            dict(n=64, shards=2, requests=120, messages=32, warmup=24,
                 max_batch=16),
        ]
    else:
        cases = [
            # the headline point: n=256, 64-message sets, 2 shards
            dict(n=256, shards=2, requests=600, messages=64, warmup=60,
                 max_batch=32),
            # inline (no pool) isolates the pickling/IPC cost
            dict(n=256, shards=0, requests=300, messages=64, warmup=30,
                 max_batch=32),
            # random-rank kernel at the same point
            dict(n=256, shards=2, requests=300, messages=64, warmup=30,
                 max_batch=32, kernel="random_rank"),
        ]
    rows = [_serve_case(**case) for case in cases]
    RESULTS_PATH.write_text(
        json.dumps({"quick": quick, "serve": rows}, indent=2) + "\n"
    )
    return rows


def test_serve_throughput_gate(report):
    """The serve acceptance gate: ≥10,000 schedule requests/min
    sustained at n=256 (64-message sets) with p99 latency recorded."""
    rows = run_bench(quick=False)
    report(rows, title="SERVE — sustained throughput and tail latency")
    headline = rows[0]
    assert headline["n"] == 256 and headline["messages_per_request"] == 64
    assert headline["p99_ms"] > 0.0  # tail latency really was recorded
    assert headline["req_per_min"] >= GATE_REQ_PER_MIN, (
        f"acceptance: expected >={GATE_REQ_PER_MIN:.0f} req/min at n=256, "
        f"measured {headline['req_per_min']}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small n, fewer requests (CI smoke) with a modest gate",
    )
    args = parser.parse_args(argv)
    rows = run_bench(quick=args.quick)
    from repro.analysis import format_table

    print(format_table(rows, title="SERVE — sustained throughput and tail latency"))
    print(f"wrote {RESULTS_PATH}")
    gate = QUICK_GATE_REQ_PER_MIN if args.quick else GATE_REQ_PER_MIN
    headline = rows[0]
    if headline["req_per_min"] < gate:
        print(f"FAIL: {headline['req_per_min']} req/min < {gate:.0f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
