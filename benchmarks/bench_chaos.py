"""CHAOS — incremental rerouting vs full recompute, and degradation curves.

Two measurements for the :mod:`repro.chaos` recovery stack, recorded
into ``BENCH_CHAOS.json`` at the repository root:

1. **Incremental reroute speedup** — when a timeline event changes a
   handful of channel capacities mid-run, the recovery path patches the
   shared :class:`repro.perf.PathIndex` via ``invalidate_channels``
   (``O(num_slots + changed)``) instead of rebuilding it from scratch
   (``O(m·depth)``).  Acceptance gate: ≥2× at ``n = 1024`` with 4096
   messages (the gap widens with ``m``; at fleet scale a rebuild per
   fault event would dominate the simulation).

2. **Graceful degradation curves** — delivered fraction as a function
   of injected fault rate, for (a) self-healing wire storms (every drop
   has a scheduled repair: the floor is delivery of *everything*) and
   (b) unrepaired switch kills (the floor is exactly the traffic whose
   only path survives; severed messages are dropped, not wedged).

3. **Runtime stage times** — absolute wall time (best and median of
   the repeats) of five on-line stages: ``run_chaos_random_rank`` and
   ``run_chaos_switchsim`` under a wire-only ``random_timeline``, and
   healthy ``simulate_online_retry`` (shuffle-and-retry),
   ``run_until_delivered`` (the switch simulator's retry loop) and
   ``run_store_and_forward`` (per-channel queues), at ``n = 256`` with
   ``4n`` uniform messages.  Each repeat runs the five stages in turn,
   so host noise spreads over all of them.  No gate: the rows record
   where the time goes.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_chaos.py``
(``--quick`` for the CI smoke subset, which still enforces the 2× gate
at a smaller size) or via pytest as a bench.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_CHAOS.json"
REPEATS = 5


def _reroute_case(n, m_count, changed, *, repeats=REPEATS, seed=0):
    """Time invalidate_channels against a from-scratch PathIndex build
    after one capacity mutation touching ``changed`` channels."""
    import numpy as np

    from repro.core import Direction, FatTree
    from repro.faults import DegradedFatTree, FaultModel
    from repro.perf import PathIndex, pack_gid
    from repro.workloads import uniform_random

    ft = DegradedFatTree(FatTree(n), FaultModel())
    messages = uniform_random(n, m_count, seed=seed)
    index = PathIndex(ft, messages)
    rng = np.random.default_rng(seed)
    # one wire drop per changed channel, drawn from the deepest level
    level = ft.depth
    picks = rng.choice(1 << level, size=min(changed, 1 << level), replace=False)
    updates = [
        (level, int(x), Direction.UP, max(0, ft.chan_cap(level, int(x), Direction.UP) - 1))
        for x in picks
    ]
    ft.set_channel_caps(updates)
    gids = [int(pack_gid(level, int(x), 0)) for x in picks]

    incremental = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        patched = index.invalidate_channels(ft, gids)
        incremental = min(incremental, time.perf_counter() - t0)
    full = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        rebuilt = PathIndex(ft, messages)
        full = min(full, time.perf_counter() - t0)
    assert (patched.caps == rebuilt.caps).all(), "patched caps diverge from rebuild"
    assert (patched.paths is index.paths), "invalidate_channels copied the path matrix"
    return {
        "case": f"reroute n={n} m={m_count} changed={len(gids)}",
        "n": n,
        "messages": m_count,
        "changed_channels": len(gids),
        "full_rebuild_s": round(full, 6),
        "incremental_s": round(incremental, 6),
        "speedup": round(full / incremental, 2),
    }


def _degradation_point(n, m_count, rate, scenario, *, seed=0):
    """Delivered fraction for one fault rate under one scenario."""
    import numpy as np

    from repro.chaos import (
        ChaosEvent,
        ChaosSchedule,
        delivered_fraction,
        run_chaos_random_rank,
    )
    from repro.core import FatTree
    from repro.workloads import uniform_random

    ft = FatTree(n)
    messages = uniform_random(n, m_count, seed=seed)
    rng = np.random.default_rng([seed, int(rate * 1000)])
    events = []
    if scenario == "healing-wires":
        # hit `rate` of the deepest level's up-channels; every drop repairs
        hits = max(0, round(rate * (1 << ft.depth)))
        for x in rng.choice(1 << ft.depth, size=hits, replace=False).tolist():
            at = int(rng.integers(0, 4))
            events.append(
                ChaosEvent(at=at, kind="wire-drop", level=ft.depth, index=int(x))
            )
            events.append(
                ChaosEvent(
                    at=at + 1 + int(rng.integers(1, 4)),
                    kind="wire-repair",
                    level=ft.depth,
                    index=int(x),
                )
            )
    else:  # dead-switches: unrepaired leaf-level kills
        hits = max(0, round(rate * (1 << (ft.depth - 1))))
        for x in rng.choice(
            1 << (ft.depth - 1), size=hits, replace=False
        ).tolist():
            events.append(
                ChaosEvent(
                    at=int(rng.integers(0, 4)),
                    kind="switch-kill",
                    level=ft.depth - 1,
                    index=int(x),
                )
            )
    sched = run_chaos_random_rank(ft, messages, ChaosSchedule(tuple(events)))
    sched.validate(ft, messages)
    fraction = delivered_fraction(sched)
    n_dropped = 0 if sched.dropped is None else len(sched.dropped)
    return {
        "scenario": scenario,
        "fault_rate": rate,
        "events": len(events),
        "cycles": sched.num_cycles,
        "dropped": n_dropped,
        "delivered_fraction": round(fraction, 4),
    }


def _runtime_rows(n, *, repeats, seed=0):
    """Best and median wall time of each runtime chaos stage."""
    import numpy as np

    from repro.chaos import random_timeline, run_chaos_random_rank, run_chaos_switchsim
    from repro.core import FatTree, MessageSet, simulate_online_retry
    from repro.hardware import run_store_and_forward, run_until_delivered

    rng = np.random.default_rng([seed, n])
    messages = MessageSet(rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n), n)
    timeline = random_timeline(
        FatTree(n), seed=int(rng.integers(2**31)), allow_kills=False
    )
    stages = {
        "run_chaos_random_rank": lambda ft: run_chaos_random_rank(
            ft, messages, timeline, seed=seed
        ),
        "run_chaos_switchsim": lambda ft: run_chaos_switchsim(
            ft, messages, timeline, seed=seed
        ),
        "simulate_online_retry": lambda ft: simulate_online_retry(
            ft, messages, seed=seed
        ),
        "run_until_delivered": lambda ft: run_until_delivered(ft, messages, seed=seed),
        "run_store_and_forward": lambda ft: run_store_and_forward(ft, messages),
    }
    # each repeat runs every stage once, so a slow spell on the host
    # spreads over the stages instead of landing on one
    times: dict[str, list[float]] = {stage: [] for stage in stages}
    for _ in range(repeats):
        for stage, call in stages.items():
            ft = FatTree(n)  # fresh tree: no cached path index
            t0 = time.perf_counter()
            call(ft)
            times[stage].append(time.perf_counter() - t0)
    return [
        {
            "stage": stage,
            "n": n,
            "messages": len(messages),
            "repeats": repeats,
            "best_ms": round(1e3 * min(ts), 2),
            "median_ms": round(1e3 * sorted(ts)[len(ts) // 2], 2),
        }
        for stage, ts in times.items()
    ]


def run_bench(quick=False):
    """All measurements; the first reroute row is the acceptance gate."""
    repeats = 2 if quick else REPEATS
    if quick:
        reroute_cases = [(256, 1024, 8), (256, 1024, 64)]
        n_curve, m_curve = 64, 192
    else:
        reroute_cases = [(1024, 4096, 8), (1024, 4096, 64), (512, 2048, 16)]
        n_curve, m_curve = 128, 384
    reroute = [
        _reroute_case(n, m, changed, repeats=repeats)
        for n, m, changed in reroute_cases
    ]
    rates = [0.0, 0.125, 0.25, 0.5] if quick else [0.0, 0.125, 0.25, 0.5, 0.75]
    curves = [
        _degradation_point(n_curve, m_curve, rate, scenario)
        for scenario in ("healing-wires", "dead-switches")
        for rate in rates
    ]
    # graceful-degradation floors: healing scenarios deliver everything;
    # unrepaired kills drop only genuinely-severed traffic, never wedge
    for row in curves:
        if row["scenario"] == "healing-wires":
            assert row["delivered_fraction"] == 1.0, (
                f"healing scenario dropped traffic: {row}"
            )
        else:
            floor = 1.0 - row["fault_rate"]
            assert row["delivered_fraction"] >= floor - 0.35, (
                f"degradation not graceful: {row} (floor ~{floor})"
            )
    runtime = _runtime_rows(256, repeats=repeats)
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "quick": quick,
                "reroute": reroute,
                "degradation": curves,
                "runtime": runtime,
            },
            indent=2,
        )
        + "\n"
    )
    return reroute, curves, runtime


def test_incremental_reroute_speedup(report):
    """The chaos acceptance gate: invalidate_channels ≥2× over a full
    PathIndex rebuild at n=1024 / m=4096, plus graceful-degradation
    floors on the delivered-fraction curves."""
    reroute, curves, runtime = run_bench(quick=False)
    report(reroute, title="CHAOS — incremental reroute vs full rebuild")
    report(curves, title="CHAOS — delivered fraction vs fault rate")
    report(runtime, title="CHAOS — runtime stage times")
    headline = reroute[0]
    assert headline["n"] == 1024 and headline["messages"] == 4096
    assert headline["speedup"] >= 2.0, (
        f"acceptance: expected >=2x on invalidate_channels at n=1024, "
        f"measured {headline['speedup']}x"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, fewer repeats (CI smoke); keeps the 2x gate",
    )
    args = parser.parse_args(argv)
    reroute, curves, runtime = run_bench(quick=args.quick)
    from repro.analysis import format_table

    print(format_table(reroute, title="CHAOS — incremental reroute vs full rebuild"))
    print()
    print(format_table(curves, title="CHAOS — delivered fraction vs fault rate"))
    print()
    print(format_table(runtime, title="CHAOS — runtime stage times"))
    print(f"wrote {RESULTS_PATH}")
    headline = reroute[0]
    if headline["speedup"] < 2.0:
        print(f"FAIL: incremental reroute speedup {headline['speedup']}x < 2x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
