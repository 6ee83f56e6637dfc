"""Golden replay of every delivery loop, healthy and under chaos.

``tests/corpus/delivery_golden.jsonl`` pins the exact outputs of the
four runtime stacks (random-rank, online retry, the switch simulator
and store-and-forward) and of the off-line chaos replay
(``run_chaos`` over Theorem 1 and first-fit schedules): the
per-cycle ``(src, dst)`` sequences, the per-cycle ``CycleStats``, the
dropped pairs, switchsim attempt counts and per-report counts, buffered
latencies, makespan and queue depth, and the ``DeliveryTimeout`` fields
of runs that abort.  Any change to a loop's RNG draw order, retry
policy or chaos accounting shows up here as a diff.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python -m tests.core.test_delivery_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosSchedule, random_timeline, run_chaos
from repro.core import (
    DeliveryTimeout,
    FatTree,
    schedule_random_rank,
    simulate_online_retry,
)
from repro.hardware.buffered import run_store_and_forward
from repro.hardware.switchsim import run_until_delivered
from repro.workloads import uniform_random

CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "delivery_golden.jsonl"

STACKS = (
    "random_rank",
    "online_retry",
    "switchsim",
    "buffered",
    "chaos_theorem1",
    "chaos_greedy",
)


def golden_cases() -> list[dict]:
    """Every pinned run, as a JSON-able spec."""
    cases: list[dict] = []
    for n in (16, 64):
        for stack in STACKS:
            cases.append({"stack": stack, "n": n, "seed": 1})
        cases.append({"stack": "random_rank", "n": n, "seed": 2, "loss_rate": 0.1})
        cases.append(
            {"stack": "switchsim", "n": n, "seed": 2, "concentrators": "pippenger"}
        )
        cases.append(
            {
                "stack": "switchsim",
                "n": n,
                "seed": 3,
                "concentrators": "faulty",
                "fault_rate": 0.1,
            }
        )
    for k in range(12):
        n = 16 if k % 2 == 0 else 64
        for stack in STACKS:
            case = {"stack": stack, "n": n, "seed": k, "timeline": k}
            if stack == "random_rank" and k % 3 == 0:
                case["loss_rate"] = 0.1
            if stack == "switchsim" and k % 3 == 1:
                case["concentrators"] = "pippenger"
            cases.append(case)
    # mid-flight severance with on_severed="raise": the run aborts
    cases.append(
        {"stack": "random_rank", "n": 16, "seed": 0, "timeline": 102, "on_severed": "raise"}
    )
    cases.append(
        {"stack": "switchsim", "n": 64, "seed": 0, "timeline": 104, "on_severed": "raise"}
    )
    return cases


def _pairs(ms) -> list[list[int]]:
    return [[int(s), int(d)] for s, d in zip(ms.src.tolist(), ms.dst.tolist())]


def _stats(rows) -> list[list[int]]:
    return [
        [s.in_flight, s.delivered, s.congested, s.retried, s.deferred, s.dropped]
        for s in rows
    ]


def _schedule_result(sched) -> dict:
    return {
        "cycles": [_pairs(c) for c in sched.cycles],
        "stats": _stats(sched.cycle_stats or []),
        "dropped": [] if sched.dropped is None else _pairs(sched.dropped),
    }


def run_case(case: dict) -> dict:
    """Run one spec; returns its JSON-able outputs."""
    n = case["n"]
    ft = FatTree(n)
    ms = uniform_random(n, 2 * n, seed=100 + case["seed"])
    stack = case["stack"]
    seed = case["seed"]
    chaos = "timeline" in case
    timeline = (
        random_timeline(ft, seed=case["timeline"], allow_kills=True)
        if chaos
        else ChaosSchedule()
    )
    on_severed = case.get("on_severed", "drop")
    try:
        if stack == "random_rank":
            loss = case.get("loss_rate", 0.0)
            if chaos:
                out = run_chaos(
                    "random-rank", ft, ms, timeline,
                    seed=seed, loss_rate=loss, on_severed=on_severed,
                )
            else:
                out = schedule_random_rank(ft, ms, seed=seed, loss_rate=loss)
            return _schedule_result(out)
        if stack == "online_retry":
            if chaos:
                out = run_chaos(
                    "online-retry", ft, ms, timeline, seed=seed, on_severed=on_severed
                )
            else:
                out = simulate_online_retry(ft, ms, seed=seed)
            return _schedule_result(out)
        if stack == "switchsim":
            kwargs = {
                "concentrators": case.get("concentrators", "ideal"),
                "fault_rate": case.get("fault_rate", 0.0),
                "seed": seed,
            }
            if chaos:
                out = run_chaos(
                    "switchsim", ft, ms, timeline, on_severed=on_severed, **kwargs
                )
            else:
                out = run_until_delivered(ft, ms, **kwargs)
            return {
                "cycles": out.cycles,
                "delivered": [
                    [[f.src, f.dst] for f in r.delivered] for r in out.reports
                ],
                "reports": [
                    [len(r.delivered), len(r.congested), len(r.deferred), r.wave_ticks]
                    for r in out.reports
                ],
                "attempts": list(out.attempts),
                "stats": _stats(out.cycle_stats),
                "dropped": [list(p) for p in out.dropped],
            }
        if stack == "buffered":
            if chaos:
                out = run_chaos("buffered", ft, ms, timeline, on_severed=on_severed)
            else:
                out = run_store_and_forward(ft, ms)
            return {
                "makespan": out.makespan,
                "latencies": out.latencies.tolist(),
                "max_queue_depth": out.max_queue_depth,
                "stats": _stats(out.cycle_stats),
                "dropped": [list(p) for p in out.dropped],
            }
        scheduler = stack.removeprefix("chaos_")
        out = run_chaos(scheduler, ft, ms, timeline, on_severed=on_severed)
        return _schedule_result(out)
    except DeliveryTimeout as exc:
        return {
            "timeout": {
                "undelivered": [list(p) for p in exc.undelivered],
                "cycles": exc.cycles,
                "attempts": sorted([k, v] for k, v in exc.attempts.items()),
            }
        }


def _load() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


GOLDEN = _load() if CORPUS.exists() else []


def test_fixture_covers_every_case():
    assert [row["case"] for row in GOLDEN] == golden_cases()
    aborted = [row["case"]["stack"] for row in GOLDEN if "timeout" in row["result"]]
    # the random-rank on_severed="raise" run really aborts; the switchsim
    # one delivers every message before its unrepaired severance lands
    assert aborted == ["random_rank"]
    assert any(row["result"].get("dropped") for row in GOLDEN)


@pytest.mark.parametrize(
    "row",
    GOLDEN,
    ids=[
        "{stack}-n{n}-s{seed}".format(**row["case"])
        + (f"-tl{row['case']['timeline']}" if "timeline" in row["case"] else "")
        for row in GOLDEN
    ],
)
def test_replay_matches_golden(row):
    assert run_case(row["case"]) == row["result"]


if __name__ == "__main__" and "--write" in sys.argv:
    with CORPUS.open("w", encoding="utf-8") as fh:
        for case in golden_cases():
            line = {"case": case, "result": run_case(case)}
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    print(f"wrote {len(golden_cases())} runs to {CORPUS}")
