"""End-to-end observability: traces agree with what the routers return.

The acceptance contract: with tracing enabled, a JSONL trace of
``schedule_random_rank`` at n=256 round-trips (export → import →
identical event list) and its per-cycle ``CycleStats`` record
(delivered / congested / retried / deferred / dropped) matches the
returned schedule exactly — while the schedule itself
is bit-identical to an untraced run (instrumentation never touches the
RNG).
"""

import numpy as np
import pytest

from repro.analysis import sweep
from repro.core import (
    FatTree,
    schedule_greedy_first_fit,
    schedule_random_rank,
    schedule_theorem1,
    simulate_online_retry,
)
from repro.hardware import run_store_and_forward, run_until_delivered
from repro.obs import Obs, Tracer, use_obs
from repro.workloads import uniform_random


def _assert_cycle_accounting(events, sched, pending0):
    """Each cycle event's counts partition the then-pending messages and
    its delivered count matches the schedule."""
    assert len(events) == sched.num_cycles
    pending = pending0
    for t, e in enumerate(events):
        assert e["t"] == t
        assert e["delivered"] == len(sched.cycles[t])
        assert e["in_flight"] == pending
        parts = ("delivered", "congested", "retried", "deferred", "dropped")
        assert sum(e[k] for k in parts) == pending
        pending -= e["delivered"]
    assert pending == 0


class TestRandomRankAcceptance:
    def test_trace_roundtrips_and_matches_schedule(self, tmp_path):
        n = 256
        ft = FatTree(n)
        m = uniform_random(n, 512, seed=3)
        obs = Obs(enabled=True)
        sched = schedule_random_rank(ft, m, seed=7, loss_rate=0.05, obs=obs)

        # untraced run is bit-identical: instrumentation is RNG-neutral
        plain = schedule_random_rank(ft, m, seed=7, loss_rate=0.05)
        assert plain.num_cycles == sched.num_cycles
        for a, b in zip(plain.cycles, sched.cycles):
            assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

        # JSONL export → import is the identity
        path = tmp_path / "trace.jsonl"
        obs.tracer.export_jsonl(path)
        assert Tracer.read_jsonl(path) == obs.tracer.events

        # per-cycle accounting partitions the pending messages
        routable = m.without_self_messages()
        _assert_cycle_accounting(
            obs.tracer.select("cycle"), sched, len(routable)
        )

        # counters agree with the trace totals
        assert obs.metrics.counter_value(
            "messages.delivered", scheduler="random_rank"
        ) == len(routable)
        failed = sum(
            e["congested"] + e["retried"] for e in obs.tracer.select("cycle")
        )
        assert (
            obs.metrics.counter_value("messages.retried", scheduler="random_rank")
            == failed
        )

    def test_utilisation_is_a_fraction_per_level(self):
        ft = FatTree(64)
        m = uniform_random(64, 256, seed=1)
        obs = Obs(enabled=True)
        schedule_random_rank(ft, m, obs=obs)
        seen = 0
        for k in range(1, ft.depth + 1):
            for direction in ("up", "down"):
                h = obs.metrics.histogram(
                    "channel.utilization",
                    level=k,
                    direction=direction,
                    scheduler="random_rank",
                )
                if h is None:
                    continue
                seen += 1
                assert 0.0 <= h.min and h.max <= 1.0
        assert seen  # a dense workload exercises some level

    def test_default_obs_resolution(self):
        """Passing no obs= routes through the scoped module default."""
        ft = FatTree(32)
        m = uniform_random(32, 64, seed=0)
        obs = Obs(enabled=True)
        with use_obs(obs):
            sched = schedule_random_rank(ft, m)
        assert len(obs.tracer.select("cycle")) == sched.num_cycles

    def test_kernel_span_present(self):
        ft = FatTree(32)
        m = uniform_random(32, 64, seed=0)
        obs = Obs(enabled=True)
        schedule_random_rank(ft, m, obs=obs)
        exits = obs.tracer.select("kernel_exit")
        assert any(e["kernel"] == "schedule_random_rank" for e in exits)
        assert all(e["ok"] for e in exits)


class TestOtherSchedulers:
    @pytest.mark.parametrize(
        "run",
        [
            lambda ft, m, obs: schedule_theorem1(ft, m, obs=obs),
            lambda ft, m, obs: schedule_greedy_first_fit(ft, m, obs=obs),
            lambda ft, m, obs: simulate_online_retry(ft, m, seed=2, obs=obs),
        ],
        ids=["theorem1", "greedy", "online-retry"],
    )
    def test_cycle_accounting(self, run):
        ft = FatTree(64)
        m = uniform_random(64, 200, seed=5)
        obs = Obs(enabled=True)
        sched = run(ft, m, obs)
        events = obs.tracer.select("cycle")
        assert len(events) == sched.num_cycles
        for t, e in enumerate(events):
            assert e["delivered"] == len(sched.cycles[t])

    def test_online_retry_traced_is_bit_identical(self):
        ft = FatTree(64)
        m = uniform_random(64, 200, seed=5)
        plain = simulate_online_retry(ft, m, seed=9)
        traced = simulate_online_retry(ft, m, seed=9, obs=Obs(enabled=True))
        assert plain.num_cycles == traced.num_cycles
        for a, b in zip(plain.cycles, traced.cycles):
            assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_switchsim_accounting_matches_reports(self):
        ft = FatTree(32)
        m = uniform_random(32, 100, seed=4)
        obs = Obs(enabled=True)
        out = run_until_delivered(ft, m, seed=4, obs=obs)
        events = obs.tracer.select("cycle")
        assert len(events) == out.cycles
        for e, r in zip(events, out.reports):
            assert e["delivered"] == len(r.delivered)
            assert e["congested"] + e["retried"] == len(r.congested)
            assert e["deferred"] == len(r.deferred)

    def test_buffered_steps_account_for_every_delivery(self):
        ft = FatTree(32)
        m = uniform_random(32, 100, seed=6)
        obs = Obs(enabled=True)
        out = run_store_and_forward(ft, m, obs=obs)
        steps = obs.tracer.select("step")
        assert len(steps) == out.makespan
        routable = m.without_self_messages()
        assert sum(e["delivered"] for e in steps) == len(routable)
        max_depth = int(
            obs.metrics.gauge_value("queue.max_depth", simulator="store_and_forward")
        )
        assert max_depth == out.max_queue_depth


class TestPathIndexCacheEvents:
    def test_hit_and_miss_counted(self):
        from repro.perf import clear_path_index_cache

        ft = FatTree(32)
        m = uniform_random(32, 64, seed=0)
        clear_path_index_cache(ft)
        obs = Obs(enabled=True)
        schedule_random_rank(ft, m, obs=obs)
        schedule_random_rank(ft, m, seed=1, obs=obs)
        assert obs.metrics.counter_value("pathindex.cache", result="miss") == 1
        assert obs.metrics.counter_value("pathindex.cache", result="hit") == 1
        ops = [e["result"] for e in obs.tracer.select("cache")]
        assert ops == ["miss", "hit"]


def _routed_row(n, messages, seed):
    """Module-level so the process-pool sweep can pickle it."""
    ft = FatTree(n)
    m = uniform_random(n, messages, seed=seed)
    sched = schedule_random_rank(ft, m, seed=seed)
    return {"cycles": sched.num_cycles}


class TestSweepMetrics:
    def test_serial_rows_carry_snapshots(self):
        rows = sweep(
            _routed_row,
            [{"n": 16, "messages": 32, "seed": 0}],
            metrics=True,
        )
        (row,) = rows
        snap = row["metrics"]
        assert (
            snap["counters"]["messages.delivered{scheduler=random_rank}"]
            == sum(1 for s, d in uniform_random(16, 32, seed=0) if s != d)
        )

    def test_parallel_workers_ship_metrics_back(self):
        params = [{"n": 16, "messages": 32, "seed": s} for s in range(3)]
        rows = sweep(_routed_row, params, n_jobs=2, metrics=True)
        assert [r["seed"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert row["metrics"]["counters"]  # non-empty: routing was observed

    def test_metrics_off_by_default(self):
        rows = sweep(_routed_row, [{"n": 16, "messages": 32, "seed": 0}])
        assert "metrics" not in rows[0]
