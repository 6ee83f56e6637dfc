"""Shard-worker tests: batch parity, per-set failure isolation, pool modes."""

import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import FatTree, schedule_greedy_first_fit, schedule_random_rank
from repro.faults import DegradedFatTree, FaultModel
from repro.perf.batch import batch_schedule
from repro.serve.protocol import CODE_UNROUTABLE
from repro.serve.shards import ShardPool, _pool_call, run_shard_batch
from repro.workloads import uniform_random


class _KillsWorker:
    """Unpickling this in a shard worker kills the worker outright."""

    def __reduce__(self):
        return (os._exit, (3,))


def sets_for(n, count, m, seed0=0):
    return [uniform_random(n, m, seed=seed0 + i) for i in range(count)]


def severed_tree(n=32, seed=5):
    """A degraded tree with at least one unroutable endpoint pair."""
    base = FatTree(n)
    # killing the deepest internal switch above leaf 0 severs its up-path
    model = FaultModel(seed=seed).kill_switch(base.depth - 1, 0)
    return DegradedFatTree(base, model)


class TestRunShardBatch:
    def test_matches_batch_schedule(self):
        ft = FatTree(32)
        sets = sets_for(32, 4, 24)
        results = run_shard_batch(ft, sets, kernel="greedy", detail=True)
        expected = batch_schedule(ft, sets, kernel="greedy")
        assert len(results) == 4
        for res, sched in zip(results, expected):
            assert res["ok"] is True
            assert res["num_cycles"] == sched.num_cycles
            assert res["delivered"] == sum(len(c) for c in sched.cycles)
            assert res["cycles"] == [
                [(int(i), int(j)) for i, j in c.as_pairs()] for c in sched.cycles
            ]

    def test_random_rank_seed_parity_with_solo(self):
        ft = FatTree(32)
        sets = sets_for(32, 3, 20, seed0=10)
        results = run_shard_batch(
            ft, sets, kernel="random_rank", seed=13, detail=True
        )
        for res, ms in zip(results, sets):
            solo = schedule_random_rank(ft, ms, seed=13)
            assert res["num_cycles"] == solo.num_cycles
            assert res["cycles"] == [
                [(int(i), int(j)) for i, j in c.as_pairs()] for c in solo.cycles
            ]

    def test_detail_false_omits_cycles(self):
        ft = FatTree(16)
        (res,) = run_shard_batch(ft, sets_for(16, 1, 8))
        assert res["ok"] and "cycles" not in res

    def test_empty_batch(self):
        assert run_shard_batch(FatTree(16), []) == []

    def test_unroutable_set_isolated_from_healthy_neighbours(self):
        from repro.core.message import MessageSet

        dft = severed_tree()  # leaves 0 and 1 are cut off

        def routable_set(seed):
            ms = uniform_random(32, 16, seed=seed)
            # steer clear of the severed leaves: remap 0/1 upward
            return MessageSet(np.maximum(ms.src, 2), np.maximum(ms.dst, 2), 32)

        healthy = [routable_set(40), routable_set(42)]
        assert all(dft.routable_mask(ms).all() for ms in healthy)
        sick = uniform_random(32, 8, seed=41)
        src = sick.src.copy(); dst = sick.dst.copy()
        src[0], dst[0] = 0, 9  # force a message through the severed leaf
        sick = MessageSet(src, dst, 32)
        assert not dft.routable_mask(sick).all()

        results = run_shard_batch(
            dft, [healthy[0], sick, healthy[1]], kernel="greedy", detail=True
        )
        assert results[1]["ok"] is False
        assert results[1]["code"] == CODE_UNROUTABLE
        # the healthy neighbours still come back bit-identical to solo
        for res, ms in ((results[0], healthy[0]), (results[2], healthy[1])):
            solo = schedule_greedy_first_fit(dft, ms)
            assert res["ok"] is True
            assert res["cycles"] == [
                [(int(i), int(j)) for i, j in c.as_pairs()] for c in solo.cycles
            ]


class TestPoolCall:
    def payload(self, ft, sets, **kw):
        base = {
            "tree": ft,
            "sets": [(ms.src, ms.dst) for ms in sets],
            "kernel": "greedy",
            "order": "longest-first",
            "seed": 0,
            "detail": False,
        }
        base.update(kw)
        return base

    def test_returns_results_and_metrics(self):
        ft = FatTree(16)
        out = _pool_call(self.payload(ft, sets_for(16, 2, 8)))
        assert [r["ok"] for r in out["results"]] == [True, True]
        metrics = out["metrics"]
        # the metrics registry is picklable and merge-able
        import pickle

        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.counter_value("pathindex.cache", result="miss") >= 1


class TestShardPool:
    def test_inline_mode_runs_synchronously(self):
        ft = FatTree(16)
        with ShardPool(0) as pool:
            fut = pool.submit(
                TestPoolCall().payload(ft, sets_for(16, 1, 8))
            )
            assert fut.done()
            assert fut.result()["results"][0]["ok"] is True

    def test_process_mode_round_trips(self):
        ft = FatTree(16)
        with ShardPool(2) as pool:
            futs = [
                pool.submit(TestPoolCall().payload(ft, sets_for(16, 1, 8, seed0=i)))
                for i in range(4)
            ]
            outs = [f.result(timeout=120) for f in futs]
        assert all(o["results"][0]["ok"] for o in outs)

    def test_process_and_inline_agree(self):
        ft = FatTree(32)
        payload = TestPoolCall().payload(
            ft, sets_for(32, 3, 16), kernel="random_rank", seed=3, detail=True
        )
        inline = ShardPool(0).submit(dict(payload)).result()
        with ShardPool(1) as pool:
            remote = pool.submit(dict(payload)).result(timeout=120)
        assert inline["results"] == remote["results"]

    def test_pool_survives_a_dead_worker(self):
        """A worker crash fails its own dispatch only: the next submit
        replaces the broken executor instead of raising
        ``BrokenProcessPool`` for every later dispatch."""
        ft = FatTree(16)
        good = TestPoolCall().payload(ft, sets_for(16, 1, 8))
        with ShardPool(1) as pool:
            crashed = pool.submit(dict(good, tree=_KillsWorker()))
            with pytest.raises(BrokenProcessPool):
                crashed.result(timeout=120)
            for _ in range(2):
                out = pool.submit(dict(good)).result(timeout=120)
                assert out["results"][0]["ok"] is True

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardPool(-1)
