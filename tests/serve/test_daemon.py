"""End-to-end daemon tests: concurrency, tenancy, backpressure, metrics.

The headline test drives 220 concurrent requests through a real
2-process shard pool with mixed tenants (one of them a severed
``DegradedFatTree`` fault domain) and asserts every response's
delivered multiset — in fact its exact cycle list — equals a solo
``batch_schedule``-equivalent call on a freshly built tree.  Batching,
sharding, pickling and tenancy must all be invisible to results.
"""

import asyncio
import json
import os
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import FatTree, schedule_greedy_first_fit, schedule_random_rank
from repro.core.message import MessageSet
from repro.faults import DegradedFatTree, FaultModel
from repro.serve import ServeConfig, ServeEngine
from repro.serve.protocol import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_OVERLOADED,
    CODE_QUEUE_FULL,
    CODE_UNROUTABLE,
    RouteRequest,
)
from repro.workloads import uniform_random

N = 32


def spotty_tree():
    """The faulted tenant: leaves 0 and 1 severed."""
    base = FatTree(N)
    model = FaultModel(seed=5).kill_switch(base.depth - 1, 0)
    return DegradedFatTree(base, model)


def routable_set(seed, m=12):
    ms = uniform_random(N, m, seed=seed)
    return MessageSet(np.maximum(ms.src, 2), np.maximum(ms.dst, 2), N)


def severed_set(seed, m=6):
    ms = routable_set(seed, m)
    src = ms.src.copy()
    src[0] = 0  # leaf 0 is cut off on the spotty tenant
    return MessageSet(src, ms.dst, N)


def as_request(i, ms, *, tenant, kernel, seed=0):
    return RouteRequest(
        id=f"r{i}",
        src=tuple(int(x) for x in ms.src),
        dst=tuple(int(x) for x in ms.dst),
        tenant=tenant,
        kernel=kernel,
        seed=seed,
        detail=True,
    )


def solo_cycles(tree, ms, kernel, seed):
    """The solo-call reference the batch contract guarantees bit-parity with."""
    if kernel == "greedy":
        sched = schedule_greedy_first_fit(tree, ms)
    else:
        sched = schedule_random_rank(tree, ms, seed=seed)
    return [[(int(i), int(j)) for i, j in c.as_pairs()] for c in sched.cycles]


def run(coro, timeout=300):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestEndToEnd:
    def test_220_concurrent_requests_two_shards_mixed_tenants(self):
        cfg = ServeConfig(
            n=N,
            shards=2,
            lambda_ceiling=1e9,
            max_pending=10_000,
            max_batch=16,
        )
        engine = ServeEngine(cfg, tenants={"spotty": spotty_tree()})
        cases = []  # (request, message_set, expect_unroutable)
        for i in range(220):
            kernel = "greedy" if i % 2 == 0 else "random_rank"
            if i % 4 == 3:  # spotty tenant, routable traffic
                ms, tenant, sick = routable_set(i), "spotty", False
            elif i % 20 == 1:  # spotty tenant, severed traffic
                ms, tenant, sick = severed_set(i), "spotty", True
            else:  # default tenant
                ms, tenant, sick = uniform_random(N, 12, seed=i), "default", False
            cases.append(
                (as_request(i, ms, tenant=tenant, kernel=kernel, seed=i % 3), ms, sick)
            )

        async def drive():
            return await asyncio.gather(
                *(engine.submit(req) for req, _, _ in cases)
            )

        try:
            responses = run(drive())
        finally:
            engine.close()

        solo_trees = {"default": FatTree(N), "spotty": spotty_tree()}
        n_sick = 0
        for (req, ms, sick), resp in zip(cases, responses):
            assert resp["id"] == req.id
            if sick:
                n_sick += 1
                assert resp["ok"] is False
                assert resp["code"] == CODE_UNROUTABLE
                continue
            assert resp["ok"] is True, resp
            expected = solo_cycles(solo_trees[req.tenant], ms, req.kernel, req.seed)
            got = [[tuple(p) for p in cycle] for cycle in resp["cycles"]]
            # the contract the batcher must never break: delivered
            # multiset equality with the solo call …
            assert Counter(p for c in got for p in c) == Counter(
                p for c in expected for p in c
            )
            # … which the kernels' bit-parity strengthens to exact cycles
            assert got == expected
            assert resp["num_cycles"] == len(expected)
        assert n_sick >= 10  # the faulted tenant really was exercised
        # coalescing actually happened: fewer dispatches than requests
        dispatches = sum(
            value
            for kind, name, _, value in engine.metrics.series()
            if kind == "counter" and name == "serve.dispatches"
        )
        assert 0 < dispatches < len(cases)

    def test_worker_metrics_merge_into_engine(self):
        cfg = ServeConfig(n=16, shards=2, max_batch=8)
        engine = ServeEngine(cfg)
        reqs = [
            as_request(i, uniform_random(16, 8, seed=i), tenant="default",
                       kernel="greedy")
            for i in range(6)
        ]

        async def drive():
            return await asyncio.gather(*(engine.submit(r) for r in reqs))

        try:
            responses = run(drive())
            text = engine.metrics_text()
        finally:
            engine.close()
        assert all(r["ok"] for r in responses)
        # worker-side counters (path-index activity) merged into the
        # engine registry and render /metrics-style
        assert "serve_requests" in text
        assert "pathindex_cache" in text
        assert "serve_latency_seconds_count" in text


class _WorkerKillingTree(FatTree):
    """Routes like a FatTree here; unpickling it kills the shard worker."""

    def __reduce__(self):
        return (os._exit, (3,))


class TestWorkerDeath:
    def test_daemon_outlives_a_dead_worker(self):
        """The dispatch whose worker died answers 500; the daemon then
        serves the next request on a fresh pool instead of failing it."""
        cfg = ServeConfig(n=N, shards=1)
        engine = ServeEngine(cfg, tenants={"poison": _WorkerKillingTree(N)})
        ms = routable_set(3)

        async def drive():
            dead = await engine.submit(
                as_request(0, ms, tenant="poison", kernel="greedy")
            )
            alive = await engine.submit(
                as_request(1, ms, tenant="default", kernel="greedy")
            )
            return dead, alive

        try:
            dead, alive = run(drive())
        finally:
            engine.close()
        assert dead["ok"] is False and dead["code"] == CODE_INTERNAL
        assert alive["ok"] is True
        got = [[tuple(p) for p in cycle] for cycle in alive["cycles"]]
        assert got == solo_cycles(FatTree(N), ms, "greedy", 0)


class TestBackpressure:
    def test_overload_returns_structured_429_never_hangs(self):
        cfg = ServeConfig(
            n=N,
            shards=0,  # inline: admission behaviour is fully deterministic
            lambda_ceiling=4.5,
            max_pending=10_000,
            max_batch=64,
        )
        engine = ServeEngine(cfg)
        # every request has λ = 4.0 (4 identical messages saturating one
        # channel), so exactly one fits under the 4.5 ceiling at a time
        src = (2, 2, 2, 2)
        dst = (9, 9, 9, 9)
        reqs = [
            RouteRequest(id=f"b{i}", src=src, dst=dst, seed=0) for i in range(30)
        ]

        async def drive():
            return await asyncio.gather(*(engine.submit(r) for r in reqs))

        try:
            responses = run(drive(), timeout=120)  # bounded: must not hang
        finally:
            engine.close()
        ok = [r for r in responses if r["ok"]]
        refused = [r for r in responses if not r["ok"]]
        assert len(ok) >= 1
        assert len(refused) >= 1
        assert len(ok) + len(refused) == 30
        for r in refused:
            assert r["code"] == CODE_OVERLOADED
            assert "ceiling" in r["reason"]
            assert r["id"].startswith("b")
            assert r["lam"] == pytest.approx(4.0)

    def test_queue_full_returns_503(self):
        cfg = ServeConfig(
            n=N, shards=0, lambda_ceiling=1e9, max_pending=2,
            max_batch=64,
        )
        engine = ServeEngine(cfg)
        reqs = [
            as_request(i, uniform_random(N, 4, seed=i), tenant="default",
                       kernel="greedy")
            for i in range(10)
        ]

        async def drive():
            return await asyncio.gather(*(engine.submit(r) for r in reqs))

        try:
            responses = run(drive(), timeout=120)
        finally:
            engine.close()
        codes = Counter(r.get("code") for r in responses if not r["ok"])
        assert codes[CODE_QUEUE_FULL] >= 1
        assert sum(1 for r in responses if r["ok"]) >= 1


class _HandPool:
    """A shard pool whose dispatches the test completes by hand."""

    def __init__(self):
        self.dispatched = []  # (payload, future) in submit order

    def submit(self, payload):
        future = Future()
        self.dispatched.append((payload, future))
        return future

    def ids(self, i):
        """The request ids of dispatch ``i``, by their source endpoints."""
        return [src[0] for src, _ in self.dispatched[i][0]["sets"]]

    def complete(self, i):
        payload, future = self.dispatched[i]
        future.set_result({
            "results": [
                {"ok": True, "num_cycles": 1, "delivered": len(src), "n_self": 0}
                for src, _ in payload["sets"]
            ],
            "metrics": None,
        })

    def fail(self, i):
        self.dispatched[i][1].set_exception(RuntimeError("worker died"))

    def close(self):
        pass


def hand_engine():
    """A two-slot engine (max_batch 4) whose pool is a :class:`_HandPool`."""
    engine = ServeEngine(ServeConfig(n=N, shards=2, max_batch=4))
    engine.pool.close()
    engine.pool = _HandPool()
    return engine, engine.pool


async def turn():
    """Let every callback and task the last step readied run."""
    for _ in range(10):
        await asyncio.sleep(0)


class TestDispatchWhenSlotFree:
    """Backpressure batching, step by step against a hand-driven pool:
    ship at once while a slot is free, park while every slot is busy,
    and on each completion ship the oldest parked group whole."""

    def test_scheduling(self):
        engine, pool = hand_engine()
        assert engine.slots == 2

        async def drive():
            answers = {}

            def send(leaf, seed):
                # each request's one source leaf doubles as its id
                req = RouteRequest(id=str(leaf), src=(leaf,), dst=(0,), seed=seed)
                answers[leaf] = asyncio.ensure_future(engine.submit(req))

            # a lone request ships at once, as a batch of 1
            send(1, seed=0)
            await turn()
            assert len(pool.dispatched) == 1 and pool.ids(0) == [1]
            send(2, seed=1)
            await turn()
            assert pool.ids(1) == [2] and engine.in_flight == 2

            # every slot busy: three same-key requests and one other park
            for leaf in (3, 4, 5):
                send(leaf, seed=2)
            send(6, seed=3)
            await turn()
            assert len(pool.dispatched) == 2 and len(engine.batcher) == 4

            # a freed slot ships the oldest group whole …
            pool.complete(0)
            await turn()
            assert answers[1].result()["ok"] is True
            assert len(pool.dispatched) == 3 and pool.ids(2) == [3, 4, 5]
            # … and the other group ships on the next completion
            pool.complete(1)
            await turn()
            assert len(pool.dispatched) == 4 and pool.ids(3) == [6]
            assert engine.in_flight == 2 and len(engine.batcher) == 0

            # a failed dispatch still frees its slot for the next group
            send(7, seed=4)
            await turn()
            assert len(pool.dispatched) == 4
            pool.fail(2)
            await turn()
            assert [answers[leaf].result()["code"] for leaf in (3, 4, 5)] == [
                CODE_INTERNAL
            ] * 3
            assert len(pool.dispatched) == 5 and pool.ids(4) == [7]

            # a group that reaches max_batch ships while every slot is busy
            for leaf in (8, 9, 10, 11):
                send(leaf, seed=5)
            await turn()
            assert len(pool.dispatched) == 6 and pool.ids(5) == [8, 9, 10, 11]
            assert engine.in_flight == 3

            for i in (3, 4, 5):
                pool.complete(i)
            await turn()
            assert len(pool.dispatched) == 6
            return {leaf: t.result() for leaf, t in answers.items()}

        try:
            answers = run(drive(), timeout=60)
        finally:
            engine.close()
        assert len(engine.batcher) == 0 and engine.in_flight == 0
        ok = sorted(leaf for leaf, r in answers.items() if r["ok"])
        assert ok == [1, 2, 6, 7, 8, 9, 10, 11]

    def test_loop_shutdown_ships_no_parked_group(self):
        """Tearing the loop down with dispatches in flight (as SIGINT
        does) frees their slots without shipping the parked group."""
        engine, pool = hand_engine()

        async def drive():
            for leaf in (1, 2, 3):
                req = RouteRequest(id=str(leaf), src=(leaf,), dst=(0,), seed=leaf)
                asyncio.ensure_future(engine.submit(req))
            await turn()
            # return with every dispatch pending: asyncio.run cancels them

        try:
            run(drive(), timeout=60)
        finally:
            engine.close()
        assert len(pool.dispatched) == 2 and len(engine.batcher) == 1
        assert engine.in_flight == 0


class TestRequestValidation:
    @pytest.fixture()
    def engine(self):
        eng = ServeEngine(ServeConfig(n=16, shards=0))
        yield eng
        eng.close()

    def test_unknown_tenant_refused(self, engine):
        req = as_request(0, uniform_random(16, 4, seed=0), tenant="ghost",
                         kernel="greedy")
        resp = run(engine.submit(req))
        assert resp["ok"] is False and resp["code"] == CODE_BAD_REQUEST
        assert "ghost" in resp["reason"]

    def test_out_of_range_endpoints_refused(self, engine):
        req = RouteRequest(id="x", src=(0, 99), dst=(1, 2))
        resp = run(engine.submit(req))
        assert resp["ok"] is False and resp["code"] == CODE_BAD_REQUEST

    def test_submit_line_round_trip(self, engine):
        out = run(
            engine.submit_line('{"id": "L", "src": [3], "dst": [7]}')
        )
        resp = json.loads(out)
        assert resp["id"] == "L" and resp["ok"] is True

    def test_submit_line_bad_json_refused(self, engine):
        resp = json.loads(run(engine.submit_line("{nope")))
        assert resp["ok"] is False and resp["code"] == CODE_BAD_REQUEST

    def test_metrics_op_line(self, engine):
        run(engine.submit_line('{"id": "w", "src": [3], "dst": [7]}'))
        out = json.loads(run(engine.submit_line('{"op": "metrics", "id": "m"}')))
        assert out["ok"] is True and out["op"] == "metrics"
        assert "serve_requests" in out["text"]

    def test_mismatched_tenant_n_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ServeEngine(
                ServeConfig(n=16, shards=0), tenants={"big": FatTree(64)}
            )
