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
            batch_window_s=0.01,
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
        cfg = ServeConfig(n=16, shards=2, batch_window_s=0.002, max_batch=8)
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
        cfg = ServeConfig(n=N, shards=1, batch_window_s=0.001)
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
            batch_window_s=0.05,
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
            max_batch=64, batch_window_s=0.05,
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


class TestRequestValidation:
    @pytest.fixture()
    def engine(self):
        eng = ServeEngine(ServeConfig(n=16, shards=0, batch_window_s=0.001))
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
