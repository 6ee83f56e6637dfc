"""Start ``repro serve`` with span-recording wrappers around its layers.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    PERFBENCH_SERVE_TRACE=out.json python3 perfbench/serve_launcher.py --n 256

Arguments after the script name go to ``repro serve`` unchanged.  The
wrappers replace attributes of the program's modules from outside; no
program file changes.  Daemon side they time, per request id:

* ``serve.daemon``    ``ServeEngine.submit_line`` and ``ServeEngine.submit``,
  plus a 1 ms probe coroutine that measures event-loop lag;
* ``serve.protocol``  ``parse_request``;
* ``serve.batcher``   the λ(M) computation, ``AdmissionController.try_admit``,
  ``RequestBatcher.add`` → ``RequestBatcher.drain`` (batcher wait);
* ``serve.shards``    ``ShardPool.submit`` → future done (round trip),
  pickled payload size and dispatches outstanding.

Shard workers are forked from this process after the wrappers are in
place, so the worker task ``_pool_call`` also carries a wrapper.  It
times ``batch_schedule`` and every fresh ``PathIndex`` build in the
worker and ships those times back inside the task's result dict under a
key the daemon ignores.  When the daemon's standard input closes, every
record is written as JSON to the file named by ``PERFBENCH_SERVE_TRACE``.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import os
import pickle
import sys
import time

perf_counter = time.perf_counter

_CURRENT: contextvars.ContextVar[dict] = contextvars.ContextVar("perfbench_request")


class _State:
    def __init__(self) -> None:
        self.requests: dict[str, dict] = {}
        self.dispatches: list[dict] = []
        self.open_dispatches: set[int] = set()
        self.last_group: list = []
        self.last_full = False
        self.loop_lag: list[float] = []
        self.refused = 0
        # worker-side, reset per task
        self.worker_batch: list[tuple[float, float, str, int]] = []
        self.worker_builds: list[float] = []


def install(state: _State) -> None:
    """Wrap the serve layers; must run before the daemon starts."""
    import repro.serve as serve_pkg
    from repro.perf import batch as perf_batch
    from repro.perf import pathindex
    from repro.serve import batcher, daemon, protocol, shards

    engine_cls = daemon.ServeEngine

    orig_parse = daemon.parse_request

    def parse_request(line):
        t0 = perf_counter()
        request = orig_parse(line)
        t1 = perf_counter()
        rec = _CURRENT.get(None)
        if rec is not None and isinstance(request, protocol.RouteRequest):
            rec["rid"] = request.id
            rec["parse"] = (t0, t1)
            state.requests[request.id] = rec
        return request

    daemon.parse_request = parse_request

    orig_submit_line = engine_cls.submit_line

    async def submit_line(self, line):
        rec = {"line": [perf_counter(), 0.0]}
        token = _CURRENT.set(rec)
        try:
            return await orig_submit_line(self, line)
        finally:
            rec["line"][1] = perf_counter()
            _CURRENT.reset(token)

    engine_cls.submit_line = submit_line

    orig_submit = engine_cls.submit

    async def submit(self, request):
        t0 = perf_counter()
        try:
            return await orig_submit(self, request)
        finally:
            rec = state.requests.get(request.id)
            if rec is not None:
                rec["submit"] = (t0, perf_counter())

    engine_cls.submit = submit

    orig_load_factor = daemon.load_factor

    def load_factor(tree, ms):
        t0 = perf_counter()
        lam = orig_load_factor(tree, ms)
        rec = _CURRENT.get(None)
        if rec is not None:
            rec["lambda"] = (t0, perf_counter())
        return lam

    daemon.load_factor = load_factor

    orig_try_admit = batcher.AdmissionController.try_admit

    def try_admit(self, lam):
        t0 = perf_counter()
        verdict = orig_try_admit(self, lam)
        rec = _CURRENT.get(None)
        if rec is not None:
            rec["admit"] = (t0, perf_counter())
        if verdict is not None:
            state.refused += 1
        return verdict

    batcher.AdmissionController.try_admit = try_admit

    orig_add = batcher.RequestBatcher.add

    def add(self, pending):
        rec = state.requests.get(pending.request.id)
        if rec is not None:
            rec["add"] = perf_counter()
        return orig_add(self, pending)

    batcher.RequestBatcher.add = add

    orig_drain = batcher.RequestBatcher.drain

    def drain(self, key):
        group = orig_drain(self, key)
        now = perf_counter()
        for p in group:
            rec = state.requests.get(p.request.id)
            if rec is not None:
                rec["drain"] = now
        # _dispatch calls ShardPool.submit right after drain, with no
        # await in between, so the next submit belongs to this group
        state.last_group = [(p.request.id, len(p.message_set)) for p in group]
        state.last_full = len(group) >= self.max_batch
        return group

    batcher.RequestBatcher.drain = drain

    orig_pool_submit = shards.ShardPool.submit

    def pool_submit(self, payload):
        t0 = perf_counter()
        kb = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) / 1024.0
        record = {
            "t_submit": t0,
            "rids": [rid for rid, _ in state.last_group],
            "msgs": sum(m for _, m in state.last_group),
            "kernel": payload["kernel"],
            "full": state.last_full,
            "kb": kb,
            "outstanding": len(state.open_dispatches),
        }
        state.last_group = []
        key = len(state.dispatches)
        state.dispatches.append(record)
        state.open_dispatches.add(key)
        for rid in record["rids"]:
            rec = state.requests.get(rid)
            if rec is not None:
                rec["dispatch"] = key
        future = orig_pool_submit(self, payload)

        def done(fut):
            record["t_done"] = perf_counter()
            state.open_dispatches.discard(key)
            if not fut.cancelled() and fut.exception() is None:
                record["worker"] = fut.result().pop("_bench", None)

        future.add_done_callback(done)
        return future

    shards.ShardPool.submit = pool_submit

    # -- worker side: inherited by the forked shard workers ------------------
    orig_pool_call = shards._pool_call

    def _pool_call(payload):
        state.worker_batch = []
        state.worker_builds = []
        t0 = perf_counter()
        out = orig_pool_call(payload)
        out["_bench"] = {
            "task": (t0, perf_counter()),
            "batch": state.worker_batch,
            "builds": state.worker_builds,
        }
        return out

    # pickled by reference: the pool must find this very object under
    # the original module and name, in the daemon and in the workers
    _pool_call.__module__ = shards._pool_call.__module__
    _pool_call.__qualname__ = shards._pool_call.__qualname__
    shards._pool_call = _pool_call

    orig_batch = perf_batch.batch_schedule

    def batch_schedule(ft, message_sets, **kwargs):
        t0 = perf_counter()
        out = orig_batch(ft, message_sets, **kwargs)
        state.worker_batch.append(
            (t0, perf_counter(), kwargs.get("kernel", "greedy"),
             sum(len(ms) for ms in message_sets))
        )
        return out

    perf_batch.batch_schedule = batch_schedule

    orig_index_init = pathindex.PathIndex.__init__

    def index_init(self, ft, messages):
        t0 = perf_counter()
        orig_index_init(self, ft, messages)
        state.worker_builds.append(perf_counter() - t0)

    pathindex.PathIndex.__init__ = index_init

    # -- event-loop lag probe ----------------------------------------------
    orig_serve_stdio = serve_pkg.serve_stdio

    async def probe() -> None:
        while True:
            t0 = perf_counter()
            await asyncio.sleep(0.001)
            state.loop_lag.append(perf_counter() - t0 - 0.001)

    async def serve_stdio(engine, **kwargs):
        task = asyncio.ensure_future(probe())
        try:
            return await orig_serve_stdio(engine, **kwargs)
        finally:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    serve_pkg.serve_stdio = serve_stdio


def main(argv: list[str]) -> int:
    out_path = os.environ.get("PERFBENCH_SERVE_TRACE")
    if not out_path:
        print("PERFBENCH_SERVE_TRACE must name the output file", file=sys.stderr)
        return 2
    state = _State()
    install(state)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv])
    with open(out_path, "w") as fh:
        json.dump(
            {
                "requests": state.requests,
                "dispatches": state.dispatches,
                "loop_lag": state.loop_lag,
                "refused": state.refused,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
