"""The asyncio front-end: JSON lines over stdin/stdout or a TCP socket.

:class:`ServeEngine` is the heart: a single-event-loop object that
parses requests (:mod:`.protocol`), admits them against the λ(M)
ceiling (:mod:`.batcher`), parks admitted requests in per-compat-key
groups for a short batching window, and dispatches whole groups to the
shard pool (:mod:`.shards`) as one ``batch_schedule`` payload each.
Responses resolve per request; worker metrics registries merge into the
engine's own on every dispatch, so ``{"op": "metrics"}`` (or
:meth:`ServeEngine.metrics_text`) always reflects the whole fleet.

Tenancy: each tenant name maps to its own tree — the default tenant's
pristine :class:`~repro.core.FatTree` or a
:class:`~repro.faults.DegradedFatTree` fault domain.  Tenants share the
shard pool but nothing else; one tenant's unroutable traffic surfaces
as ``422`` refusals on its own requests only.

Shutdown discipline: :meth:`ServeEngine.close` cancels pending flush
timers and drains the pool, and the CLI wraps the event loop so SIGINT
exits 130 with the shard workers shut down.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.message import MessageSet

from ..core.fattree import FatTree
from ..core.load import load_factor
from ..obs import MetricsRegistry
from .batcher import AdmissionController, PendingRequest, RequestBatcher
from .protocol import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_UNROUTABLE,
    ControlRequest,
    ProtocolError,
    Refusal,
    RouteRequest,
    RouteResponse,
    parse_request,
)
from .shards import ShardPool

__all__ = [
    "ServeConfig",
    "ServeEngine",
    "render_metrics_text",
    "serve_stdio",
    "serve_tcp",
]


@dataclass
class ServeConfig:
    """Tunables of one daemon instance.

    ``lambda_ceiling`` is the admission budget in units of λ(M) — the
    paper's load factor, the natural "how much routing work is in the
    building" signal, aggregated over every admitted-but-unfinished
    request.  ``batch_window_s`` bounds the extra latency coalescing may
    add: the first request of a compat group arms a timer and the group
    ships when it fills (``max_batch``) or the timer fires, whichever
    is first.
    """

    n: int = 256
    w: int | None = None
    shards: int = 2
    lambda_ceiling: float = 4096.0
    max_pending: int = 1024
    max_batch: int = 32
    batch_window_s: float = 0.005


class ServeEngine:
    """The event-loop-owned request engine (create, serve, close).

    Not thread-safe: :meth:`submit` and :meth:`submit_line` must be
    awaited on one event loop.  :meth:`close` is synchronous and may be
    called from ``finally`` after the loop exits.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        tenants: dict[str, FatTree] | None = None,
    ) -> None:
        from ..core.capacity import UniversalCapacity

        self.config = config or ServeConfig()
        cfg = self.config
        w = cfg.w if cfg.w is not None else cfg.n
        base = FatTree(cfg.n, UniversalCapacity(cfg.n, w, strict=False))
        self.tenants: dict[str, FatTree] = {"default": base}
        if tenants:
            self.tenants.update(tenants)
        for name, tree in self.tenants.items():
            if tree.n != cfg.n:
                raise ValueError(
                    f"tenant {name!r} tree has n={tree.n}, daemon serves n={cfg.n}"
                )
        self.admission = AdmissionController(
            lambda_ceiling=cfg.lambda_ceiling, max_pending=cfg.max_pending
        )
        self.batcher = RequestBatcher(max_batch=cfg.max_batch)
        self.metrics = MetricsRegistry(enabled=True)
        self.pool = ShardPool(cfg.shards)
        self._flush_timers: dict[tuple, asyncio.Task] = {}
        self._closed = False

    # -- request handling --------------------------------------------------

    async def submit_line(self, line: str) -> str:
        """Parse and serve one wire line; always returns a response line."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.metrics.inc("serve.refused", code=CODE_BAD_REQUEST)
            return Refusal(
                id=exc.request_id or "", code=CODE_BAD_REQUEST, reason=str(exc)
            ).to_json()
        if isinstance(request, ControlRequest):
            return json.dumps(
                {"id": request.id, "ok": True, "op": "metrics",
                 "text": self.metrics_text()},
                separators=(",", ":"),
            )
        response = await self.submit(request)
        return json.dumps(response, separators=(",", ":"))

    async def submit(self, request: RouteRequest) -> dict:
        """Serve one parsed request; returns the response/refusal dict."""
        tree = self.tenants.get(request.tenant)
        if tree is None:
            self.metrics.inc("serve.refused", code=CODE_BAD_REQUEST)
            return Refusal(
                id=request.id,
                code=CODE_BAD_REQUEST,
                reason=f"unknown tenant {request.tenant!r} "
                f"(have: {sorted(self.tenants)})",
            ).as_dict()
        try:
            ms = request.message_set(tree.n)
        except ValueError as exc:
            self.metrics.inc("serve.refused", code=CODE_BAD_REQUEST)
            return Refusal(
                id=request.id, code=CODE_BAD_REQUEST, reason=str(exc),
                tenant=request.tenant,
            ).as_dict()
        lam = load_factor(tree, ms)
        if not math.isfinite(lam):
            # infinite λ means some message crosses a zero-capacity
            # channel on this tenant's degraded tree: that is the
            # tenant's fault domain talking, not daemon overload —
            # refuse as unroutable without charging the admission budget
            n_unroutable = int((~tree.routable_mask(ms)).sum())
            self.metrics.inc("serve.refused", code=CODE_UNROUTABLE)
            return Refusal(
                id=request.id,
                code=CODE_UNROUTABLE,
                reason=f"{n_unroutable} message(s) cross a dead channel on "
                f"tenant {request.tenant!r}",
                tenant=request.tenant,
            ).as_dict()
        verdict = self.admission.try_admit(lam)
        if verdict is not None:
            code, reason = verdict
            self.metrics.inc("serve.refused", code=code)
            return Refusal(
                id=request.id, code=code, reason=reason, tenant=request.tenant,
                extra={"lam": round(lam, 6)},
            ).as_dict()
        t0 = time.perf_counter()
        try:
            result = await self._enqueue(request, ms)
        finally:
            self.admission.release(lam)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        self.metrics.observe(
            "serve.latency_seconds", elapsed_ms / 1e3, kernel=request.kernel
        )
        if not result.get("ok"):
            self.metrics.inc("serve.refused", code=result["code"])
            return Refusal(
                id=request.id,
                code=result["code"],
                reason=result["reason"],
                tenant=request.tenant,
                extra={"lam": round(lam, 6)},
            ).as_dict()
        self.metrics.inc("serve.requests", tenant=request.tenant,
                         kernel=request.kernel)
        return RouteResponse(
            id=request.id,
            tenant=request.tenant,
            kernel=request.kernel,
            num_cycles=result["num_cycles"],
            delivered=result["delivered"],
            n_self=result["n_self"],
            lam=lam,
            elapsed_ms=elapsed_ms,
            cycles=(
                tuple(tuple((i, j) for i, j in cycle) for cycle in result["cycles"])
                if "cycles" in result
                else None
            ),
        ).as_dict()

    async def _enqueue(self, request: RouteRequest, ms: "MessageSet") -> dict:
        """Park the request in its compat group; resolve with its result."""
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        pending = PendingRequest(request, ms, waiter)
        is_first, is_full = self.batcher.add(pending)
        key = request.compat_key()
        if is_full:
            timer = self._flush_timers.pop(key, None)
            if timer is not None:
                timer.cancel()
            await self._dispatch(key)
        elif is_first:
            self._flush_timers[key] = asyncio.ensure_future(
                self._flush_after_window(key)
            )
        return await waiter

    async def _flush_after_window(self, key: tuple) -> None:
        await asyncio.sleep(self.config.batch_window_s)
        self._flush_timers.pop(key, None)
        await self._dispatch(key)

    async def _dispatch(self, key: tuple) -> None:
        """Ship one compat group to a shard and resolve its waiters."""
        group = self.batcher.drain(key)
        if not group:
            return
        tenant, kernel, order, seed, detail = key
        tree = self.tenants[tenant]
        payload = {
            "tree": tree,
            "sets": [(p.message_set.src, p.message_set.dst) for p in group],
            "kernel": kernel,
            "order": order,
            "seed": seed,
            "detail": detail,
        }
        self.metrics.inc("serve.dispatches", tenant=tenant, kernel=kernel)
        self.metrics.observe("serve.batch_size", len(group), kernel=kernel)
        try:
            out = await asyncio.wrap_future(self.pool.submit(payload))
        except Exception as exc:  # worker death, pool shutdown, pickle failure
            for p in group:
                if not p.waiter.done():
                    p.waiter.set_result(
                        {"ok": False, "code": CODE_INTERNAL,
                         "reason": f"shard failure: {exc}"}
                    )
            return
        worker_metrics = out.get("metrics")
        if worker_metrics is not None:
            self.metrics.merge(worker_metrics)
        for p, result in zip(group, out["results"]):
            if not p.waiter.done():
                p.waiter.set_result(result)

    # -- metrics & lifecycle -----------------------------------------------

    def metrics_text(self) -> str:
        """The merged registry rendered ``/metrics``-style."""
        return render_metrics_text(self.metrics)

    def close(self) -> None:
        """Cancel pending flush timers and drain the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for timer in self._flush_timers.values():
            timer.cancel()
        self._flush_timers.clear()
        self.pool.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def render_metrics_text(registry: MetricsRegistry) -> str:
    """Render a registry as Prometheus-style exposition text.

    Counters and gauges become one ``name{labels} value`` line each;
    histograms expand to ``_count`` / ``_sum`` / ``_max`` lines.  Metric
    names swap ``.`` for ``_`` to stay in the conventional charset.
    """
    lines: list[str] = []
    for kind, name, labels, value in registry.series():
        metric = name.replace(".", "_")
        label_str = (
            "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        if kind == "histogram":
            lines.append(f"{metric}_count{label_str} {value.count}")
            lines.append(f"{metric}_sum{label_str} {value.total:.9g}")
            peak = value.max if value.count else 0
            lines.append(f"{metric}_max{label_str} {peak:.9g}")
        else:
            lines.append(f"{metric}{label_str} {value:.9g}")
    return "\n".join(lines) + "\n" if lines else ""


async def _drain(tasks: set) -> None:
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=False)


async def _stdout_writer(
    loop: asyncio.AbstractEventLoop,
) -> "asyncio.StreamWriter | None":
    """A :class:`asyncio.StreamWriter` over the real stdout, or ``None``.

    ``connect_write_pipe`` refuses descriptors the selector cannot poll
    (a plain-file redirect on Linux, or a captured/StringIO stdout in
    tests); callers then fall back to direct writes, which cannot block
    meaningfully on those targets anyway.
    """
    try:
        transport, protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
    except (ValueError, OSError, AttributeError):
        return None
    # zero water marks: drain() returns only once the kernel accepted
    # everything, so no response can sit in a buffer the loop teardown
    # would discard
    transport.set_write_buffer_limits(0)
    return asyncio.StreamWriter(transport, protocol, None, loop)


async def serve_stdio(engine: ServeEngine, *, limit: int = 2**20) -> int:
    """Serve JSON lines from stdin to stdout until EOF; returns 0.

    Requests are handled concurrently (each line spawns a task), so a
    big batch behind a slow one doesn't convoy; responses are written
    as they finish, in completion order — clients correlate by ``id``.
    Output goes through an asyncio pipe transport so a slow reader
    back-pressures the daemon instead of blocking the event loop (and
    with it every other in-flight request) inside ``write``.
    """
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=limit)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    writer = await _stdout_writer(loop)
    tasks: set[asyncio.Task] = set()

    async def handle(line: str) -> None:
        out = await engine.submit_line(line)
        if writer is not None:
            writer.write((out + "\n").encode())
            await writer.drain()
        else:
            # non-pollable stdout (file redirect / test capture): these
            # targets complete the write in the kernel without waiting
            # on a reader, so the direct call cannot stall the loop
            sys.stdout.write(out + "\n")  # reprolint: ignore[async-blocking]
            sys.stdout.flush()  # reprolint: ignore[async-blocking]

    while True:
        raw = await reader.readline()
        if not raw:
            break
        line = raw.decode().strip()
        if not line:
            continue
        task = asyncio.ensure_future(handle(line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    await _drain(tasks)
    if writer is not None:
        # flush whatever back-pressure buffered, then return stdout to
        # blocking mode so the interpreter's exit-time flush (and any
        # later print) behaves; closing would tear down fd 1 itself
        await writer.drain()
        os.set_blocking(sys.stdout.fileno(), True)
    return 0


async def serve_tcp(
    engine: ServeEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "asyncio.Event | None" = None,
) -> int:
    """Serve JSON lines per TCP connection until cancelled.

    Binds, announces ``serving on host:port`` on stderr (port 0 picks a
    free one), optionally sets ``ready``, and serves forever; cancel
    the task (or SIGINT the process) to stop.
    """

    async def client(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tasks: set[asyncio.Task] = set()

        async def handle(line: str) -> None:
            out = await engine.submit_line(line)
            writer.write((out + "\n").encode())
            await writer.drain()

        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode().strip()
                if not line:
                    continue
                task = asyncio.ensure_future(handle(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            await _drain(tasks)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(client, host, port)
    bound = server.sockets[0].getsockname()
    print(f"serving on {bound[0]}:{bound[1]}", file=sys.stderr, flush=True)
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()
    return 0
