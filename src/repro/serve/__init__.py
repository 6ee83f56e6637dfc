"""Routing-as-a-service: the §IV efficiency claim, served online.

The paper argues a fat-tree is *universally* hardware-efficient; the
natural modern stress test is to serve routing/scheduling decisions as
a sustained online service rather than one-shot CLI runs.  This package
is that service, assembled entirely from the layers beneath it:

* :mod:`repro.serve.protocol` — the JSON-line wire format: one routing
  request per line in, one response or structured refusal per line out;
* :mod:`repro.serve.batcher` — λ(M)-keyed admission control plus the
  compatibility grouping that coalesces concurrent requests into
  :func:`repro.perf.batch.batch_schedule` calls;
* :mod:`repro.serve.shards` — the persistent ProcessPool of shard
  workers: each dispatch pickles the tenant tree (cache-free since
  ``FatTree.__getstate__``), re-seeds global RNGs per batch with the
  sweep discipline, and ships a metrics registry back; a pool broken by
  a dead worker is replaced on the next dispatch;
* :mod:`repro.serve.daemon` — the asyncio front-end tying it together
  over stdin/stdout or a TCP socket, with per-tenant
  :class:`~repro.faults.DegradedFatTree` fault domains and a
  ``/metrics``-style text endpoint merged from worker snapshots.

Run it with ``python -m repro serve`` (see the CLI) or embed
:class:`ServeEngine` directly, as ``benchmarks/bench_serve.py`` does.
"""

from __future__ import annotations

from .batcher import AdmissionController, RequestBatcher
from .daemon import ServeConfig, ServeEngine, render_metrics_text, serve_stdio, serve_tcp
from .protocol import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_OVERLOADED,
    CODE_QUEUE_FULL,
    CODE_TIMEOUT,
    CODE_UNROUTABLE,
    ControlRequest,
    ProtocolError,
    Refusal,
    RouteRequest,
    RouteResponse,
    parse_request,
)
from .shards import ShardPool, run_shard_batch

__all__ = [
    "AdmissionController",
    "RequestBatcher",
    "ServeConfig",
    "ServeEngine",
    "render_metrics_text",
    "serve_stdio",
    "serve_tcp",
    "CODE_BAD_REQUEST",
    "CODE_INTERNAL",
    "CODE_OVERLOADED",
    "CODE_QUEUE_FULL",
    "CODE_TIMEOUT",
    "CODE_UNROUTABLE",
    "ControlRequest",
    "ProtocolError",
    "Refusal",
    "RouteRequest",
    "RouteResponse",
    "parse_request",
    "ShardPool",
    "run_shard_batch",
]
