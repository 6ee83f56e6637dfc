"""Wire protocol of the routing daemon: JSON lines in, JSON lines out.

A client sends one JSON object per line.  Routing requests look like::

    {"id": "r1", "src": [0, 3, 5], "dst": [7, 2, 2],
     "tenant": "default", "kernel": "greedy", "seed": 0}

and come back as either a :class:`RouteResponse`::

    {"id": "r1", "ok": true, "num_cycles": 2, "delivered": 3, ...}

or a :class:`Refusal` carrying an HTTP-flavoured status code::

    {"id": "r1", "ok": false, "code": 429, "reason": "...", ...}

Codes are carried in-band (there is no HTTP layer): ``400`` malformed
request, ``422`` unroutable traffic, ``429`` λ-ceiling admission
refusal, ``500`` shard failure, ``503`` queue full, ``504`` delivery
timeout.  The one non-routing operation is ``{"op": "metrics"}``, which
returns the merged ``/metrics``-style text snapshot
(:class:`ControlRequest`).

Everything here is pure data transformation — parsing, validation and
serialisation — with no I/O and no clocks, so it is trivially testable
and shared verbatim by the daemon, the shard workers and the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core.message import MessageSet
from ..core.registry import BATCH_KERNELS as KERNELS  # kernels a request may name

__all__ = [
    "CODE_BAD_REQUEST",
    "CODE_UNROUTABLE",
    "CODE_OVERLOADED",
    "CODE_INTERNAL",
    "CODE_QUEUE_FULL",
    "CODE_TIMEOUT",
    "KERNELS",
    "ORDERS",
    "ProtocolError",
    "RouteRequest",
    "ControlRequest",
    "RouteResponse",
    "Refusal",
    "parse_request",
]

CODE_BAD_REQUEST = 400
CODE_UNROUTABLE = 422
CODE_OVERLOADED = 429
CODE_INTERNAL = 500
CODE_QUEUE_FULL = 503
CODE_TIMEOUT = 504

#: greedy intra-cycle orders a request may name.
ORDERS = ("longest-first", "given")


class ProtocolError(ValueError):
    """A line that cannot be turned into a request.

    Carries the request id when one was recoverable from the line, so
    the daemon can address its ``400`` refusal to the right request.
    """

    def __init__(self, message: str, *, request_id: str | None = None) -> None:
        super().__init__(message)
        self.request_id = request_id


@dataclass(frozen=True)
class RouteRequest:
    """One parsed routing request.

    ``src``/``dst`` are paired endpoint lists (a message multiset);
    ``tenant`` names the fault domain (tree) to route against.  Requests
    agreeing on :meth:`compat_key` may be coalesced into a single
    :func:`~repro.perf.batch.batch_schedule` call without changing any
    result — the batch kernels are bit-identical to solo calls and give
    every set its own RNG stream.
    """

    id: str
    src: tuple[int, ...]
    dst: tuple[int, ...]
    tenant: str = "default"
    kernel: str = "greedy"
    order: str = "longest-first"
    seed: int = 0
    detail: bool = False

    def message_set(self, n: int) -> MessageSet:
        """The request's traffic as a validated :class:`MessageSet`."""
        return MessageSet(
            np.asarray(self.src, dtype=np.int64),
            np.asarray(self.dst, dtype=np.int64),
            n,
        )

    def compat_key(self) -> tuple[str, str, str, int, bool]:
        """Requests sharing this key may ride one batched dispatch."""
        return (self.tenant, self.kernel, self.order, self.seed, self.detail)


@dataclass(frozen=True)
class ControlRequest:
    """A non-routing operation (currently only ``metrics``)."""

    op: str
    id: str = ""


@dataclass(frozen=True)
class RouteResponse:
    """A successful scheduling outcome, one line of JSON."""

    id: str
    tenant: str
    kernel: str
    num_cycles: int
    delivered: int
    n_self: int
    lam: float
    elapsed_ms: float
    cycles: tuple[tuple[tuple[int, int], ...], ...] | None = None

    def as_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "ok": True,
            "tenant": self.tenant,
            "kernel": self.kernel,
            "num_cycles": self.num_cycles,
            "delivered": self.delivered,
            "n_self": self.n_self,
            "lam": round(self.lam, 6),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.cycles is not None:
            out["cycles"] = [[list(pair) for pair in cycle] for cycle in self.cycles]
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


@dataclass(frozen=True)
class Refusal:
    """A structured refusal: the request was not (fully) scheduled.

    Refusals are ordinary response lines with ``ok: false`` — a client
    under backpressure sees ``429`` lines immediately rather than a
    hang, mirroring how the resource-centric efficiency analyses treat
    load beyond the provisioned λ ceiling as work to shed, not queue.
    """

    id: str
    code: int
    reason: str
    tenant: str = ""
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "ok": False,
            "code": self.code,
            "reason": self.reason,
        }
        if self.tenant:
            out["tenant"] = self.tenant
        out.update(self.extra)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


def _require(condition: bool, message: str, request_id: str | None) -> None:
    if not condition:
        raise ProtocolError(message, request_id=request_id)


def parse_request(line: str) -> RouteRequest | ControlRequest:
    """Parse one JSON line into a request, or raise :class:`ProtocolError`.

    Validation here is purely structural (types, enum membership,
    paired lengths); endpoint *range* checks happen against the tenant
    tree's ``n`` when the daemon materialises the :class:`MessageSet`.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "request must be a JSON object", None)
    rid = raw.get("id")
    rid = str(rid) if rid is not None else ""

    if "op" in raw:
        op = raw["op"]
        _require(op == "metrics", f"unknown op {op!r}", rid)
        return ControlRequest(op=str(op), id=rid)

    _require(bool(rid), "routing request needs an 'id'", None)
    for key in ("src", "dst"):
        _require(
            isinstance(raw.get(key), list), f"'{key}' must be a list of ints", rid
        )
        _require(
            all(isinstance(v, int) and not isinstance(v, bool) for v in raw[key]),
            f"'{key}' must be a list of ints",
            rid,
        )
    _require(
        len(raw["src"]) == len(raw["dst"]),
        f"src/dst lengths differ: {len(raw['src'])} vs {len(raw['dst'])}",
        rid,
    )
    kernel = raw.get("kernel", "greedy")
    _require(kernel in KERNELS, f"kernel must be one of {KERNELS}, got {kernel!r}", rid)
    order = raw.get("order", "longest-first")
    _require(order in ORDERS, f"order must be one of {ORDERS}, got {order!r}", rid)
    seed = raw.get("seed", 0)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        f"seed must be an int, got {seed!r}",
        rid,
    )
    tenant = raw.get("tenant", "default")
    _require(isinstance(tenant, str), "tenant must be a string", rid)
    detail = raw.get("detail", False)
    _require(isinstance(detail, bool), "detail must be a bool", rid)
    return RouteRequest(
        id=rid,
        src=tuple(raw["src"]),
        dst=tuple(raw["dst"]),
        tenant=tenant,
        kernel=str(kernel),
        order=str(order),
        seed=seed,
        detail=detail,
    )
