"""Admission control and request coalescing for the routing daemon.

Two small, synchronous, event-loop-owned pieces:

:class:`AdmissionController` keys backpressure off the paper's load
factor λ(M) — the one quantity §IV proves a fat-tree can always clear
within ``O(λ + lg n lg lg n)`` cycles.  Every admitted request reserves
its λ against a configurable aggregate ceiling; a request that would
push the in-flight total past the ceiling is refused immediately with a
``429``-style structured refusal (and a full queue with ``503``), so an
overloaded daemon degrades by shedding load, never by queueing without
bound or hanging clients.

:class:`RequestBatcher` groups admitted requests by
:meth:`~repro.serve.protocol.RouteRequest.compat_key` — requests that
agree on (tenant, kernel, order, seed, detail) may ride one
:func:`~repro.perf.batch.batch_schedule` call, whose kernels are
bit-identical to solo calls, so coalescing is pure throughput: it never
changes a response.  The batcher holds groups; when they ship is the
daemon's call (at once while a shard slot is free, else on fullness or
a freed slot).

Both classes are deliberately not thread-safe: the daemon mutates them
only from its single asyncio event loop, which serialises access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .protocol import CODE_OVERLOADED, CODE_QUEUE_FULL, RouteRequest

if TYPE_CHECKING:
    import asyncio

    from ..core.message import MessageSet

__all__ = ["AdmissionController", "RequestBatcher", "PendingRequest"]


class AdmissionController:
    """λ(M)-budgeted admission with bounded queueing.

    Parameters
    ----------
    lambda_ceiling:
        Maximum aggregate λ(M) of all admitted-but-unfinished requests.
        A single request whose own λ exceeds the ceiling is refused
        outright — it could never be admitted.
    max_pending:
        Maximum number of admitted-but-unfinished requests, a backstop
        against many tiny-λ requests exhausting memory instead of
        bandwidth.
    """

    def __init__(self, *, lambda_ceiling: float, max_pending: int) -> None:
        if lambda_ceiling <= 0:
            raise ValueError(f"lambda_ceiling must be positive, got {lambda_ceiling}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.lambda_ceiling = float(lambda_ceiling)
        self.max_pending = int(max_pending)
        self.in_flight_lambda = 0.0
        self.in_flight_requests = 0

    def try_admit(self, lam: float) -> tuple[int, str] | None:
        """Reserve ``lam`` against the budget.

        Returns ``None`` on success (the reservation is taken; pair with
        exactly one :meth:`release`), or a ``(code, reason)`` refusal.
        """
        if self.in_flight_requests + 1 > self.max_pending:
            return (
                CODE_QUEUE_FULL,
                f"queue full: {self.in_flight_requests} requests pending "
                f"(max_pending={self.max_pending})",
            )
        if self.in_flight_lambda + lam > self.lambda_ceiling:
            return (
                CODE_OVERLOADED,
                f"load ceiling: in-flight λ {self.in_flight_lambda:.3f} + "
                f"request λ {lam:.3f} exceeds ceiling {self.lambda_ceiling:.3f}",
            )
        self.in_flight_lambda += lam
        self.in_flight_requests += 1
        return None

    def release(self, lam: float) -> None:
        """Return a reservation taken by a successful :meth:`try_admit`."""
        self.in_flight_lambda = max(0.0, self.in_flight_lambda - lam)
        self.in_flight_requests = max(0, self.in_flight_requests - 1)


class PendingRequest:
    """An admitted request parked in a batch group, with its waiter.

    ``waiter`` is whatever completion handle the daemon wants resolved
    with the per-set result dict (an ``asyncio.Future`` in practice;
    the batcher never touches it).
    """

    __slots__ = ("request", "message_set", "waiter")

    def __init__(
        self,
        request: RouteRequest,
        message_set: "MessageSet",
        waiter: "asyncio.Future[dict]",
    ) -> None:
        self.request = request
        self.message_set = message_set
        self.waiter = waiter


class RequestBatcher:
    """Groups admitted requests by compatibility key until dispatch.

    The daemon adds requests as they arrive and drains a whole group at
    once — at once while a shard slot is free, when the group reaches
    ``max_batch`` (the add reports fullness), or, oldest group first
    (:meth:`oldest_key`), when a dispatch completes.
    """

    def __init__(self, *, max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self._groups: dict[tuple, list[PendingRequest]] = {}

    def add(self, pending: PendingRequest) -> bool:
        """File ``pending`` under its compat key; True once the group
        has reached ``max_batch`` (the caller should drain it now)."""
        group = self._groups.setdefault(pending.request.compat_key(), [])
        group.append(pending)
        return len(group) >= self.max_batch

    def drain(self, key: tuple) -> list[PendingRequest]:
        """Remove and return the group under ``key`` (empty if gone)."""
        return self._groups.pop(key, [])

    def oldest_key(self) -> tuple | None:
        """The key of the group opened first among those parked, if any."""
        return next(iter(self._groups), None)

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())
