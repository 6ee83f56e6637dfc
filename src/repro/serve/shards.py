"""Shard workers: a persistent ProcessPool executing batched schedules.

A *shard* is a worker process that owns nothing: every dispatch carries
the tenant tree (pickled cache-free thanks to
``FatTree.__getstate__`` — the payload is a few hundred bytes, not a
warm multi-MB path-index LRU) plus the raw endpoint arrays of each
coalesced request.  Workers re-seed the global RNGs from the batch's
declared seed before every task — the same discipline
:func:`repro.analysis.sweep.sweep` workers follow, keeping every result
a pure function of its payload regardless of which shard ran it or what
ran there before.

Failure isolation is per *set*, not per batch:
:func:`run_shard_batch` first tries the single 3-D
:func:`~repro.perf.batch.batch_schedule` pass; if any set is unroutable
or times out (the batch call raises for the whole batch), it falls back
to solo per-set calls — bit-identical to the batch kernels by the PR 7
parity contract — so one tenant's severed traffic degrades into a
``422`` refusal for that request alone, never an error for the
neighbours coalesced with it.

A worker that dies outright (a crash, the OOM killer) breaks the whole
executor: the dispatch it was running fails with ``BrokenProcessPool``
and the daemon answers that group with a ``500``.  The next
:meth:`ShardPool.submit` finds the executor broken, replaces it with a
fresh one and resubmits, so one dead worker costs one failed dispatch,
not every later one.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.fattree import FatTree
    from ..core.message import MessageSet
    from ..core.schedule import Schedule
    from ..obs import Obs

from ..core.errors import DeliveryTimeout, UnroutableError
from .protocol import CODE_TIMEOUT, CODE_UNROUTABLE

__all__ = ["ShardPool", "run_shard_batch"]


def _ok_result(schedule: "Schedule", detail: bool) -> dict:
    out: dict = {
        "ok": True,
        "num_cycles": schedule.num_cycles,
        "delivered": sum(len(c) for c in schedule.cycles),
        "n_self": schedule.n_self_messages,
    }
    if detail:
        out["cycles"] = [
            [(int(i), int(j)) for i, j in cycle.as_pairs()]
            for cycle in schedule.cycles
        ]
    return out


def _solo_result(
    ft: "FatTree",
    ms: "MessageSet",
    *,
    kernel: str,
    order: str,
    seed: int,
    detail: bool,
    obs: "Obs | None",
) -> dict:
    """Schedule one set alone, mapping routing failures to refusal codes."""
    from ..core import schedule_greedy_first_fit, schedule_random_rank

    try:
        if kernel == "greedy":
            schedule = schedule_greedy_first_fit(ft, ms, order=order, obs=obs)
        else:
            schedule = schedule_random_rank(ft, ms, seed=seed, obs=obs)
    except UnroutableError as exc:
        return {"ok": False, "code": CODE_UNROUTABLE, "reason": str(exc)}
    except DeliveryTimeout as exc:
        return {"ok": False, "code": CODE_TIMEOUT, "reason": str(exc)}
    return _ok_result(schedule, detail)


def run_shard_batch(
    ft: "FatTree",
    message_sets: "list[MessageSet]",
    *,
    kernel: str = "greedy",
    order: str = "longest-first",
    seed: int = 0,
    detail: bool = False,
    obs: "Obs | None" = None,
) -> list[dict]:
    """Schedule coalesced sets against one tree; per-set outcomes.

    The happy path is one :func:`~repro.perf.batch.batch_schedule` call
    over all sets.  Because that call raises for the *whole* batch when
    any single set is unroutable (or exhausts its cycle budget), a
    failure triggers a solo fallback per set — bit-identical results
    for the healthy sets, structured per-set refusal dicts for the sick
    ones.  Every element of the returned list is a JSON-able dict with
    ``ok`` plus either schedule stats or a refusal code.
    """
    from ..obs import resolve_obs
    from ..perf.batch import batch_schedule

    obs = resolve_obs(obs)
    sets = list(message_sets)
    if not sets:
        return []
    try:
        schedules = batch_schedule(
            ft, sets, kernel=kernel, order=order, seed=seed, obs=obs
        )
    except (UnroutableError, DeliveryTimeout):
        if obs.enabled:
            obs.metrics.inc("serve.batch_fallback", kernel=kernel)
        return [
            _solo_result(
                ft, ms, kernel=kernel, order=order, seed=seed, detail=detail, obs=obs
            )
            for ms in sets
        ]
    return [_ok_result(s, detail) for s in schedules]


def _pool_call(payload: dict) -> dict:
    """Top-level shard task: rebuild sets, re-seed, schedule, snapshot.

    Runs in the worker with only the pickled ``payload``: the tenant
    tree (cache-free), raw endpoint arrays, and the batch parameters.
    Global RNGs are re-seeded from the batch's declared seed first — the
    sweep-worker discipline — and a metrics-only ``Obs`` (tracer off:
    per-request traces don't survive the process boundary usefully)
    collects cache hit/miss and kernel timings that the daemon merges
    into its ``/metrics`` endpoint.
    """
    from ..analysis.sweep import _reseed_from_params
    from ..core.message import MessageSet
    from ..obs import MetricsRegistry, Obs, Tracer, use_obs

    _reseed_from_params({"seed": payload["seed"]})
    ft = payload["tree"]
    sets = [MessageSet(src, dst, ft.n) for src, dst in payload["sets"]]
    obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
    with use_obs(obs):
        results = run_shard_batch(
            ft,
            sets,
            kernel=payload["kernel"],
            order=payload["order"],
            seed=payload["seed"],
            detail=payload["detail"],
            obs=obs,
        )
    return {"results": results, "metrics": obs.metrics}


class ShardPool:
    """A persistent pool of shard workers (or an inline fallback).

    ``shards=0`` runs every dispatch synchronously in the calling
    process — no pickling, no pool — which is what the deterministic
    unit tests and the admission-control paths use.  With ``shards>=1``
    a :class:`~concurrent.futures.ProcessPoolExecutor` holds the
    workers alive across dispatches, so worker start-up is paid once,
    not per request; a broken executor is replaced on the next submit.
    """

    def __init__(self, shards: int) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        self.shards = int(shards)
        self._pool: ProcessPoolExecutor | None = None
        if self.shards:
            self._pool = ProcessPoolExecutor(max_workers=self.shards)

    def submit(self, payload: dict) -> "Future[dict]":
        """Dispatch one batch payload; returns a future of the result."""
        if self._pool is not None:
            try:
                return self._pool.submit(_pool_call, payload)
            except BrokenProcessPool:
                # a worker died under an earlier dispatch, which already
                # failed with this error; its executor takes no more
                # work, so swap in a fresh one (a new pool cannot be
                # broken before it runs a task, so one respawn suffices)
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = ProcessPoolExecutor(max_workers=self.shards)
                return self._pool.submit(_pool_call, payload)
        inline: Future[dict] = Future()
        try:
            inline.set_result(_pool_call(payload))
        except BaseException as exc:  # mirror executor behaviour exactly
            inline.set_exception(exc)
        return inline

    def close(self) -> None:
        """Shut the workers down (idempotent; safe mid-dispatch)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
